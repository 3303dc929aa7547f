"""Command-line front end.

Subcommands: ``graph info``, ``critgroup``, ``snf``, ``profile``,
``filtration``, ``sandpile``, ``moore analyze``.  Graphs come from a builtin
name (--graph) or an edge-list file (--edges); matrix commands also take the
plain-text matrix format (--matrix), with "-" meaning stdin.  Output is
deterministic text or JSON ("schema": 1, sorted keys), so identical
invocations produce byte-identical reports.

The parser checks what argparse can express: exactly one source per
command, a proven prime for each --prime (required by profile and
filtration), four integers for --params.  The commands check the rest:
filtration takes exactly one prime, graph names, files and matrices must
parse, and ``SrgParams`` decides whether a parameter set is feasible.

Exit codes: 0 success, 1 usage or input errors (a graph whose existence is
open, such as moore57, among them), 2 infeasible-parameter or contradiction
outcomes, including a filtration report that does not pass.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import prod

from .arith import UnfactoredError, is_prime
from .critical import bicycle_dimension, critical_group
from .exact import elem_divisor_profile, snf
from .filtration import verify_filtration_dims
from .graphs import (
    Graph,
    InfeasibleParametersError,
    SrgParams,
    complete_graph,
    cycle_graph,
    hoffman_singleton_graph,
    laplacian_matrix,
    moore_graph,
    parse_edge_list,
    path_graph,
    petersen_graph,
)
from .intmatrix import IntMatrix, parse_matrix
from .moore import ContradictionError, analyze
from .sandpile import SizeGuardError, sandpile_group_structure


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# a builtin name reaches any size in a few characters: k1414 (998,991 edges)
# builds in about 2 s, and k20000 would exhaust memory
_EDGE_LIMIT = 1_000_000
_FAMILIES = {  # constructor and edge count of cN, kN and pN
    "c": (cycle_graph, lambda n: n),
    "k": (complete_graph, lambda n: n * (n - 1) // 2),
    "p": (path_graph, lambda n: n - 1),
}


def _builtin_graph(name: str) -> Graph:
    key = name.lower().replace("_", "-")
    if key == "petersen":
        return petersen_graph()
    if key in ("hoffman-singleton", "hosi"):
        return hoffman_singleton_graph()
    if key.startswith("moore") and key[5:].isdigit():
        return moore_graph(int(key[5:]))
    if key[:1] in _FAMILIES and key[1:].isdigit():
        build, edge_count = _FAMILIES[key[:1]]
        n = int(key[1:])
        if edge_count(n) > _EDGE_LIMIT:
            raise ValueError(
                f"graph {name!r} has {edge_count(n)} edges; builtin graphs are "
                f"limited to {_EDGE_LIMIT} edges"
            )
        return build(n)
    raise ValueError(f"unknown graph name {name!r}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args) -> tuple[Graph, str]:
    if args.graph is not None:
        return _builtin_graph(args.graph), args.graph
    return parse_edge_list(_read_text(args.edges)), args.edges


def _load_matrix_or_graph(args) -> tuple[IntMatrix, str]:
    if args.matrix is not None:
        return parse_matrix(_read_text(args.matrix)), args.matrix
    g, name = _load_graph(args)
    return laplacian_matrix(g), f"laplacian({name})"


def _prime(text: str) -> int:
    """argparse type of ``--prime``: an int that ``is_prime`` proves prime."""
    try:
        p = int(text)
        proven = is_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not proven:
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return p


def _params(text: str) -> tuple[int, int, int, int]:
    """argparse type of ``--params``: v,k,lambda,mu as four ints.

    Feasibility is left to ``SrgParams``, so an infeasible set exits 2, not 1.
    """
    try:
        v, k, lam, mu = map(int, text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected four integers v,k,lambda,mu") from exc
    return v, k, lam, mu


def _emit(args, report: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


def _factored_str(fd: dict[int, int]) -> str:
    if not fd:
        return "1"
    return " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(fd.items())
    )


# -- subcommand bodies ---------------------------------------------------------


def _cmd_graph_info(args) -> int:
    g, name = _load_graph(args)
    degs = g.degrees()
    report = {
        "schema": 1,
        "name": name,
        "n": g.n,
        "m": g.m,
        "connected": g.is_connected(),
        "regular": len(set(degs)) <= 1,
        "min_degree": min(degs) if degs else 0,
        "max_degree": max(degs) if degs else 0,
    }
    text = (
        f"graph: {name} (n={g.n}, m={g.m})\n"
        f"connected: {report['connected']}\n"
        f"regular: {report['regular']}"
        + (f" (degree {degs[0]})" if report["regular"] and degs else "")
        + "\n"
    )
    _emit(args, report, text)
    return 0


def _cmd_critgroup(args) -> int:
    g, name = _load_graph(args)
    cg = critical_group(g)
    bic = bicycle_dimension(g) if cg.free_rank <= 1 else None
    if bic is not None:
        even = sum(x % 2 == 0 for x in cg.invariant_factors)
        if bic != even:
            raise ContradictionError(
                f"bicycle dimension {bic} differs from the {even} even invariant factors"
            )
    try:
        order_factored, unfactored = cg.order_factored(), 1
    except UnfactoredError as exc:  # print what was proven, and the rest
        order_factored, unfactored = exc.primes, exc.rest
    report = {
        "schema": 1,
        "graph": name,
        "invariant_factors": list(cg.invariant_factors),
        "order_factored": {str(p): e for p, e in sorted(order_factored.items())},
        "free_rank": cg.free_rank,
        "bicycle_dim": bic,
    }
    lines = [
        f"graph: {name} (n={g.n}, m={g.m})",
        "invariant factors: "
        + (" ".join(str(d) for d in cg.invariant_factors) or "(trivial)"),
        f"order: {cg.order}",
        f"order factored: {_factored_str(order_factored)}",
    ]
    if unfactored > 1:
        report["unfactored"] = unfactored
        lines.append(f"unfactored: {unfactored}")
    lines.append(f"free rank: {cg.free_rank}")
    if bic is not None:
        lines.append(f"bicycle dimension: {bic}")
    _emit(args, report, "\n".join(lines) + "\n")
    return 0


def _cmd_snf(args) -> int:
    m, _ = _load_matrix_or_graph(args)
    result = snf(m)
    report = {"schema": 1, "invariant_factors": list(result.invariant_factors)}
    text = " ".join(str(d) for d in result.invariant_factors) + "\n"
    _emit(args, report, text)
    return 0


def _cmd_profile(args) -> int:
    m, name = _load_matrix_or_graph(args)
    profiles = [elem_divisor_profile(m, p) for p in args.prime]
    report = {
        "schema": 1,
        "source": name,
        "profiles": [
            {
                "p": prof.p,
                "multiplicities": list(prof.multiplicities),
                "kernel_rank": prof.kernel_rank,
                "total_valuation": prof.total_valuation,
            }
            for prof in profiles
        ],
    }
    lines = []
    for prof in profiles:
        mult = ",".join(str(e) for e in prof.multiplicities) or "-"
        lines.append(
            f"p={prof.p} multiplicities=({mult}) kernel_rank={prof.kernel_rank} "
            f"total_valuation={prof.total_valuation}"
        )
    _emit(args, report, "\n".join(lines) + "\n")
    return 0


def _cmd_filtration(args) -> int:
    if len(args.prime) != 1:
        raise ValueError("filtration needs exactly one --prime")
    m, name = _load_matrix_or_graph(args)
    rep = verify_filtration_dims(m, args.prime[0])
    report = {"schema": 1, "source": name, **rep.to_json_dict()}
    text = (
        f"p={rep.p} pass={rep.passed}\n"
        f"dims_M: {' '.join(str(d) for d in rep.dims_M)}\n"
        f"dims_N: {' '.join(str(d) for d in rep.dims_N)}\n"
        f"kernel_dim: {rep.kernel_dim}\n"
    )
    _emit(args, report, text)
    return 0 if rep.passed else 2


def _cmd_sandpile(args) -> int:
    g, name = _load_graph(args)
    structure = sandpile_group_structure(g, args.sink)
    count = prod(structure)  # the number of recurrent configurations
    cg = critical_group(g)
    matches = tuple(d for d in structure if d > 1) == cg.invariant_factors
    report = {
        "schema": 1,
        "graph": name,
        "sink": args.sink,
        "recurrent_count": count,
        "invariant_factors": list(structure),
        "matches_snf": matches,
    }
    text = (
        f"graph: {name} (sink {args.sink})\n"
        f"recurrent configurations: {count}\n"
        f"group structure: {' '.join(str(d) for d in structure) or '(trivial)'}\n"
        f"matches Laplacian Smith form: {matches}\n"
    )
    _emit(args, report, text)
    return 0 if matches else 2


def _cmd_moore_analyze(args) -> int:
    v, k, lam, mu = args.params
    report = analyze(SrgParams(v, k, lam, mu), args.prime or ())
    lines = [
        f"params: v={v} k={k} lambda={lam} mu={mu}",
        f"identity: (L - {report['identity']['c']}I)L = "
        f"-{report['identity']['w']}I + {report['identity']['j_coeff']}J",
        "allowed elementary divisors: "
        + " ".join(str(d) for d in report["divisor_bound"]),
        "order: "
        + _factored_str({int(p): e for p, e in report["order_factored"].items()}),
        "forced multiplicities: "
        + (
            " ".join(f"{q}->{m}" for q, m in sorted(report["forced"].items(), key=lambda kv: int(kv[0])))
            or "(none)"
        ),
    ]
    for q, fams in report["families"].items():
        lines.append(f"families for prime {q}:")
        for fam in fams:
            rng = fam["t_range"]
            lines.append(
                f"  case {fam['case']}: e = ({', '.join(fam['e'])}) "
                f"for t in [{rng[0]}, {rng[1]}]"
            )
            if fam["e_of_rank"]:
                lines.append(
                    f"    in terms of e0: ({', '.join(fam['e_of_rank'])})"
                )
    _emit(args, report, "\n".join(lines) + "\n")
    return 0


# -- parser wiring ---------------------------------------------------------------


def _add_common(sub, matrix=False, primes=False):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="builtin graph name (e.g. petersen, hosi, c5, k4)")
    source.add_argument("--edges", help="edge-list file path, '-' for stdin")
    if matrix:
        source.add_argument("--matrix", help="matrix file path, '-' for stdin")
    if primes:
        sub.add_argument(
            "--prime", type=_prime, action="append", required=True, help="prime (repeatable)"
        )
    sub.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> _Parser:
    """The ``critlab`` argument parser, built on first use and then reused.

    Parsing leaves the parser unchanged, so in-process callers of ``main``
    pay for building it once.
    """
    parser = _Parser(prog="critlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    graph = subs.add_parser("graph", help="graph utilities")
    gsubs = graph.add_subparsers(dest="graph_command", required=True)
    info = gsubs.add_parser("info", help="basic graph facts")
    _add_common(info)
    info.set_defaults(func=_cmd_graph_info)

    crit = subs.add_parser("critgroup", help="critical group of a graph")
    _add_common(crit)
    crit.set_defaults(func=_cmd_critgroup)

    snf_cmd = subs.add_parser("snf", help="Smith normal form invariant factors")
    _add_common(snf_cmd, matrix=True)
    snf_cmd.set_defaults(func=_cmd_snf)

    prof = subs.add_parser("profile", help="per-prime elementary-divisor profile")
    _add_common(prof, matrix=True, primes=True)
    prof.set_defaults(func=_cmd_profile)

    filt = subs.add_parser("filtration", help="verify the filtration dimension identities")
    _add_common(filt, matrix=True, primes=True)
    filt.set_defaults(func=_cmd_filtration)

    sand = subs.add_parser("sandpile", help="chip-firing oracle report")
    _add_common(sand)
    sand.add_argument("--sink", type=int, default=0)
    sand.set_defaults(func=_cmd_sandpile)

    moore = subs.add_parser("moore", help="Moore/SRG constraint analysis")
    msubs = moore.add_subparsers(dest="moore_command", required=True)
    an = msubs.add_parser("analyze", help="critical-group constraints for SRG parameters")
    an.add_argument("--params", type=_params, required=True, help="v,k,lambda,mu")
    an.add_argument("--prime", type=_prime, action="append", help="enumerate families for this prime")
    an.add_argument("--format", choices=("text", "json"), default="text")
    an.set_defaults(func=_cmd_moore_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ContradictionError, InfeasibleParametersError) as exc:
        sys.stderr.write(f"critlab: {exc}\n")
        return 2
    except (ValueError, SizeGuardError, OSError) as exc:
        sys.stderr.write(f"critlab: error: {exc}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
