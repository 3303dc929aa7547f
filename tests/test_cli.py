import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

from critlab import Graph, IntMatrix
from critlab.cli import build_parser, main
from oracles import format_edge_list, format_matrix, matmul

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def cycle_plus_chords_file(tmp_path, seed, n, chords):
    # an n-cycle plus `chords` random draws, loops dropped, as an edge list
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(chords):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    path = tmp_path / f"random{seed}.txt"
    path.write_text(format_edge_list(Graph(n, edges)))
    return str(path)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SNF_PIN_GRAPHS = (
    ["petersen", "hosi", "moore2", "moore3", "moore7"]
    + [f"c{n}" for n in range(3, 13)]
    + [f"k{n}" for n in range(9)]
    + [f"p{n}" for n in range(1, 7)]
)


def snf_pin_matrices():
    """50 seeded matrices: zero shapes, then products a b of inner dimension
    k (rank at most k, often singular) and full random ones, some wide or
    tall, some with large entries."""
    rng = random.Random("snf-pin")
    out = [IntMatrix.zeros(r, c) for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2))]
    while len(out) < 50:
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        scale = rng.choice((1, 1, 2, 6, 10**12))
        if rng.random() < 0.6:
            k = rng.randint(0, min(r, c))
            a = IntMatrix(r, k, [rng.randint(-5, 5) for _ in range(r * k)])
            b = IntMatrix(k, c, [scale * rng.randint(-5, 5) for _ in range(k * c)])
            out.append(matmul(a, b))
        else:
            out.append(IntMatrix(r, c, [scale * rng.randint(-9, 9) for _ in range(r * c)]))
    return out


# sha256 of the text and JSON output of `critlab snf` on every builtin graph
# of SNF_PIN_GRAPHS and every matrix of snf_pin_matrices(), in that order,
# recorded from the integer-elimination implementation
SNF_SHA256 = "24f4b8d41c0dc015d61ca82fcd9755d22aad78afa1976234411f35991a16ac06"


def _unimodular(rng, n):
    # a product of random elementary row operations on the identity
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def padic_pin_matrices():
    """20 seeded U diag(p^a u) V with unimodular U and V, a prime p of 2, 3,
    5 and 7 in turn, units u coprime to p and exponents a up to 5, at least
    one of them 3 or more; some are wide or tall."""
    rng = random.Random("padic-pin")
    shapes = [(4, 4), (6, 6), (3, 5), (5, 3), (7, 7)]
    out = []
    for k in range(20):
        p = (2, 3, 5, 7)[k % 4]
        r, c = shapes[k % len(shapes)]
        exps = [rng.randint(0, 5) for _ in range(min(r, c))]
        exps[rng.randrange(len(exps))] = rng.randint(3, 5)
        d = [[0] * c for _ in range(r)]
        for t, a in enumerate(exps):
            d[t][t] = p**a * rng.choice([u for u in range(1, 10) if u % p])
        ud = matmul(_unimodular(rng, r), IntMatrix.from_rows(d))
        out.append(matmul(ud, _unimodular(rng, c)))
    return out


# sha256 of the exit code and output of `critlab profile --prime 2 --prime 3
# --prime 5 --prime 7` and of `critlab filtration --prime p`, p = 2, 3, 5, 7,
# in text and JSON, on every builtin graph of SNF_PIN_GRAPHS, then every
# matrix of snf_pin_matrices() and padic_pin_matrices() on stdin, recorded
# from the implementation with one certified tracked elimination and packed
# images
PADIC_SHA256 = "6523943d63239eda09a4410ece600baf8672cb15c93f36b8b9f8f7077ce71780"


class TestSnfCommand:
    def test_output_is_pinned(self, capsys, tmp_path):
        sources = [["--graph", name] for name in SNF_PIN_GRAPHS]
        for i, m in enumerate(snf_pin_matrices()):
            path = tmp_path / f"m{i}.txt"
            path.write_text(format_matrix(m))
            sources.append(["--matrix", str(path)])
        digest = hashlib.sha256()
        for src in sources:
            for fmt in ("text", "json"):
                code, out, _ = run_cli(capsys, ["snf", *src, "--format", fmt])
                assert code == 0, src
                digest.update(out.encode())
        assert digest.hexdigest() == SNF_SHA256

    def test_stdin_matrix(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["snf", "--matrix", "-"], stdin="2 2\n2 0\n0 3\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == "1 6\n"

    def test_graph_laplacian(self, capsys):
        code, out, _ = run_cli(capsys, ["snf", "--graph", "k3"])
        assert code == 0
        assert out == "1 3 0\n"

    def test_malformed_matrix(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["snf", "--matrix", "-"], stdin="2 2\n1\n", monkeypatch=monkeypatch
        )
        assert code == 1
        assert "error" in err
        # the header is checked before the body is counted
        code, out, err = run_cli(
            capsys, ["snf", "--matrix", "-"], stdin="-1 2\n", monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert err == "critlab: error: matrix dimensions must be nonnegative\n"


class TestCritgroupCommand:
    def test_petersen_json(self, capsys):
        code, out, _ = run_cli(capsys, ["critgroup", "--graph", "petersen", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["invariant_factors"] == [2, 10, 10, 10]
        assert report["order_factored"] == {"2": 4, "5": 3}
        assert report["free_rank"] == 1
        assert report["bicycle_dim"] == 4

    def test_byte_identical_output(self, capsys):
        _, first, _ = run_cli(capsys, ["critgroup", "--graph", "petersen", "--format", "json"])
        _, second, _ = run_cli(capsys, ["critgroup", "--graph", "petersen", "--format", "json"])
        assert first.encode() == second.encode()

    def test_hoffman_singleton_golden(self, capsys):
        # output of the Smith-form implementation, byte for byte
        factors = "5 " * 8 + "10" + " 50" * 19
        code, out, _ = run_cli(capsys, ["critgroup", "--graph", "hosi"])
        assert code == 0
        assert out == (
            "graph: hosi (n=50, m=175)\n"
            f"invariant factors: {factors}\n"
            "order: 745058059692382812500000000000000000000\n"
            "order factored: 2^20 * 5^47\n"
            "free rank: 1\n"
            "bicycle dimension: 20\n"
        )
        code, out, _ = run_cli(capsys, ["critgroup", "--graph", "hosi", "--format", "json"])
        assert code == 0
        assert out == (
            '{"bicycle_dim": 20, "free_rank": 1, "graph": "hosi", "invariant_factors": ['
            + ", ".join(factors.split())
            + '], "order_factored": {"2": 20, "5": 47}, "schema": 1}\n'
        )

    def test_bicycle_contradiction_exits_2(self, capsys, monkeypatch):
        # Petersen has four even invariant factors
        monkeypatch.setattr("critlab.cli.bicycle_dimension", lambda g: 3)
        code, out, err = run_cli(capsys, ["critgroup", "--graph", "petersen"])
        assert code == 2
        assert out == ""
        assert "bicycle dimension 3" in err and "4 even invariant factors" in err

    def test_edges_file(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run_cli(capsys, ["critgroup", "--edges", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["order_factored"] == {"3": 1}

    def test_roadmap_graph_factors_its_72_bit_prime(self, capsys, tmp_path):
        path = cycle_plus_chords_file(tmp_path, 1, 40, 60)
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["critgroup", "--edges", path])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert "order factored: 2^2 * 2496524103974833762451\nfree rank: 1\n" in out
        assert "unfactored" not in out

    def test_unfactored_cofactor(self, capsys, tmp_path):
        # a 225-bit order whose 163-bit cofactor is a product of primes
        # beyond the rho budget
        path = cycle_plus_chords_file(tmp_path, 608, 60, 480)
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["critgroup", "--edges", path, "--format", "json"])
        assert time.perf_counter() - start < 2
        assert code == 0
        report = json.loads(out)
        (order,) = report["invariant_factors"]
        assert order.bit_length() == 225
        proven = prod(int(p) ** e for p, e in report["order_factored"].items())
        assert proven * report["unfactored"] == order
        assert report["unfactored"] > 1 << 100
        code, out, _ = run_cli(capsys, ["critgroup", "--edges", path])
        line = "order factored: 59 * 67 * 401 * 487 * 4865255519"
        assert f"{line}\nunfactored: {report['unfactored']}\nfree rank: 1\n" in out

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, _, err = run_cli(
            capsys, ["critgroup", "--graph", "k3", "--edges", str(path)]
        )
        assert code == 1

    def test_unknown_graph(self, capsys):
        code, _, err = run_cli(capsys, ["critgroup", "--graph", "nosuchgraph"])
        assert code == 1
        assert "unknown graph" in err


class TestProfileCommand:
    def test_profile_and_filtration_output_is_pinned(self, capsys, monkeypatch):
        # matrices go on stdin: the report echoes a --matrix path
        sources = [(["--graph", name], None) for name in SNF_PIN_GRAPHS]
        matrices = snf_pin_matrices() + padic_pin_matrices()
        sources += [(["--matrix", "-"], format_matrix(m)) for m in matrices]
        commands = [["profile", "--prime", "2", "--prime", "3", "--prime", "5", "--prime", "7"]]
        commands += [["filtration", "--prime", str(p)] for p in (2, 3, 5, 7)]
        digest = hashlib.sha256()
        for src, stdin in sources:
            for command in commands:
                for fmt in ("text", "json"):
                    if stdin is not None:
                        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
                    code = main([*command, *src, "--format", fmt])
                    digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == PADIC_SHA256

    def test_multi_prime(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["profile", "--graph", "petersen", "--prime", "2", "--prime", "5", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["profiles"][0] == {
            "p": 2,
            "multiplicities": [5, 4],
            "kernel_rank": 1,
            "total_valuation": 4,
        }
        assert report["profiles"][1]["multiplicities"] == [6, 3]

    def test_non_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["profile", "--graph", "k3", "--prime", "4"])
        assert code == 1
        assert "not a prime" in err

    def test_mersenne_61_prime(self, capsys):
        code, out, _ = run_cli(
            capsys, ["profile", "--graph", "petersen", "--prime", "2305843009213693951"]
        )
        assert code == 0
        assert out == "p=2305843009213693951 multiplicities=(9) kernel_rank=1 total_valuation=0\n"

    def test_prime_beyond_primality_test_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, ["profile", "--graph", "petersen", "--prime", "618970019642690137449562111"]
        )
        assert code == 1
        assert out == ""
        assert "no deterministic primality test for a 89-bit n" in err

    def test_prime_required(self, capsys):
        code, _, _ = run_cli(capsys, ["profile", "--graph", "k3"])
        assert code == 1


class TestFiltrationCommand:
    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 3\n5 0 0\n0 25 0\n0 0 0\n")
        code, out, _ = run_cli(
            capsys, ["filtration", "--matrix", str(path), "--prime", "5", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["dims_M"] == [3, 3, 2, 1, 1]
        assert report["dims_N"] == [0, 1, 2, 2, 2]
        assert report["kernel_dim"] == 1

    def test_graph_source(self, capsys):
        code, out, _ = run_cli(
            capsys, ["filtration", "--graph", "petersen", "--prime", "5", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_petersen_golden(self, capsys):
        # output of the lattice-chain implementation, byte for byte
        golden = {
            2: (
                "p=2 pass=True\n"
                "dims_M: 10 5 1 1 1 1\n"
                "dims_N: 5 9 9 9 9 9\n"
                "kernel_dim: 1\n",
                '{"dims_M": [10, 5, 1, 1, 1, 1], "dims_N": [5, 9, 9, 9, 9, 9], '
                '"kernel_dim": 1, "p": 2, "pass": true, "schema": 1, '
                '"source": "laplacian(petersen)"}\n',
            ),
            5: (
                "p=5 pass=True\n"
                "dims_M: 10 4 1 1 1\n"
                "dims_N: 6 9 9 9 9\n"
                "kernel_dim: 1\n",
                '{"dims_M": [10, 4, 1, 1, 1], "dims_N": [6, 9, 9, 9, 9], '
                '"kernel_dim": 1, "p": 5, "pass": true, "schema": 1, '
                '"source": "laplacian(petersen)"}\n',
            ),
        }
        for p, (text, js) in golden.items():
            argv = ["filtration", "--graph", "petersen", "--prime", str(p)]
            assert run_cli(capsys, argv) == (0, text, "")
            assert run_cli(capsys, argv + ["--format", "json"]) == (0, js, "")

    def test_failed_identities_exit_2(self, capsys, monkeypatch):
        # a rank profile that finds nothing breaks the N chain's identity;
        # the report is still printed, with pass false and the counted M chain
        monkeypatch.setattr(
            "critlab.filtration._rank_profile_mod_p", lambda rows, p: [0] * (len(rows) + 1)
        )
        argv = ["filtration", "--graph", "petersen", "--prime", "5"]
        text = "p=5 pass=False\ndims_M: 10 4 1 1 1\ndims_N: 0 0 0 0 0\nkernel_dim: 1\n"
        assert run_cli(capsys, argv) == (2, text, "")
        code, out, err = run_cli(capsys, argv + ["--format", "json"])
        assert (code, err) == (2, "")
        assert json.loads(out)["pass"] is False


class TestSandpileCommand:
    def test_k3(self, capsys):
        code, out, _ = run_cli(capsys, ["sandpile", "--graph", "k3", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["recurrent_count"] == 3
        assert report["invariant_factors"] == [3]
        assert report["matches_snf"] is True

    def test_size_guard_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["sandpile", "--graph", "hosi"])
        assert code == 1

    def test_configuration_guard_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["sandpile", "--graph", "k16"])
        assert (code, out) == (1, "")
        assert "stable configurations exceeds guard" in err


class TestMooreAnalyze:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(
            capsys, ["moore", "analyze", "--params", "3250,57,0,1", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["divisor_bound"] == [2, 5, 13, 25, 125]
        assert report["forced"] == {"2": 1728, "13": 1519}
        assert report["order_factored"] == {"2": 1728, "5": 4975, "13": 1519}

    def test_prime_5_families(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moore", "analyze", "--params", "3250,57,0,1", "--prime", "5", "--format", "json"],
        )
        assert code == 0
        fams = json.loads(out)["families"]["5"]
        assert len(fams) == 2
        assert fams[0]["e_of_rank"] == ["1520 - e0", "1732 - e0", "e0 - 3"]
        assert fams[1]["e_of_rank"] == ["1521 - e0", "1730 - e0", "e0 - 2"]

    def test_text_output_mentions_identity(self, capsys):
        code, out, _ = run_cli(capsys, ["moore", "analyze", "--params", "50,7,0,1"])
        assert code == 0
        assert "(L - 15I)L = -50I + 1J" in out

    def test_complete_graph_order_is_cayleys(self, capsys):
        # K4: the adjacency eigenvalue of multiplicity 0 adds no prime 3
        code, out, _ = run_cli(capsys, ["moore", "analyze", "--params", "4,3,2,3"])
        assert code == 0
        assert "order: 2^4\n" in out
        assert "forced multiplicities: (none)\n" in out

    def test_infeasible_params_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["moore", "analyze", "--params", "10,3,1,1"])
        assert (code, out) == (2, "")
        assert err.startswith("critlab: counting identity fails for SrgParams(v=10, k=3")

    def test_mu_0_exits_1(self, capsys):
        # 2K3 is a real graph, so this is a usage error, not an infeasibility
        code, out, err = run_cli(capsys, ["moore", "analyze", "--params", "6,2,1,0"])
        assert (code, out) == (1, "")
        assert "needs mu >= 1" in err

    def test_bad_params_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, ["moore", "analyze", "--params", "1,2,3"])
        assert code == 1


# (argv, what the one stderr line must say); every one exits 1 with no stdout
USAGE_ERRORS = [
    (["critgroup"], "one of the arguments --graph --edges is required"),
    (["snf", "--format", "json"], "one of the arguments --graph --edges --matrix is required"),
    (["critgroup", "--graph", "k3", "--edges", "-"], "argument --edges: not allowed with argument --graph"),
    (["snf", "--matrix", "-", "--graph", "k3"], "argument --graph: not allowed with argument --matrix"),
    (["critgroup", "--graph", ""], "unknown graph name ''"),
    (["snf", "--matrix", ""], "No such file or directory: ''"),
    (["profile", "--graph", "k3", "--prime", "4"], "argument --prime: 4 is not a prime"),
    (["filtration", "--graph", "k3", "--prime", "five"], "argument --prime: invalid literal for int()"),
    (
        ["profile", "--graph", "k3", "--prime", "618970019642690137449562111"],
        "argument --prime: no deterministic primality test for a 89-bit n",
    ),
    (["moore", "analyze", "--params", "50,7,0,1", "--prime", "1"], "argument --prime: 1 is not a prime"),
    (["profile", "--graph", "k3"], "the following arguments are required: --prime"),
    (["filtration", "--graph", "k3", "--prime", "2", "--prime", "3"], "filtration needs exactly one --prime"),
    (["moore", "analyze", "--params", "1,2,3"], "argument --params: expected four integers v,k,lambda,mu"),
    (["moore", "analyze", "--params", "a,b,c,d"], "argument --params: expected four integers v,k,lambda,mu"),
    (["moore", "analyze", "--prime", "5"], "the following arguments are required: --params"),
    # an open existence question is an input error, not a contradiction
    (["critgroup", "--graph", "moore57"], "error: existence of a Moore graph of valency 57 is an open problem"),
    # checked before the source is loaded
    (["filtration", "--matrix", "", "--prime", "2", "--prime", "3"], "filtration needs exactly one --prime"),
    # builtin names over 1,000,000 edges, refused before any graph is built:
    # N(N-1)/2 edges for kN, N for cN, N - 1 for pN
    (["graph", "info", "--graph", "k1415"], "has 1000405 edges; builtin graphs are limited to 1000000 edges"),
    (["critgroup", "--graph", "k100000"], "has 4999950000 edges; builtin graphs are limited to 1000000 edges"),
    (["graph", "info", "--graph", "c1000001"], "has 1000001 edges; builtin graphs are limited to 1000000 edges"),
    (["graph", "info", "--graph", "p1000002"], "has 1000001 edges; builtin graphs are limited to 1000000 edges"),
]


class TestUsage:
    @pytest.mark.parametrize("argv,message", USAGE_ERRORS)
    def test_usage_errors_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert message in err

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_graph_info(self, capsys):
        code, out, _ = run_cli(capsys, ["graph", "info", "--graph", "hosi", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert (report["n"], report["m"]) == (50, 175)
        assert report["regular"] is True

    def test_largest_complete_graph_under_the_edge_limit(self, capsys):
        code, out, _ = run_cli(capsys, ["graph", "info", "--graph", "k1414", "--format", "json"])
        assert code == 0
        assert json.loads(out)["m"] == 998_991


class TestModuleEntryPoint:
    """``python -m critlab`` from a checkout, with only src on the path."""

    @staticmethod
    def run_module(*argv):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run(
            [sys.executable, "-m", "critlab", *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_same_output_as_main(self, capsys):
        argv = ["profile", "--graph", "petersen", "--prime", "2", "--prime", "5"]
        done = self.run_module(*argv)
        assert (done.returncode, done.stdout) == run_cli(capsys, argv)[:2]
        assert done.stdout.startswith("p=2 multiplicities=(5,4)")

    def test_exit_code(self):
        done = self.run_module("profile", "--graph", "petersen", "--prime", "4")
        assert done.returncode == 1
        assert "not a prime" in done.stderr


class TestRepeatedCalls:
    """main() builds its parser once per process; no call may leak into the next."""

    def test_parser_is_reused(self):
        assert build_parser() is build_parser()

    def test_repeated_option_does_not_accumulate(self, capsys):
        base = ["profile", "--graph", "petersen", "--format", "json"]
        code, out, _ = run_cli(capsys, base + ["--prime", "2", "--prime", "3"])
        assert code == 0
        assert [prof["p"] for prof in json.loads(out)["profiles"]] == [2, 3]
        code, out, _ = run_cli(capsys, base + ["--prime", "5"])
        assert code == 0
        assert [prof["p"] for prof in json.loads(out)["profiles"]] == [5]

    def test_usage_error_leaves_next_call_unchanged(self, capsys):
        argv = ["filtration", "--graph", "petersen", "--prime", "5"]
        build_parser.cache_clear()
        _, fresh, _ = run_cli(capsys, argv)
        code, out, err = run_cli(capsys, ["filtration", "--graph", "petersen", "--prime", "five"])
        assert (code, out) == (1, "")
        assert "argument --prime: invalid literal for int()" in err
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == fresh


def _readme_examples():
    """(argv, expected stdout) for each ``$ critlab ...`` line in a README
    code block; the expected output is the block's lines up to the next
    ``$`` line or the end of the block."""
    examples = []
    in_block, current = False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "critlab"
            current = []
            examples.append((argv[1:], current))
        elif in_block and current is not None:
            current.append(line + "\n")
    return [(argv, "".join(out)) for argv, out in examples]


class TestReadmeExamples:
    def test_outputs_match_byte_for_byte(self, capsys):
        examples = _readme_examples()
        assert examples
        for argv, expected in examples:
            code, out, _ = run_cli(capsys, argv)
            assert code == 0, argv
            assert out == expected, argv
