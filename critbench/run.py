"""critlab benchmark: three workloads, timed end to end and, traced, per layer.

Usage, from the root of a checkout:

    python3 critbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload, the three workloads run one after another.  Each runs
in fresh interpreters (critbench/worker.py): a few that only set up, for
setup_s, and one that runs whole rounds of critlab commands.  This process
never imports critlab.  It generates the same inputs, computes reference
answers with critbench/checker.py, checks every output, and prints every
metric with its unit; the last line of stdout is one JSON object.

See critbench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import inputs  # noqa: E402

# Per-operation time limit in seconds.  Each is several times the slowest
# operation that returns (Paley(53) critgroup about 9 s, the largest picked
# random graph about 0.2 s, K5xK5 filtration at 5 about 3.3 s), and far below
# the operations that never return in reasonable time (trial-division
# factoring of the roadmap graph's order, HoSi filtration at 5).  HoSi's
# filtration reaches its peak memory for level 2 after about 11 s; stopping
# it later than that keeps peak_rss_mb from depending on the machine's speed.
LIMITS = {"moore-srg": 60.0, "random-critgroup": 2.0, "filtration": 20.0}
SETUP_PROBES = 9  # set-up-only interpreters per run, besides the measured one
RUN_DEADLINE_S = 170  # the whole run, whatever the workload

# random-critgroup: pool graphs are picked to fit a ladder of trial-division
# costs (see checker.trial_division_cost), so every seed gives the same graded
# spread of factoring work.  Graphs whose cost is above FACTOR_CAP are never
# picked; on them critlab's factorize takes seconds to years.
FACTOR_CAP = 1 << 20
LADDER = [14 + 6 * j / 99 for j in range(100)]  # log2 of the target costs
POOL_CHUNK, POOL_MAX = 400, 4000
LADDER_TOLERANCE = 0.1  # bits


def pick_pool(seed: int) -> list[int]:
    """Indices of pool graphs whose factoring costs best fit LADDER."""
    prim = checker.primorial(FACTOR_CAP)
    costs: list[tuple[float, int]] = []
    size = 0
    while True:
        for i in range(size, size + POOL_CHUNK):
            n, edges = inputs.pool_graph(seed, i)
            cost = checker.trial_division_cost(checker.tree_count(n, edges), FACTOR_CAP, prim)
            if cost is not None:
                costs.append((math.log2(cost), i))
        size += POOL_CHUNK
        picks, worst = _fit(LADDER, costs)
        if worst <= LADDER_TOLERANCE or size >= POOL_MAX:
            return picks


def _fit(targets, costs):
    free = sorted(costs)
    picks, worst = [], 0.0
    for t in targets:
        k = min(range(len(free)), key=lambda j: abs(free[j][0] - t))
        worst = max(worst, abs(free[k][0] - t))
        picks.append(free.pop(k)[1])
    return picks, worst


# -- reference answers and checks ------------------------------------------------


class References:
    """Reference answers, computed once per graph or matrix."""

    def __init__(self):
        self._graphs = {}

    def graph(self, meta) -> dict:
        key = (meta["graph"], meta["n"], tuple(sorted(meta["edges"])))
        if key not in self._graphs:
            n, edges = meta["n"], meta["edges"]
            lap = inputs.laplacian(n, edges)
            self._graphs[key] = {"n": n, "lap": lap, "order": checker.tree_count(n, edges),
                                 "ranks": {}}
        return self._graphs[key]

    def rank(self, ref: dict, p: int) -> int:
        if p not in ref["ranks"]:
            ref["ranks"][p] = checker.rank_mod(ref["lap"], p)
        return ref["ranks"][p]


def check_op(refs: References, meta: dict, rep: dict, measured: dict) -> list[str]:
    kind = meta["kind"]
    if kind == "analyze":
        params = meta["params"]
        order = checker.srg_order(*params)
        profiles = {}
        if meta["graph"] is not None:
            if refs.graph(meta)["order"] != order:
                raise AssertionError(f"{meta['graph']} is not an SRG{params}")
            profiles = {p: m for (g, p), m in measured.items() if g == meta["graph"]}
        bad = checker.check_analyze(rep, params, order, profiles)
        if params == (3250, 57, 0, 1):
            bad += checker.check_moore57(rep)
        return bad
    if kind == "filtration" and meta["graph"] is None:
        rows, p = meta["rows"], meta["p"]
        cols = len(rows[0])
        square = len(rows) == cols
        val = checker.valuation(checker.det(rows), p) if square else None
        return checker.check_filtration(rep, cols, checker.rank_mod(rows, p),
                                        cols - checker.rank_q(rows), val)
    ref = refs.graph(meta)
    n, order = ref["n"], ref["order"]
    if kind == "critgroup":
        return checker.check_critgroup(rep, n, order, refs.rank(ref, 2))
    p = meta["p"]
    if kind == "profile":
        return checker.check_profile(rep, n, order, {p: refs.rank(ref, p)})
    if kind == "filtration":
        return checker.check_filtration(rep, n, refs.rank(ref, p), 1, checker.valuation(order, p))
    raise ValueError(f"unknown operation kind {kind!r}")


def check_round(refs, ops, results) -> tuple[list[str | None], list[dict | None]]:
    """Per operation: None if it passed, else why it failed; and its parsed report."""
    reports = []
    for op, (rc, _dt, out, _err) in zip(ops, results):
        try:
            reports.append(json.loads(out) if rc == 0 else None)
        except json.JSONDecodeError:
            reports.append(None)
    # profiles measured in this round, for the family-membership check of analyze
    measured = {}
    for op, rep in zip(ops, reports):
        if op.meta["kind"] == "profile" and rep is not None:
            try:
                measured[op.meta["graph"], op.meta["p"]] = rep["profiles"][0]["multiplicities"]
            except (KeyError, IndexError, TypeError):
                pass  # the profile operation's own check reports it
    verdicts = []
    for op, (rc, _dt, out, err), rep in zip(ops, results, reports):
        if rc is None:
            verdicts.append("time limit")
        elif rc != 0:
            verdicts.append(f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}")
        elif rep is None:
            verdicts.append("wrong output: not JSON")
        else:
            try:
                bad = check_op(refs, op.meta, rep, measured)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                bad = [f"malformed report ({exc!r})"]
            verdicts.append("wrong output: " + "; ".join(bad) if bad else None)
    return verdicts, reports


# -- running a workload ------------------------------------------------------------


def _worker(workload, seed, seconds, limit, picks, trace, setup_only, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--limit", str(limit), "--trace", str(trace),
           "--picks", ",".join(map(str, picks))]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k not in ("CRITLAB_THREADS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: int, metric_names) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    picks = pick_pool(seed) if workload == "random-critgroup" else []
    limit = LIMITS[workload]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(workload, seed, seconds, limit, picks, 0, True, deadline)["setup_s"])
    res = _worker(workload, seed, seconds, limit, picks, trace, False, deadline)
    setups.append(res["setup_s"])

    ops = inputs.workload_ops(workload, seed, picks)
    if [op.label for op in ops] != res["labels"]:
        raise RuntimeError("the worker ran other operations than the ones checked here")
    refs = References()
    times, failures, wrong, levels = [], Counter(), 0, []
    for rnd in res["rounds"]:
        verdicts, reports = check_round(refs, ops, rnd["ops"])
        levels.append(sum(len(rep["dims_M"]) for op, rep, v in zip(ops, reports, verdicts)
                          if v is None and op.meta["kind"] == "filtration"))
        for op, (_rc, dt, _o, _e), verdict in zip(ops, rnd["ops"], verdicts):
            times.append(math.inf if verdict else dt)
            if verdict:
                failures[f"{op.label}: {verdict}"] += 1
                wrong += verdict.startswith("wrong output")
    rounds = len(res["rounds"])
    times.sort()
    batch = statistics.median(r["batch_s"] for r in res["rounds"])
    if trace:
        metrics = layer_metrics(res, metric_names, levels)
        write_trace(workload, seed, res, ops, batch, metrics)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "batch_s": (batch, "s"),
            "op_s.p50": (nearest_rank(times, 0.5), "s"),
            "op_s.p90": (nearest_rank(times, 0.9), "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        }
    return {
        "workload": workload,
        "correct": wrong == 0,
        "attempted": len(times),
        "failed": sum(failures.values()),
        "rounds": rounds,
        "failures": failures,
        "metrics": {k: metrics[k] for k in metric_names if k in metrics},
    }


def layer_metrics(res, names, levels) -> dict:
    """Per-layer calls and self time per round, from the worker's spans."""
    rounds = len(res["rounds"])
    totals = {}
    for rnd in res["rounds"]:
        for op_spans in rnd["spans"]:
            for layer, (calls, self_s) in op_spans.items():
                agg = totals.setdefault(layer, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
    out = {}
    for name in names:
        if name == "filtration.levels":
            out[name] = (statistics.mean(levels), "count")
            continue
        layer, stat = name.rsplit(".", 1)
        calls, self_s = totals.get(layer, (0, 0.0))
        out[name] = (calls / rounds, "count") if stat == "calls" else (self_s / rounds, "s")
    return out


def write_trace(workload, seed, res, ops, batch, metrics) -> None:
    """Write the spans of the traced run: per operation and layer, first round."""
    out_dir = ROOT / ".critbench"
    out_dir.mkdir(exist_ok=True)
    first = res["rounds"][0]
    seen = set(res["layers"])
    doc = {
        "workload": workload,
        "seed": seed,
        "traced_batch_s": batch,
        "rounds": len(res["rounds"]),
        "absent": sorted({n.rsplit(".", 1)[0] for n in metrics if n != "filtration.levels"} - seen),
        "per_round": {k: v[0] for k, v in metrics.items()},
        "operations": [
            {"label": op.label, "spans": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(sp.items())}}
            for op, sp in zip(ops, first["spans"])
        ],
    }
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    # turn a termination request into SystemExit, so subprocess.run kills and
    # waits for the worker before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(LIMITS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results = []
    for w in workloads:
        try:
            r = run_workload(w, args.seed, args.seconds, args.trace, names)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"critbench: {w}: {exc}", file=sys.stderr)
            return 1
        results.append(r)
        print(f"== {w} (seed {args.seed}, {r['rounds']} rounds, {r['attempted']} operations, "
              f"{r['failed']} failed)")
        for name, (value, unit) in r["metrics"].items():
            print(f"{w} {name} {value:.6g} {unit}")
        for what, count in sorted(r["failures"].items()):
            print(f"  failed x{count}: {what}", file=sys.stderr)

    metrics = {}
    for r in results:
        prefix = "" if args.workload else r["workload"] + "."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
