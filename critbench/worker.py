"""One workload in a fresh interpreter: set-up, then whole rounds of operations.

Run by run.py, never by hand.  The clock for set-up starts at the first
statement below, before critlab is imported.  Each operation is a critlab
command called in-process through ``critlab.cli.main`` with stdin, stdout
and stderr swapped for in-memory text, under a per-operation time limit.
Rounds repeat while another round still fits in --seconds (at least one
runs).  The outputs go back to run.py, which checks them; this process
holds no reference answers, so its peak memory is critlab's.

The last line of stdout is one JSON object.  With --setup-only the worker
stops after set-up and reports only its set-up time.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _alarm(signum, frame):
    raise OpTimeout


def load_critlab():
    """Import critlab from this checkout's src/ and nowhere else."""
    os.environ.pop("CRITLAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import critlab
    import critlab.cli

    if not Path(critlab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"critlab was imported from {critlab.__file__}, not {SRC}")
    return critlab


def run_op(cli, op, limit: float):
    """(exit code or None on time-out, seconds, stdout, stderr) of one operation."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                rc = cli.main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        rc = None
    finally:
        sys.stdin = saved_stdin
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--limit", type=float, required=True)
    ap.add_argument("--picks", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    critlab = load_critlab()
    sys.path.insert(0, str(HERE))
    import inputs

    ops = inputs.workload_ops(args.workload, args.seed, [int(x) for x in args.picks.split(",") if x])
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(critlab)
    cli = critlab.cli
    signal.signal(signal.SIGALRM, _alarm)

    rounds = []
    started = time.perf_counter()
    while True:
        results, spans = [], []
        t = time.perf_counter()
        for op in ops:
            rc, dt, out, err = run_op(cli, op, args.limit)
            results.append([rc, dt, out, err[-500:]])
            if tracer is not None:
                # a timed-out operation's spans stop at an arbitrary point: drop them
                op_spans = tracer.take()
                spans.append(op_spans if rc is not None else {})
        batch_s = time.perf_counter() - t
        rounds.append({"batch_s": batch_s, "ops": results, "spans": spans})
        if time.perf_counter() - started + batch_s > args.seconds:
            break

    print(json.dumps({
        "setup_s": setup_s,
        "labels": [op.label for op in ops],
        "rounds": rounds,
        "layers": tracer.layers if tracer else [],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
