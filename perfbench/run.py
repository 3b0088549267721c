"""Benchmark of the seqlab command line, driven in-process.

Run from the root of a seqlab checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run builds the workload's operations from the seed, then calls
seqlab.cli.main on them one at a time (a closed loop with one caller),
repeating the whole list for --seconds seconds. Every output is checked.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per layer with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import Tracer
from workloads import WORKLOADS

OUT = Path("perfbench") / "out"  # generated inputs and traces, under the checkout

# a wrong value, or text too malformed to parse
MALFORMED = (checks.Wrong, ValueError, IndexError, KeyError)


def load_cli(root: Path):
    src = root / "src"
    if not (src / "seqlab" / "cli.py").is_file():
        sys.exit(f"error: no seqlab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import seqlab.cli

    if Path(seqlab.cli.__file__).resolve().parent != (src / "seqlab").resolve():
        sys.exit(f"error: imported seqlab from {seqlab.cli.__file__}, not from {src}")
    return seqlab.cli


def import_seconds(src: Path) -> float:
    """Time for a fresh interpreter to import seqlab.cli."""
    code = "import time; t = time.perf_counter(); import seqlab.cli; print(time.perf_counter() - t)"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def call(cli, argv: list[str]):
    """One CLI invocation: (exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a failing operation is counted, the run goes on
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


class Tally:
    def __init__(self, corrupt_index: int):
        self.attempted = self.failed = self.wrong = self.out_bytes = 0
        self.corrupt_index = corrupt_index
        self.sample = None  # output of the op the self-test corrupts
        self.checked: dict[int, bytes] = {}  # digest of each op's last output that passed
        self.reported: set[str] = set()

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if label not in self.reported:
            self.reported.add(label)
            print(f"FAILED {label}: {why[:300]}", file=sys.stderr)


def run_round(cli, ops, tally: Tally, tracer: Tracer | None = None) -> list[float]:
    """Run every operation once; returns the wall time of each."""
    times = []
    for i, op in enumerate(ops):
        gc.collect()
        t = time.perf_counter()
        rc, out, err = tracer.op(op.label, call, cli, op.argv) if tracer else call(cli, op.argv)
        times.append(time.perf_counter() - t)
        tally.attempted += 1
        tally.out_bytes += len(out)
        if rc != 0:
            tally.fail(op.label, f"exit {rc}: {err.strip()}" if isinstance(rc, int) else rc)
            continue
        digest = hashlib.blake2b(out.encode()).digest()
        if tally.checked.get(i) != digest:  # outputs repeat; check each distinct one
            try:
                op.check(out)
                tally.checked[i] = digest
            except MALFORMED as exc:
                tally.wrong += 1
                tally.fail(op.label, f"wrong output: {exc}")
        if i == tally.corrupt_index:
            tally.sample = out
    return times


def repeat(seconds: float, body) -> None:
    """Call body at least once, and again while a call as long as the
    longest so far fits in the time."""
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        body()
        now = time.perf_counter()
        longest = max(longest, now - start)
        if now - t0 + longest > seconds:
            return


def self_test(workload, tally: Tally) -> bool:
    """Corrupt one value of one op's output; its check must reject it."""
    index, pattern = workload.corrupt
    label = workload.ops[index].label
    if tally.sample is None:
        print(f"self-test: no output of {label} to corrupt", file=sys.stderr)
        return False
    bad = checks.corrupt(tally.sample, pattern)
    if bad == tally.sample:
        print(f"self-test: nothing to corrupt in {label}", file=sys.stderr)
        return False
    try:
        workload.ops[index].check(bad)
    except MALFORMED as exc:
        print(f"self-test: corrupted {label} rejected ({exc})", file=sys.stderr)
        return True
    print(f"self-test: corrupted {label} passed its check", file=sys.stderr)
    return False


def run(args) -> dict:
    root = Path.cwd()
    cli = load_cli(root)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    tally = Tally(workload.corrupt[0])
    if args.trace:
        tracer = Tracer()
        plain, traced = [], []

        def body():
            # untraced and traced rounds alternate, so the overhead compares like with like
            plain.append(sum(run_round(cli, workload.ops, tally)))
            tracer.install()
            try:
                traced.append(sum(run_round(cli, workload.ops, tally, tracer)))
            finally:
                tracer.uninstall()

        repeat(args.seconds, body)
        k = len(traced)
        metrics = tracer.metrics(workload.doubling, k, tally.out_bytes / (2 * k),
                                 statistics.mean(traced), statistics.mean(plain))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}", metrics)
    else:
        src = root / "src"
        import_seconds(src)  # the first import may write bytecode caches
        setup, rounds = [], []

        def body():
            # imports are spread over the run, so a slow spell of the machine
            # touches few of them
            setup.extend(import_seconds(src) for _ in range(2))
            rounds.append(run_round(cli, workload.ops, tally))

        repeat(args.seconds, body)
        # each op's mean over rounds: the machine has slow spells of seconds, and
        # a mean moves smoothly with the share of rounds they touch, where a
        # median jumps between the slow and the fast time
        per_op = [statistics.mean(ts) for ts in zip(*rounds)]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (sum(per_op), "s"),
            "op_p50_s": (statistics.median(per_op), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    detected = self_test(workload, tally)
    return {
        "correct": tally.wrong == 0 and detected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; prints one table."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:34s} {m['value']:>14.6f} {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
