#!/usr/bin/env python3
"""owse benchmark: two seeded, offline workloads over the code in ``src``.

    python3 perfbench/run.py --workload web_memory --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``. Lines above it name further figures with
their units. Scratch files live under ``.perfbench/`` and are removed at
the end; the spans of the last traced operation are kept in
``.perfbench/traces/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("web_memory", "web_http")


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def run_one(args, spec: dict) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    from procs import Children
    from tracing import Tracer

    signal.signal(signal.SIGTERM, _stop)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    out = workloads.Outcome()
    try:
        with Children(ROOT) as children:
            ctx = workloads.Ctx(ROOT, work, args.seed, args.seconds, tracer, children)
            getattr(workloads, args.workload)(ctx, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-{args.seed}.jsonl")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    # A layer a workload does not reach reads 0; an end-to-end metric must be measured.
    missing = [m["name"] for m in declared if m["name"] not in out.metrics]
    if missing and not args.trace:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    metrics = {m["name"]: {"value": float(out.metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, value, unit, note in out.details:
        print(f"  {name:<40} {value:>16.6f} {unit:<6} {note}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'error_rate':<40} {out.failed / max(out.attempted, 1):>16.6f} ratio  {out.failed}/{out.attempted}")
    for problem in out.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "owse" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from an owse checkout; {ROOT / 'src' / 'owse'} or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run_all(args) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
