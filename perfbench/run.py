#!/usr/bin/env python3
"""End-to-end benchmark of the wavelet checkpoint stack.

Run from the repository root:

    python3 perfbench/run.py --workload ckpt-fig9 --seed 1 --seconds 20 --trace 0

Builds perfbench_driver (a Release build of the repository's libraries
plus the driver, in $CARGO_TARGET_DIR or .bench_build), runs one
workload, checks its outputs and prints its metrics. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
variant and reports the per-layer metrics, writing the span trace to
<build>/traces/. Exits nonzero on any failed or mismatched operation.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = ("ckpt-fig9", "svc-fig9-mixed")
PINNED_ENV = ("WCK_THREADS", "WCK_SIMD", "WCK_FAULT_PLAN")
DEADLINE_S = 175.0  # a run must end within 180 s
FIRST_BUILD_DEADLINE_S = 880.0  # the first run of a checkout also builds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_driver", "-j4"])
        for cmd in steps:
            # Build output goes to stderr: stdout's last line is the result.
            if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                raise SystemExit("perfbench: build failed")
    return build_dir / "perfbench_driver"


def finite(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        raise SystemExit(f"perfbench: refusing to run with {', '.join(pinned)} set; "
                         "they change the container written, the kernels run or inject faults")
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no repository sources at {root / 'src'}; "
                         "run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    first_build = not (build_dir / "perfbench_driver").exists()
    driver = build(root, build_dir)

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    work = build_dir / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record_path = build_dir / "runs" / f"{tag}.record.json"
    trace_path = build_dir / "traces" / f"{tag}.trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    # Relative to the repository root, the driver's working directory, so
    # the Unix socket path stays far below the 108-byte sun_path limit.
    socket = os.path.relpath(work / "sock", root)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--socket", socket, "--out", str(record_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    deadline = (FIRST_BUILD_DEADLINE_S if first_build else DEADLINE_S) - (time.monotonic() - started)
    try:
        rc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, timeout=max(deadline, 1.0)).returncode
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: driver did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        raise SystemExit(f"perfbench: driver exited with {rc}")

    record = json.loads(record_path.read_text())
    ops = metrics.parse_ops(record)
    attempted, failed = metrics.counts(record, ops)
    if args.trace:
        if record["replay_diverged"]:
            raise SystemExit("perfbench: layer replay diverged from the program's own output ("
                             f"{record['replay_diverged']}); refusing to report a layer split")
        values = metrics.per_layer(args.workload, record, json.loads(trace_path.read_text()))
        units = metrics.PER_LAYER_UNITS
    else:
        values = metrics.end_to_end(args.workload, record)
        units = metrics.END_TO_END_UNITS
        for warning in metrics.thin_tails(args.workload, record):
            log(f"warning: {warning}")
    for reason in record["failure_reasons"]:
        log(f"failure: {reason}")

    correct = failed == 0
    print("env: " + json.dumps(dict(record["env"], workload=args.workload, seed=args.seed,
                                    seconds=args.seconds, trace=args.trace)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
