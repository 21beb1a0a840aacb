"""atomris benchmark: seeded BER campaigns through the ``ber`` CLI entry.

    python3 perfbench/run.py --workload ref-1w --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (trials_per_s, setup_s,
peak_rss_mb; failed_frac is the result's failed/attempted); ``--trace 1``
prints the per-layer metrics of a traced replay.  Every metric is printed
by name with its unit, then machine facts, then one JSON result line.

This script imports neither numpy nor atomris: each measurement runs in a
fresh interpreter (``bench.py``), so set-up is timed from a cold start and
the measured process's peak memory is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# Fresh processes timed for setup_s besides the measuring one; the median is reported.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def _worker(role: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{role} process timed out after {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _measure(args) -> dict:
    """Set-up probes, then the measuring process; setup_s is the median of all."""
    setup = []
    for _ in range(SETUP_PROBES):
        res = _worker("setup", args)
        if "setup_s" not in res:  # set-up failed; res says why
            return res
        setup.append(res["setup_s"])
    res = _worker("measure", args)
    if "setup_s" in res:
        res["metrics"]["setup_s"]["value"] = statistics.median(setup + [res["setup_s"]])
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="atomris BER-campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if w.threads > (os.cpu_count() or 1):
        print(f"perfbench: {w.name} needs {w.threads} workers, "
              f"this machine has {os.cpu_count()} CPUs", file=sys.stderr)
        return 2

    try:
        res = _worker("trace", args) if args.trace else _measure(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    lines, correct = report(res, trace=bool(args.trace))
    for problem in res["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("\n".join(lines))
    return 0 if correct else 1


def report(res: dict, trace: bool) -> tuple[list[str], bool]:
    """Human-readable metric lines, machine facts, then the JSON result line."""
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in res["metrics"].items()]
    if "trials_per_s_wall" in res:
        lines.append(f"trials_per_s_wall {res['trials_per_s_wall']:.6g} 1/s (not speed-scaled)")
    if not trace:
        lines.append(f"failed_frac {res['failed'] / res['attempted']:.6g} frac "
                     f"({res['failed']} of {res['attempted']} cells)")
    lines.append("machine " + json.dumps(res["machine"], sort_keys=True))
    correct = res["failed"] == 0 and not res["problems"]
    lines.append(json.dumps({"correct": correct, "attempted": res["attempted"],
                             "failed": res["failed"], "metrics": res["metrics"]}))
    return lines, correct


if __name__ == "__main__":
    sys.exit(main())
