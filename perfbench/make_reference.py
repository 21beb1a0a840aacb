"""Regenerate the committed reference counts of a workload shape.

    python3 perfbench/make_reference.py ref            # 320 slices, ~3 min
    python3 perfbench/make_reference.py detect-heavy   # 80 slices, ~4 min

Runs slices 0..n-1 of the workload's campaign at ``REFERENCE_SEED`` through
the ``ber`` CLI entry and writes ``reference/<shape>.json``.  Only rerun it
when the model is meant to change; the benchmark's drift metric exists to
show when counts move without that intent.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from bench import OUT_DIR, import_atomris, run_slice
from workloads import (
    REFERENCE_DIR,
    REFERENCE_SEED,
    WORKLOADS,
    Reference,
    Workload,
    design_effect,
)

# About eight times the slices a run makes today, so a faster program still
# finds reference counts for every slice it runs.
SLICES = {"ref": 320, "detect-heavy": 80}


def build(w: Workload, slices: int, source: str, seed: int = REFERENCE_SEED) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        counts = [run_slice(w, seed, r, 1, Path(tmp))[0] for r in range(slices)]
    ref = Reference(seed=seed, slices=counts, design_effect=design_effect(counts))
    return ref.to_json(w, source)


def _dumps(data: dict) -> str:
    """JSON with one line per key and per slice, so diffs stay readable."""
    head = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in data.items() if k != "slices"]
    rows = ",\n".join(f"  {json.dumps(s)}" for s in data["slices"])
    return "{\n" + "\n".join(head) + '\n "slices": [\n' + rows + "\n ]\n}\n"


def main(argv) -> int:
    atomris = import_atomris()
    for shape in argv or SLICES:
        w = next(w for w in WORKLOADS.values() if w.reference == shape and w.threads == 1)
        data = build(w, SLICES[shape], f"atomris {atomris.__version__}")
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / f"{shape}.json").write_text(_dumps(data))
        print(f"wrote {REFERENCE_DIR / f'{shape}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
