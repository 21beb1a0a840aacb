"""Workload definitions, committed reference counts and the output check.

Pure Python (no numpy, no atomris), so the entry script can validate its
arguments before it starts any measuring process.

A run of a workload is one seeded BER campaign cut into *slices*: each
slice is one ``ber`` call over a group of ``points_per_slice`` grid points
and ``trials_per_slice`` trials, with ``master_seed = seed``.  Slice r
covers point group ``r % groups`` and trials from ``(r // groups) *
trials_per_slice``, so consecutive slices go round the grid.  Per-trial
seeds depend only on (master seed, Eb/N0, absolute trial index) and every
point stops on its own, so the slices of a run are disjoint parts of one
campaign and their counts add exactly.  The reference for a workload holds
the per-slice counts of that campaign at ``REFERENCE_SEED``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 2024
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DETECTORS = ("proposed", "exhaustive", "zf_genie")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int
    ris_elements: int
    users: int
    pam_order: int
    grid: tuple[float, ...]
    points_per_slice: int
    trials_per_slice: int
    symbols_per_trial: int
    error_target: int | None
    threads: int
    reference: str  # reference counts file, also the speed probe's kind

    @property
    def bits_per_trial(self) -> int:
        return self.users * int(math.log2(self.pam_order)) * self.symbols_per_trial

    @property
    def groups(self) -> int:
        """Point groups per round of the grid."""
        return len(self.grid) // self.points_per_slice

    def slice_grid(self, index: int) -> tuple[float, ...]:
        g = index % self.groups
        return self.grid[g * self.points_per_slice:(g + 1) * self.points_per_slice]

    def config_text(self, seed: int, index: int = 0) -> str:
        """INI text of slice ``index``."""
        target = "none" if self.error_target is None else str(self.error_target)
        return (
            "[system]\n"
            f"cells = {self.cells}\n"
            f"ris_elements = {self.ris_elements}\n"
            f"users = {self.users}\n"
            f"pam_order = {self.pam_order}\n"
            "\n[sim]\n"
            f"eb_n0_grid_db = {','.join(repr(float(x)) for x in self.slice_grid(index))}\n"
            f"trials_per_point = {self.trials_per_slice}\n"
            f"symbols_per_trial = {self.symbols_per_trial}\n"
            f"detectors = {','.join(DETECTORS)}\n"
            f"master_seed = {seed}\n"
            f"error_target = {target}\n"
            f"trial_offset = {index // self.groups * self.trials_per_slice}\n"
        )


# Slices are kept short (well under a second on the ref shape) because each
# round of the grid is bracketed by speed probes; see bench.SpeedProbe.
_REF_SHAPE = dict(cells=36, ris_elements=150, users=3, pam_order=4,
                  grid=(-30.0, -28.0, -26.0, -24.0, -22.0), points_per_slice=5,
                  trials_per_slice=8, symbols_per_trial=100, error_target=None,
                  reference="ref")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="ref-1w", threads=1, **_REF_SHAPE),
        Workload(name="ref-2w", threads=2, **_REF_SHAPE),
        Workload(
            name="detect-heavy",
            cells=16, ris_elements=150, users=8, pam_order=4,
            # Two trial batches of 8 per point.  -27 and -24 dB pass 200 errors
            # in every detector within the first batch (>500 even in bad
            # batches), -18 and -15 dB stay far below it and hit the cap.  At
            # -21 dB the stop falls on either batch or the cap depending on
            # the seed, which the trial-cap check cannot tell from a fault.
            grid=(-27.0, -24.0, -18.0, -15.0), points_per_slice=1, trials_per_slice=16,
            symbols_per_trial=100, error_target=200, threads=1,
            reference="detect-heavy",
        ),
    )
}

# Counts keyed by (eb_n0_db, detector) -> (bits_sent, bit_errors).
Counts = dict
BITS, ERRORS = 0, 1


def parse_csv(text: str) -> Counts:
    """Read the ``ber`` CSV into counts; the header must be the documented one."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "eb_n0_db,detector,bits_sent,bit_errors,ber,ci_halfwidth":
        raise ValueError("unexpected CSV header")
    out: Counts = {}
    for line in lines[1:]:
        db, det, bits, errors, _ber, _hw = line.split(",")
        out[(float(db), det)] = (int(bits), int(errors))
    return out


def merge(counts: list[Counts]) -> Counts:
    out: Counts = {}
    for c in counts:
        for key, (bits, errors) in c.items():
            b0, e0 = out.get(key, (0, 0))
            out[key] = (b0 + bits, e0 + errors)
    return out


def trials_in(counts: Counts, w: Workload) -> int:
    """Trials the records reflect: bits_sent / bits per trial, summed over points
    (every detector of a point sees the same trials)."""
    per_point = {db: bits for (db, _det), (bits, _e) in counts.items()}
    return sum(per_point.values()) // w.bits_per_trial


def halfwidth(bits: int, errors: int) -> float:
    """3-sigma Wald half-width, as in the campaign CSV."""
    if bits == 0:
        return 0.0
    p = errors / bits
    return 3.0 * math.sqrt(p * (1.0 - p) / bits)


@dataclass
class Reference:
    seed: int
    slices: list[Counts]
    design_effect: dict

    @classmethod
    def load(cls, w: Workload) -> "Reference":
        return cls.from_json(json.loads((REFERENCE_DIR / f"{w.reference}.json").read_text()))

    @classmethod
    def from_json(cls, data: dict) -> "Reference":
        dets = data["detectors"]
        slices = [{(float(db), det): (bits, errors)
                   for db, bits, *errs in s for det, errors in zip(dets, errs)}
                  for s in data["slices"]]
        deff = {(float(db), det): d for db, det, d in data["design_effect"]}
        return cls(seed=data["seed"], slices=slices, design_effect=deff)

    def to_json(self, w: Workload, source: str) -> dict:
        """Each slice row is [eb_n0_db, bits_sent, errors per detector]: every
        detector of a point sees the same trials, so bits_sent is shared."""
        rows = []
        for s in self.slices:
            points = sorted({db for db, _det in s})
            if any(s[(db, det)][0] != s[(db, DETECTORS[0])][0] for db in points for det in DETECTORS):
                raise ValueError("detectors of one point saw different trials")
            rows.append([[db, s[(db, DETECTORS[0])][0], *(s[(db, det)][1] for det in DETECTORS)]
                         for db in points])
        return {
            "workload_shape": w.reference,
            "seed": self.seed,
            "points_per_slice": w.points_per_slice,
            "trials_per_slice": w.trials_per_slice,
            "source": source,
            "detectors": list(DETECTORS),
            "design_effect": [[db, det, d] for (db, det), d in sorted(self.design_effect.items())],
            "slices": rows,
        }


def design_effect(slices: list[Counts]) -> dict:
    """Per-cell variance of the slice BERs over the binomial variance.

    The vectors of one trial share a channel, so errors cluster by trial and
    the binomial (Wald) variance understates the true one.  The ratio is
    floored at 1 so the check is never tighter than plain Wald.
    """
    total = merge(slices)
    out = {}
    for key, (bits, errors) in total.items():
        p = errors / bits if bits else 0.0
        if p in (0.0, 1.0):
            out[key] = 1.0
            continue
        ratios = [(s[key][1] / s[key][0] - p) ** 2 * s[key][0] / (p * (1.0 - p))
                  for s in slices if key in s]
        out[key] = max(1.0, sum(ratios) / (len(ratios) - 1)) if len(ratios) > 1 else 1.0
    return out


@dataclass
class Check:
    attempted: int
    failed_cells: set
    problems: list[str]


def fixed_stops(ref: Reference) -> set:
    """Cells whose ``bits_sent`` is the same in every reference slice: points
    that always hit the trial cap, and points that always stop on the error
    target after the same batch (detect-heavy's -27 and -24 dB pass 200
    errors in the first batch with more than 500 in every reference slice).
    A run must match them at any seed."""
    seen: dict = {}
    for s in ref.slices:
        for key, (bits, _e) in s.items():
            seen.setdefault(key, set()).add(bits)
    return {key for key, bits in seen.items() if len(bits) == 1}


def check_run(w: Workload, run_slices: list[Counts], ref: Reference) -> Check:
    """Correctness of a run's slices against the reference.

    A cell is one (Eb/N0, detector) pair of the campaign.  It fails when
    no slice covers it, when a slice is missing it, when ``bits_sent``
    differs from the reference where the reference slice stopped at the
    trial cap or where the reference stops after the same trials in every
    slice (``fixed_stops``), or when the merged BER lies outside the sum of
    the run's and the reference's 3-sigma Wald half-widths (each widened by
    the reference's measured design effect), the reference being merged
    over as many slices as the run so both sides have the same size.
    """
    cells = [(db, det) for db in w.grid for det in DETECTORS]
    problems = []
    failed = set()
    cap_bits = w.trials_per_slice * w.bits_per_trial
    fixed = fixed_stops(ref)
    for r, got in enumerate(run_slices):
        for key in ref.slices[r]:
            if key not in got:
                failed.add(key)
                problems.append(f"slice {r}: no record for {key}")
                continue
            ref_bits = ref.slices[r][key][BITS]
            if (ref_bits == cap_bits or key in fixed) and got[key][BITS] != ref_bits:
                failed.add(key)
                where = "the trial cap" if ref_bits == cap_bits else "a stop the reference always makes"
                problems.append(f"slice {r} {key}: bits_sent {got[key][BITS]} != {ref_bits} at {where}")
    run_total = merge(run_slices)
    ref_total = merge(ref.slices[: len(run_slices)])
    for key in cells:
        if key in failed:
            continue
        if key not in run_total:
            failed.add(key)
            problems.append(f"{key}: no slice of the run covered it")
            continue
        (rb, re_), (fb, fe) = run_total[key], ref_total[key]
        band = math.sqrt(ref.design_effect[key]) * (halfwidth(rb, re_) + halfwidth(fb, fe))
        if abs(re_ / rb - fe / fb) > band:
            failed.add(key)
            problems.append(f"{key}: BER {re_ / rb:.4g} vs reference {fe / fb:.4g} "
                            f"outside band {band:.3g}")
    return Check(attempted=len(cells), failed_cells=failed, problems=problems)


def mismatched(got: Counts, expected: Counts, field: int) -> set:
    """Cells whose ``field`` (BITS or ERRORS) differs from the expected counts.

    At the reference seed, differing ``bits_sent`` means a point ran other
    trials than the reference (a fault); differing ``bit_errors`` alone is
    floating-point drift, which is reported, not failed.
    """
    return {key for key, counts in expected.items() if got.get(key, (-1, -1))[field] != counts[field]}
