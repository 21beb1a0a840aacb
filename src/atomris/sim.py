"""Seeded Monte-Carlo BER campaigns and convergence experiments.

Campaign structure: for each Eb/N0 grid point and each trial, a fresh
channel realization is drawn, the RIS phases are optimized once (the
optimizer runs on the LO-de-phased channels so the effective channel
aligns with the LO phase), and a block of random symbol vectors is
transmitted through the magnitude front end.  All enabled detectors see
identical observations, so detector comparisons are paired.

Every trial derives its own generator from
``SeedSequence(master_seed, spawn_key=(point_key, trial_index))`` where
``point_key`` is the bit pattern of the Eb/N0 value (-0.0 keyed as 0.0).
Keying on the value rather than the grid position means splitting a grid
across runs, or (with no error target) the trials by ``trial_offset``,
and merging the records reproduces a single run exactly; this is how a
campaign is spread over processes.  Each fixed-size batch of trials
returns a batch record, its trials' bit errors per detector, and one pure
fold (``_fold_point``), the only code that knows the stop rule, adds a
point's records in batch order: the point stops after the first batch at
which every detector has reached the error target.

A campaign holds one batch of trials at a time.  A batch is a
three-stage pipeline: per trial, draw the channels, LO and starting
phases; align all of the batch's trials in one batched optimizer loop
over their factored operands (each trial's de-phased h_rv as a real
(M, 2N) matrix, and h_ur^T); per trial, compose, observe, detect and
count.  Each trial consumes its own generator in the same order as
``optimize_aligned_phases`` would, and the batched loop's rows equal
single-trial runs bit for bit, so which trials share a loop does not
change any output.

Only the first stage runs on worker threads (``run_ber``'s ``threads``):
each worker draws a contiguous share of the batch's trials.  The draw is
a few large ufuncs over (M, N, L) arrays, which release the GIL, and it
touches no BLAS; each trial's generator is used by one thread in its
usual order, so the outputs do not depend on the thread count.  Stages 2
and 3 stay on the calling thread: the Adam loop and the detectors are
many small numpy calls that hold the GIL, and threading them measured
slower than one thread.

The convergence experiment is the campaign's first trial aligned alone,
so its trace and phases are those of a trial the BER counts.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelSet,
    LOParams,
    PhysicalPathParams,
    effective_channel,
    gen_lo_vector,
    gen_physical_channel,
    gen_user_ris_channel,
)
from .detect import (
    detect_exhaustive_batch,
    detect_proposed_batch,
    detect_zf_batch,
    front_end,
)
from .errors import BudgetExceededError, ConfigError
from .modem import NoiseSpec, hamming_table, make_pam, noise_sigma
from .risopt import (
    AdamConfig,
    ConvergenceTrace,
    adam_optimize_batch,
    build_rank_one_cache,
    random_phases,
)

__all__ = [
    "SimConfig",
    "BerRecord",
    "DETECTOR_NAMES",
    "validate_config",
    "trial_seed",
    "draw_channels",
    "optimize_aligned_phases",
    "run_convergence",
    "run_ber",
    "merge_records",
    "records_to_csv",
    "write_records_csv",
]

# Each detector: the observation it reads (the magnitudes "z" or the complex
# "y") and its kernel (observation, h_eq, b, constellation, config) -> decisions.
_DETECTORS = {
    "proposed": ("z", lambda z, h_eq, b, c, cfg: detect_proposed_batch(z, h_eq, b, c)),
    "exhaustive": ("z", lambda z, h_eq, b, c, cfg: detect_exhaustive_batch(
        z, h_eq, b, c, cfg.exhaustive_budget)),
    "zf_genie": ("y", lambda y, h_eq, b, c, cfg: detect_zf_batch(y, h_eq, b, c)),
}
DETECTOR_NAMES = tuple(_DETECTORS)

# Trials are drawn, aligned together and checked against the error target
# in fixed-size batches; the size decides which trials run under an error
# target, so it is a constant.
_BATCH_SIZE = 8


@dataclass(frozen=True)
class SimConfig:
    """Full description of one campaign (dimensions, modulation, grid,
    channel/LO/optimizer parameters, seeding and stopping rules)."""

    num_cells: int = 36
    num_elements: int = 150
    num_users: int = 3
    mod_order: int = 4
    eb_n0_grid_db: tuple[float, ...] = (-40.0, -36.0, -32.0, -28.0)
    trials_per_point: int = 50
    symbols_per_trial: int = 100
    detectors: tuple[str, ...] = DETECTOR_NAMES
    channel: PhysicalPathParams = field(default_factory=PhysicalPathParams)
    lo: LOParams = field(default_factory=LOParams)
    adam: AdamConfig = field(default_factory=AdamConfig)
    master_seed: int = 0
    error_target: int | None = 200
    trial_offset: int = 0
    exhaustive_budget: int = 2**20


@dataclass(frozen=True)
class BerRecord:
    """Exact error counts for one (Eb/N0, detector) cell of a campaign."""

    eb_n0_db: float
    detector: str
    bits_sent: int
    bit_errors: int
    ber: float
    ci_halfwidth: float
    stop_reason: str = "trial_cap"


def _make_record(db: float, det: str, bits: int, errors: int, reason: str) -> BerRecord:
    """The record of ``errors`` in ``bits``, with its 3-sigma binomial half-width."""
    p = errors / bits if bits else 0.0
    halfwidth = 3.0 * math.sqrt(p * (1.0 - p) / bits) if bits else 0.0
    return BerRecord(db, det, bits, errors, p, halfwidth, reason)


def validate_config(cfg: SimConfig) -> None:
    """Reject inconsistent campaign configurations before any computation."""
    if cfg.num_cells < 1:
        raise ConfigError("num_cells must be >= 1")
    if cfg.num_elements < 0:
        raise ConfigError("num_elements must be >= 0")
    if cfg.num_users < 1:
        raise ConfigError("num_users must be >= 1")
    variance = cfg.channel.entry_variance
    if variance < sys.float_info.min:  # squares of such entries underflow
        raise ConfigError(f"section [channel]: entries have variance {variance:.3g}, below "
                          "the smallest normal float: coupling_gain or path_loss_span is "
                          "0 or too small")
    if cfg.num_users > cfg.num_cells:
        raise ConfigError(
            f"num_users ({cfg.num_users}) exceeds num_cells ({cfg.num_cells}); "
            "least-squares detection needs K <= M"
        )
    try:
        make_pam(cfg.mod_order)
    except ValueError as exc:
        raise ConfigError(f"mod_order: {exc}") from None
    if not cfg.eb_n0_grid_db:
        raise ConfigError("eb_n0_grid_db must be nonempty")
    for db in cfg.eb_n0_grid_db:  # nan, +-inf and |db| > ~3080 have no noise variance
        try:
            noise_sigma(db, cfg.mod_order)
        except ValueError as exc:
            raise ConfigError(f"eb_n0_grid_db: {exc}") from None
    if len(set(cfg.eb_n0_grid_db)) != len(cfg.eb_n0_grid_db):  # -0.0 == 0.0
        raise ConfigError(f"eb_n0_grid_db repeats a point: {cfg.eb_n0_grid_db}")
    if cfg.trials_per_point < 1:
        raise ConfigError("trials_per_point must be >= 1")
    if cfg.symbols_per_trial < 1:
        raise ConfigError("symbols_per_trial must be >= 1")
    if cfg.trial_offset < 0:
        raise ConfigError("trial_offset must be >= 0")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed (--seed) must be >= 0, got {cfg.master_seed}")
    unknown = set(cfg.detectors) - set(DETECTOR_NAMES)
    if unknown or not cfg.detectors:
        raise ConfigError(
            f"detectors must be a nonempty subset of {DETECTOR_NAMES}, got {cfg.detectors}"
        )
    if len(set(cfg.detectors)) != len(cfg.detectors):
        raise ConfigError(f"detectors repeats a name: {cfg.detectors}")
    if cfg.exhaustive_budget < 1:
        raise ConfigError(f"exhaustive_budget must be >= 1, got {cfg.exhaustive_budget}")
    if "exhaustive" in cfg.detectors:
        cost = cfg.mod_order**cfg.num_users
        if cost > cfg.exhaustive_budget:
            raise BudgetExceededError(
                f"exhaustive detector needs Q^K = {cfg.mod_order}^{cfg.num_users} "
                f"= {cost} candidates (budget {cfg.exhaustive_budget})"
            )
        if cost > np.iinfo(np.intp).max:  # the detector indexes candidates by intp
            raise ConfigError(
                f"[sim] exhaustive_budget {cfg.exhaustive_budget} admits Q^K = "
                f"{cfg.mod_order}^{cfg.num_users} = {cost} candidates, beyond numpy's "
                "index range"
            )
    if cfg.error_target is not None and cfg.error_target < 1:
        raise ConfigError("error_target must be >= 1 or None")
    # The largest array a trial shapes from each group of size fields: the
    # two channel draws, the batch's aligned operand, the observations and
    # the optimizer's traces.  numpy refuses a shape whose nonzero sizes
    # multiply past its index range, which would stop the first trial.
    m, n, k, paths = cfg.num_cells, cfg.num_elements, cfg.num_users, cfg.channel.num_paths
    batch = min(_BATCH_SIZE, cfg.trials_per_point)
    for fields, shape, itemsize in (
        ("[system] cells, ris_elements and [channel] paths", (m, n, paths), 16),
        ("[system] cells, users and [channel] paths", (m, k, paths), 16),
        ("[system] cells and ris_elements", (batch, m, 2 * n), 8),
        ("[system] cells and [sim] symbols_per_trial", (m, cfg.symbols_per_trial), 16),
        ("[adam] max_iters", (cfg.adam.max_iters, batch), 8),
    ):
        if itemsize * math.prod(d for d in shape if d) > np.iinfo(np.intp).max:
            raise ConfigError(f"{fields} too large: a trial would shape a {shape} "
                              "array, beyond numpy's index range")


def trial_seed(master_seed: int, eb_n0_db: float, trial_index: int) -> np.random.SeedSequence:
    """Splittable per-trial seed, keyed by the Eb/N0 bit pattern so grid
    partitions reproduce the trials of a single full run.  Adding 0.0 maps
    -0.0 to 0.0, which is the same grid point to the record merge."""
    point_key = int(np.float64(eb_n0_db + 0.0).view(np.uint64))
    return np.random.SeedSequence(master_seed, spawn_key=(point_key, trial_index))


def draw_channels(cfg: SimConfig, rng: np.random.Generator) -> ChannelSet:
    """One channel realization, in a fixed draw order (h_ur, h_rv, h_uv)."""
    m, n, k = cfg.num_cells, cfg.num_elements, cfg.num_users
    if n == 0:
        h_ur = np.zeros((0, k), dtype=complex)
        h_rv = np.zeros((m, 0), dtype=complex)
    else:
        h_ur = gen_user_ris_channel(k, n, rng)
        h_rv = gen_physical_channel(m, n, cfg.channel, rng)
    h_uv = gen_physical_channel(m, k, cfg.channel, rng)
    return ChannelSet(h_ur=h_ur, h_rv=h_rv, h_uv=h_uv)


def _draw_trial(cfg: SimConfig, eb_n0_db: float, t: int):
    """Trial ``t`` of grid point ``eb_n0_db``: its generator, channels and
    LO, drawn in the campaign's order."""
    rng = np.random.default_rng(trial_seed(cfg.master_seed, eb_n0_db, t))
    return rng, draw_channels(cfg, rng), gen_lo_vector(cfg.num_cells, cfg.lo, rng)


def _dephase(ch: ChannelSet, b: np.ndarray) -> ChannelSet:
    """The channels a trial aligns: rows of h_rv and h_uv de-phased by
    exp(-j angle(b))."""
    rot = np.exp(-1j * np.angle(b))[:, None]
    return ChannelSet(ch.h_ur, rot * ch.h_rv, rot * ch.h_uv)


def _align(pairs: list, theta0: np.ndarray, adam: AdamConfig):
    """Align B (channels, LO) pairs from ``theta0`` (B, N) in one batched
    optimizer loop on their ``_dephase``d channels; returns
    ``adam_optimize_batch``'s phases and traces.  The batch's factored
    operand, (B, M, 2N) and (B, K, N), lives only for the call."""
    m, n, k = pairs[0][0].num_cells, pairs[0][0].num_elements, pairs[0][0].num_users
    r = np.empty((len(pairs), m, 2 * n))
    g = np.empty((len(pairs), k, n), dtype=complex)
    q0 = np.empty((len(pairs), m, k))
    for i, (ch, b) in enumerate(pairs):
        dephased = _dephase(ch, b)
        build_rank_one_cache(dephased, out=(r[i], g[i]))
        q0[i] = dephased.h_uv.imag
    return adam_optimize_batch((r, g), q0, theta0, adam)


def optimize_aligned_phases(
    ch: ChannelSet, b: np.ndarray, adam: AdamConfig, rng: np.random.Generator
) -> tuple[np.ndarray, ConvergenceTrace]:
    """Optimize theta so the effective channel aligns with the LO phase.

    Runs the Frobenius-objective optimizer on the channel set with its
    rows de-phased by exp(-j angle(b)); a zero objective there makes
    H_eq s o exp(-j angle(b)) real for every real s.  This is a batch of
    one trial: a campaign trial gets the same phases from its batch.
    """
    thetas, traces = _align([(ch, b)], random_phases(ch.num_elements, rng)[None], adam)
    return thetas[0], traces[0]


def run_convergence(cfg: SimConfig) -> tuple[ChannelSet, np.ndarray, ConvergenceTrace]:
    """The campaign's first trial (the first grid point's trial
    ``trial_offset``), drawn and aligned as ``run_ber`` does it.  Returns
    its de-phased channels, the final phases and the optimizer trace."""
    validate_config(cfg)
    rng, ch, b = _draw_trial(cfg, cfg.eb_n0_grid_db[0], cfg.trial_offset)
    theta, trace = optimize_aligned_phases(ch, b, cfg.adam, rng)
    return _dephase(ch, b), theta, trace


def _run_batch(
    cfg: SimConfig, eb_n0_db: float, noise: NoiseSpec, trials: range, const, lut,
    pool: ThreadPoolExecutor | None, workers: int,
) -> np.ndarray:
    """Execute one batch of trials; returns its batch record: each trial's
    bit errors, an int array (trials, detectors) in ``cfg.detectors`` order.

    Stage 1, per trial in its generator's order: channels, LO and starting
    phases, split into ``min(workers, len(trials))`` contiguous shares
    that ``pool`` draws in parallel.  Stage 2: ``_align`` aligns all
    trials in one batched Adam loop.  Stage 3, per trial: compose, front
    end, detectors, counts.
    """
    n = cfg.num_elements
    theta0 = np.empty((len(trials), n))

    def draw(share: range) -> list:
        drawn = []
        for i in share:
            rng, ch, b = _draw_trial(cfg, eb_n0_db, trials[i])
            theta0[i] = random_phases(n, rng)
            drawn.append((rng, ch, b))
        return drawn

    w = min(workers, len(trials))
    shares = [range(len(trials) * j // w, len(trials) * (j + 1) // w) for j in range(w)]
    drawn = [d for share in (pool.map if w > 1 else map)(draw, shares) for d in share]

    # Aligned after the draws so its buffer never coexists with their temporaries.
    thetas, _ = _align([(ch, b) for _, ch, b in drawn], theta0, cfg.adam)

    return np.array([_detect_counts(cfg, noise, const, lut, rng, ch, b, theta)
                     for (rng, ch, b), theta in zip(drawn, thetas)])


def _detect_counts(cfg, noise, const, lut, rng, ch, b, theta) -> list[int]:
    """Compose the aligned channel, observe a block of symbol vectors through
    the front end and count each detector's bit errors (``cfg.detectors`` order)."""
    h_eq = effective_channel(ch, theta)
    sent = rng.integers(0, const.order, size=(cfg.num_users, cfg.symbols_per_trial))
    y = front_end(h_eq, const.points[sent], b, noise, rng)
    observed = {"y": y, "z": np.abs(y)}
    return [int(lut[sent, kernel(observed[reads], h_eq, b, const, cfg)].sum())
            for reads, kernel in (_DETECTORS[det] for det in cfg.detectors)]


def _fold_point(cfg: SimConfig, eb_n0_db: float,
                records: Iterable[np.ndarray]) -> list[BerRecord]:
    """Fold a grid point's batch records, in batch order, into one record
    per detector: the only code that knows the stop rule.  It adds the
    errors and stops after the first batch at which every detector has
    reached ``error_target``, pulling no record past it."""
    trials = 0
    errors = np.zeros(len(cfg.detectors), dtype=np.int64)
    reason = "trial_cap"
    for record in records:
        trials += len(record)
        errors += record.sum(axis=0)
        if cfg.error_target is not None and errors.min() >= cfg.error_target:
            reason = "error_target"
            break
    bits = trials * cfg.num_users * make_pam(cfg.mod_order).bits_per_symbol * cfg.symbols_per_trial
    return [_make_record(eb_n0_db, det, bits, int(e), reason)
            for det, e in zip(cfg.detectors, errors)]


def run_ber(cfg: SimConfig, threads: int = 1) -> list[BerRecord]:
    """Run the full campaign and return one record per (Eb/N0, detector).

    ``threads`` workers draw each batch's channels (0: ``os.cpu_count()``;
    at most one per trial of a batch, and no pool for one); the records
    do not depend on it (see the module docstring).  To spread a campaign
    over processes, run grid or trial slices and combine them with
    ``merge_records``."""
    validate_config(cfg)
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    const = make_pam(cfg.mod_order)
    lut = hamming_table(const)
    workers = min(threads or os.cpu_count() or 1, _BATCH_SIZE, cfg.trials_per_point)
    last = cfg.trial_offset + cfg.trials_per_point
    batches = [range(start, min(start + _BATCH_SIZE, last))
               for start in range(cfg.trial_offset, last, _BATCH_SIZE)]

    records: list[BerRecord] = []
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for db in cfg.eb_n0_grid_db:
            noise = noise_sigma(db, cfg.mod_order)
            records += _fold_point(cfg, db, (
                _run_batch(cfg, db, noise, batch, const, lut, pool, workers)
                for batch in batches))
    return records


def merge_records(a: list[BerRecord], b: list[BerRecord]) -> list[BerRecord]:
    """Combine two campaigns: counts add on matching (eb_n0_db, detector)
    keys (-0.0 and 0.0 are one key), unmatched records pass through.
    Associative and commutative."""

    def keyed(records, source):
        out = {}
        for rec in records:
            key = (rec.eb_n0_db, rec.detector)
            if key in out:
                raise ValueError(f"duplicate record key {key} in {source} input")
            out[key] = rec
        return out

    left = keyed(a, "first")
    right = keyed(b, "second")
    merged = []
    for key in sorted(set(left) | set(right)):
        if key in left and key in right:
            x, y = left[key], right[key]
            reason = x.stop_reason if x.stop_reason == y.stop_reason else "mixed"
            # -0.0 meets 0.0 as one point: keep a sign only both sides share.
            same_sign = math.copysign(1.0, x.eb_n0_db) == math.copysign(1.0, y.eb_n0_db)
            merged.append(
                _make_record(
                    x.eb_n0_db if same_sign else 0.0, key[1], x.bits_sent + y.bits_sent,
                    x.bit_errors + y.bit_errors, reason,
                )
            )
        else:
            merged.append(left.get(key) or right[key])
    return merged


def records_to_csv(records: list[BerRecord]) -> str:
    """Render records as CSV, sorted by (eb_n0_db, detector)."""
    lines = ["eb_n0_db,detector,bits_sent,bit_errors,ber,ci_halfwidth"]
    for rec in sorted(records, key=lambda r: (r.eb_n0_db, r.detector)):
        lines.append(
            f"{rec.eb_n0_db!r},{rec.detector},{rec.bits_sent},{rec.bit_errors},"
            f"{rec.ber!r},{rec.ci_halfwidth!r}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(records: list[BerRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))
