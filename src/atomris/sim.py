"""Seeded Monte-Carlo BER campaigns and convergence experiments.

Campaign structure: each trial draws a channel realization, its RIS
phases are optimized once (on the LO-de-phased channels, so the
effective channel aligns with the LO phase), and a block of random
symbol vectors is sent through the magnitude front end at every Eb/N0
grid point, under one unit-noise draw that each point scales to its own
noise level.  Every point thus sees the same channels, symbols and noise
shape (common random numbers), and all enabled detectors see identical
observations, so comparisons across points and detectors are paired.

Every trial derives its own generator from
``SeedSequence(master_seed, spawn_key=(trial_index,))``, keyed by the
absolute trial index alone.  So splitting a grid across runs, or (with
no error target) the trials by ``trial_offset``, and merging the records
reproduces a single run exactly; this is how a campaign is spread over
processes.  Each fixed-size batch of trials gives, at each grid point, a
batch record, its trials' bit errors per detector, and one pure fold
step (``_fold_point``), the only code that knows the stop rule, adds a
point's records in batch order: the point stops after the first batch at
which every detector has reached the error target.  A point's records
depend only on its own trial prefix, never on the other points.

A batch is a three-stage pipeline.  Stage 1 (``_draw_start``) draws each
trial's whole random stream from its generator, in a fixed order:
channels, LO, starting phases, symbol indices and unit complex noise.  No
generator leaves it; the batch is stacked into one ``ChannelSet`` and
arrays with a leading trial axis.  Stage 2 aligns all of its trials in
one batched optimizer loop over the factored operand of the de-phased
stack (h_rv as a real (B, M, 2N) array, and h_ur^T), and composes the
aligned (B, M, K) channels in one ``effective_channel`` call.  Stage 3
runs at each point that has not stopped: it scales the noise, observes
the batch through the front end in one call, and each detector decides
the whole batch in one call; the counts are one table lookup
(``_finish_batch`` runs stages 2 and 3).  A trial draws the stream a
lone trial draws (``optimize_aligned_phases``, then its symbols and
noise), and the rows of every stacked call equal single-trial calls bit
for bit, so which trials share a batch does not change any output.

The campaign's batches are numbered once: batch j (``_batch``) holds
trials ``trial_offset + 8j`` on.  They run in turn until the last one,
or until every point has stopped, so a campaign draws and aligns the
trials of its longest-running point, once each.  With one
thread a campaign holds one batch at a time.  With ``run_ber``'s
``threads`` > 1, only the first stage runs on a worker thread, one batch
ahead: once the calling thread takes batch j, the worker draws batch
j + 1, trial by trial, while the calling thread aligns batch j and
detects it at every point, so a campaign holds at most two batches.  The
draw is a few large ufuncs over (M, N, L) arrays, which release the GIL,
and it touches no BLAS; each trial's generator is used by one thread in
its usual order, so the outputs do not depend on the thread count.
Stages 2 and 3 stay on the calling thread: the Adam loop and the
detectors are many small numpy calls that hold the GIL, and threading
them measured slower than one thread.  So did a second drawing worker:
the calling thread is the critical path, and each worker takes the GIL
from it between ufuncs.

The convergence experiment is the campaign's first trial aligned alone,
so its trace and phases are those of a trial the BER counts.
"""

from __future__ import annotations

import math
import os
import sys
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
from .modem import hamming_table, make_pam, noise_sigma
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
# "y") and its kernel (observation, h_eq, b, constellation, config) -> decisions,
# called once per batch on arrays with a leading trial axis.
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
        raise ConfigError("num_cells ([system] cells) must be >= 1")
    if cfg.num_elements < 0:
        raise ConfigError("num_elements ([system] ris_elements) must be >= 0")
    if cfg.num_users < 1:
        raise ConfigError("num_users ([system] users) must be >= 1")
    variance = cfg.channel.entry_variance
    if variance < sys.float_info.min:  # squares of such entries underflow
        raise ConfigError(f"section [channel]: entries have variance {variance:.3g}, below "
                          "the smallest normal float: coupling_gain or path_loss_span "
                          "(path_loss_min, path_loss_max) is 0 or too small")
    if cfg.num_users > cfg.num_cells:
        raise ConfigError(
            f"num_users ([system] users = {cfg.num_users}) exceeds num_cells ([system] "
            f"cells = {cfg.num_cells}); least-squares detection needs K <= M"
        )
    try:
        make_pam(cfg.mod_order)
    except ValueError as exc:
        raise ConfigError(f"mod_order: {exc} for [system] pam_order") from None
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
    # two channel draws, the batch's aligned operand (whose bytes are those
    # of its stacked (batch, M, N) complex channels too), its complex
    # observations (which bound its (batch, K, n) symbol and decision
    # arrays too, as K <= M) and the optimizer's traces.  numpy refuses a
    # shape whose nonzero sizes multiply past its index range, which would
    # stop the first batch.
    m, n, k, paths = cfg.num_cells, cfg.num_elements, cfg.num_users, cfg.channel.num_paths
    batch = min(_BATCH_SIZE, cfg.trials_per_point)
    for fields, shape, itemsize in (
        ("[system] cells, ris_elements and [channel] paths", (m, n, paths), 16),
        ("[system] cells, users and [channel] paths", (m, k, paths), 16),
        ("[system] cells and ris_elements", (batch, m, 2 * n), 8),
        ("[system] cells and [sim] symbols_per_trial", (batch, m, cfg.symbols_per_trial), 16),
        ("[adam] max_iters", (cfg.adam.max_iters, batch), 8),
    ):
        if itemsize * math.prod(d for d in shape if d) > np.iinfo(np.intp).max:
            raise ConfigError(f"{fields} too large: the campaign would shape a {shape} "
                              "array, beyond numpy's index range")


def trial_seed(master_seed: int, eb_n0_db: float | None,
               trial_index: int) -> np.random.SeedSequence:
    """Splittable seed of trial ``trial_index``, keyed by its absolute index
    alone: grid and trial partitions reproduce the trials of a single full
    run, and every grid point reads the same trial.  ``eb_n0_db`` is unused;
    it stays only while perfbench's traced replay, which passes each grid
    point, calls this (see ROADMAP)."""
    return np.random.SeedSequence(master_seed, spawn_key=(trial_index,))


def draw_channels(cfg: SimConfig, rng: np.random.Generator) -> ChannelSet:
    """One channel realization, in a fixed draw order (h_ur, h_rv, h_uv)."""
    m, n, k = cfg.num_cells, cfg.num_elements, cfg.num_users
    return ChannelSet(
        h_ur=gen_user_ris_channel(k, n, rng),
        h_rv=gen_physical_channel(m, n, cfg.channel, rng),
        h_uv=gen_physical_channel(m, k, cfg.channel, rng),
    )


def _dephase(ch: ChannelSet, b: np.ndarray) -> ChannelSet:
    """The channels a trial aligns: rows of h_rv and h_uv de-phased by
    exp(-j angle(b)); a stack of trials takes ``b`` (..., M)."""
    rot = np.exp(-1j * np.angle(b))[..., None]
    return ChannelSet(ch.h_ur, rot * ch.h_rv, rot * ch.h_uv)


def _stack(drawn: list) -> tuple:
    """B trials' records, each a ChannelSet followed by arrays, as one:
    the stacked ChannelSet and arrays, each with a leading trial axis."""
    chs, *arrays = zip(*drawn)
    ch = ChannelSet(*(np.stack(mats) for mats in zip(*((c.h_ur, c.h_rv, c.h_uv) for c in chs))))
    return ch, *(np.stack(a) for a in arrays)


def _align(ch: ChannelSet, b: np.ndarray, theta0: np.ndarray, adam: AdamConfig):
    """Align trials' channels and LO (..., M) from ``theta0`` (..., N) in
    one optimizer loop on their ``_dephase``d channels; returns
    ``adam_optimize_batch``'s phases and trace.  The factored operand,
    (..., M, 2N) and (..., K, N), lives only for the call."""
    dephased = _dephase(ch, b)
    return adam_optimize_batch(theta0, build_rank_one_cache(dephased), dephased.h_uv, adam)


def optimize_aligned_phases(
    ch: ChannelSet, b: np.ndarray, adam: AdamConfig, rng: np.random.Generator
) -> tuple[np.ndarray, ConvergenceTrace]:
    """Optimize theta so the effective channel aligns with the LO phase.

    Runs the Frobenius-objective optimizer on the channel set with its
    rows de-phased by exp(-j angle(b)); a zero objective there makes
    H_eq s o exp(-j angle(b)) real for every real s.  This is one trial,
    with a (max_iters,) trace; a campaign trial gets the same phases from
    its batch.  A non-finite LO is refused before any draw.  Its only
    caller outside the tests is perfbench's traced replay.
    """
    if not np.isfinite(b).all():
        raise ValueError("the LO b must be finite")
    return _align(ch, b, random_phases(ch.num_elements, rng), adam)


def run_convergence(cfg: SimConfig) -> tuple[ChannelSet, np.ndarray, ConvergenceTrace]:
    """The campaign's first trial, trial ``trial_offset``, drawn and
    aligned as ``run_ber`` does it.  Returns its de-phased channels, the
    final phases and the optimizer trace."""
    validate_config(cfg)
    ch, b, theta0, *_ = _draw_start(cfg, cfg.trial_offset)
    return _dephase(ch, b), *_align(ch, b, theta0, cfg.adam)


def _draw_start(cfg: SimConfig, t: int):
    """Stage 1 of trial ``t``: its whole random stream, in the campaign's
    order.  Returns its channels, LO, starting phases, symbol indices
    (K, n) and unit complex noise (M, n), N(0, 1) + jN(0, 1) per entry,
    which each grid point scales by sqrt(sigma2 / 2); no generator leaves
    it."""
    rng = np.random.default_rng(trial_seed(cfg.master_seed, None, t))
    ch = draw_channels(cfg, rng)
    b = gen_lo_vector(cfg.num_cells, cfg.lo, rng)
    theta0 = random_phases(cfg.num_elements, rng)
    sent = rng.integers(0, cfg.mod_order, size=(cfg.num_users, cfg.symbols_per_trial))
    # The real normals, then the imaginary ones.
    shape = (cfg.num_cells, cfg.symbols_per_trial)
    return ch, b, theta0, sent, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _finish_batch(cfg: SimConfig, const, lut, batch: tuple, scales: list) -> list:
    """Stages 2 and 3 of a ``_stack``ed batch: ``_align`` aligns all trials
    in one batched Adam loop and one ``effective_channel`` call composes
    their channels.  Then, for each noise scale sqrt(sigma2 / 2) in
    ``scales`` (one per grid point), the front end and each detector take
    the whole batch in one call.  Returns one batch record per scale: each
    trial's bit errors, an int array (trials, detectors) in
    ``cfg.detectors`` order."""
    ch, lo, theta0, sent, noise = batch
    h_eq = effective_channel(ch, _align(ch, lo, theta0, cfg.adam)[0])
    symbols = const.points[sent]
    records = []
    for scale in scales:
        y = front_end(h_eq, symbols, lo, noise * scale)
        observed = {"y": y, "z": np.abs(y)}
        records.append(np.stack(
            [lut[sent, kernel(observed[reads], h_eq, lo, const, cfg)].sum(axis=(1, 2))
             for reads, kernel in (_DETECTORS[det] for det in cfg.detectors)], axis=1))
    return records


def _fold_point(cfg: SimConfig, tally: tuple, record: np.ndarray) -> tuple[tuple, bool]:
    """One step of a grid point's fold: add its next batch record, in
    batch order, to its tally (trials, errors per detector).  Returns the
    new tally and whether the point stops there: the only code that knows
    the stop rule.  A point stops after the first batch at which every
    detector has reached ``error_target``, and takes no record past it."""
    trials, errors = tally
    errors = errors + record.sum(axis=0)
    stop = cfg.error_target is not None and bool(errors.min() >= cfg.error_target)
    return (trials + len(record), errors), stop


def _batch(cfg: SimConfig, j: int) -> range:
    """Batch ``j``'s trials: up to ``_BATCH_SIZE`` trial indices from
    ``trial_offset + j * _BATCH_SIZE`` on, within the trial cap (none past
    the last batch)."""
    trials = range(cfg.trial_offset, cfg.trial_offset + cfg.trials_per_point)
    return trials[j * _BATCH_SIZE:(j + 1) * _BATCH_SIZE]


def run_ber(cfg: SimConfig, threads: int = 1) -> list[BerRecord]:
    """Run the full campaign and return one record per (Eb/N0, detector).

    Batches run in turn until the last one or until every point has
    stopped; each is drawn and aligned once and detected at every point
    that has not stopped.  With any ``threads`` >= 2 (0:
    ``os.cpu_count()``) and more than one trial per point, one worker
    draws each batch while the calling thread aligns and detects the one
    before it; one thread makes no pool.  With a pool, batch ``j + 1`` is
    queued as one task per trial once batch ``j`` is taken.  Taking batch
    ``j`` cancels every task of it the worker has not started and draws
    those trials on the calling thread, last first, so the two meet in
    the middle; it waits only for the running task.  A look-ahead that
    the last point's stop made useless is cancelled, or discarded if
    running.  So at most two batches are held.  The records do not depend
    on ``threads`` (see the module docstring), and no worker outlives the
    call.  To use more cores, run grid or trial slices in processes and
    combine them with ``merge_records``."""
    validate_config(cfg)
    if threads < 0:
        raise ConfigError(f"threads (--threads) must be >= 0, got {threads}")
    const = make_pam(cfg.mod_order)
    lut = hamming_table(const)
    grid = cfg.eb_n0_grid_db
    scales = [math.sqrt(noise_sigma(db, cfg.mod_order).sigma2 / 2.0) for db in grid]
    pool = None
    if min(threads or os.cpu_count() or 1, cfg.trials_per_point) > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(1)
    queued: list = []  # with a pool: one future per trial of the batch taken next

    def queue(j: int) -> None:
        nonlocal queued
        queued = [pool.submit(_draw_start, cfg, t) for t in _batch(cfg, j)]

    def take(j: int) -> tuple:
        trials = _batch(cfg, j)
        if pool is None:
            return _stack([_draw_start(cfg, t) for t in trials])
        mine = {k: _draw_start(cfg, trials[k])
                for k in reversed(range(len(trials))) if queued[k].cancel()}
        drawn = [mine[k] if k in mine else f.result() for k, f in enumerate(queued)]
        queue(j + 1)
        return _stack(drawn)

    tallies = [(0, np.zeros(len(cfg.detectors), dtype=np.int64))] * len(grid)
    live = list(range(len(grid)))  # the points that have not stopped
    try:
        if pool is not None:
            queue(0)
        j = 0
        while live and _batch(cfg, j):
            records = _finish_batch(cfg, const, lut, take(j), [scales[p] for p in live])
            for p, record in dict(zip(live, records)).items():
                tallies[p], stop = _fold_point(cfg, tallies[p], record)
                if stop:
                    live.remove(p)
            j += 1
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    bits = cfg.num_users * const.bits_per_symbol * cfg.symbols_per_trial
    return [_make_record(db, det, trials * bits, int(e),
                         "trial_cap" if p in live else "error_target")
            for p, (db, (trials, errors)) in enumerate(zip(grid, tallies))
            for det, e in zip(cfg.detectors, errors)]


def merge_records(a: list[BerRecord], b: list[BerRecord]) -> list[BerRecord]:
    """Combine two campaigns: counts add on matching (eb_n0_db, detector)
    keys (-0.0 and 0.0 are one key), unmatched records pass through.
    Associative and commutative."""
    merged: dict[tuple[float, str], BerRecord] = {}
    for source, records in (("first", a), ("second", b)):
        seen = set()
        for rec in records:
            key = (rec.eb_n0_db, rec.detector)
            if key in seen:
                raise ValueError(f"duplicate record key {key} in {source} input")
            seen.add(key)
            if key in merged:
                x = merged[key]
                reason = x.stop_reason if x.stop_reason == rec.stop_reason else "mixed"
                # -0.0 meets 0.0 as one point: keep a sign only both sides share.
                same_sign = math.copysign(1.0, x.eb_n0_db) == math.copysign(1.0, rec.eb_n0_db)
                rec = _make_record(x.eb_n0_db if same_sign else 0.0, rec.detector,
                                   x.bits_sent + rec.bits_sent, x.bit_errors + rec.bit_errors,
                                   reason)
            merged[key] = rec
    return [merged[key] for key in sorted(merged)]


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
