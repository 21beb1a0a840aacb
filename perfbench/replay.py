"""Traced replay of campaign trials through the package's public functions.

The replay calls, per trial and in the campaign's order, ``sim.trial_seed``,
``sim.draw_channels``, ``channel.gen_lo_vector``,
``sim.optimize_aligned_phases``, ``channel.effective_channel``, the
magnitude front end and the ``detect.detect_*_batch`` kernels, with a span
around each call.  Its per-trial counts, summed, must equal the records the
campaign wrote for the same trials; the caller checks that, so a change to
the campaign's trial body makes the benchmark fail instead of timing a
stale replica.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from atomris import channel, detect, risopt, sim
from atomris.modem import hamming_table, make_pam, noise_sigma

# Trials run and early stops are decided in batches of this size (sim's
# fixed batch); the replay must stop where the campaign stops.
BATCH_SIZE = 8

DETECTOR_SPANS = {"proposed": "detect.proposed", "exhaustive": "detect.exhaustive",
                  "zf_genie": "detect.zf"}
STAGE_SPANS = ("sim.seed", "channel.draw", "channel.lo", "risopt.align", "channel.compose",
               "detect.front_end", *DETECTOR_SPANS.values())


@dataclass
class Tracer:
    """Spans kept in memory: (name, start_s, end_s, parent index, trial id)."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, trial])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _t in self.spans if n == name]

    def stage_sums_per_trial(self) -> list[float]:
        """Per trial, the summed duration of its stage spans."""
        per: dict = {}
        for name, start, end, _p, trial in self.spans:
            if name in STAGE_SPANS:
                per[trial] = per.get(trial, 0.0) + (end - start)
        return list(per.values())

    def write(self, path) -> None:
        keys = ("name", "start_s", "end_s", "parent", "trial")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


@dataclass
class ReplayStats:
    """Optimizer facts of the replayed trials.  Each trial's channels and
    phases are kept and evaluated by ``finish`` after the timed replay:
    interleaving that work between trials speeds up the next trial by ~5%
    (warm allocator and caches), which would bias the traced timings."""

    trials: list = field(default_factory=list)
    grad_evals: list = field(default_factory=list)
    final_j: list = field(default_factory=list)
    objgrad_us: list = field(default_factory=list)

    def finish(self) -> None:
        for ch, b, theta, conv in self.trials:
            dephased = _dephased(ch, b)
            cache = risopt.build_rank_one_cache(dephased)
            self.grad_evals.append(len(conv))
            self.final_j.append(risopt.objective(theta, cache, dephased.h_uv))
            self.objgrad_us.append(objgrad_us(cache, dephased.h_uv, theta, OBJGRAD_CALLS))
        self.trials.clear()


# objective_and_gradient calls timed per replayed trial.
OBJGRAD_CALLS = 10


def replay_campaign(cfg: sim.SimConfig, tracer: Tracer, stats: ReplayStats,
                    first_trial_id: int = 0) -> dict:
    """Replay a whole campaign; returns {(eb_n0_db, detector): (bits, errors)}.

    Span trial ids count up from ``first_trial_id`` in execution order.
    """
    const = make_pam(cfg.mod_order)
    lut = hamming_table(const)
    tid = first_trial_id
    out = {}
    with tracer.span("sim.campaign"):
        for db in cfg.eb_n0_grid_db:
            sigma2 = noise_sigma(db, cfg.mod_order).sigma2
            bits = dict.fromkeys(cfg.detectors, 0)
            errors = dict.fromkeys(cfg.detectors, 0)
            last = cfg.trial_offset + cfg.trials_per_point
            for batch_start in range(cfg.trial_offset, last, BATCH_SIZE):
                for t in range(batch_start, min(batch_start + BATCH_SIZE, last)):
                    with tracer.span("sim.trial", tid):
                        counts, kept = _trial(cfg, db, sigma2, t, const, lut, tracer, tid)
                    stats.trials.append(kept)
                    tid += 1
                    for det, (nb, ne) in counts.items():
                        bits[det] += nb
                        errors[det] += ne
                if cfg.error_target is not None and all(
                    errors[det] >= cfg.error_target for det in cfg.detectors
                ):
                    break
            for det in cfg.detectors:
                out[(db, det)] = (bits[det], errors[det])
    return out


def _trial(cfg, db, sigma2, t, const, lut, tracer: Tracer, tid):
    span = tracer.span
    with span("sim.seed", tid):
        rng = np.random.default_rng(sim.trial_seed(cfg.master_seed, db, t))
    with span("channel.draw", tid):
        ch = sim.draw_channels(cfg, rng)
    with span("channel.lo", tid):
        b = channel.gen_lo_vector(cfg.num_cells, cfg.lo, rng)
    with span("risopt.align", tid):
        theta, conv = sim.optimize_aligned_phases(ch, b, cfg.adam, rng)
    with span("channel.compose", tid):
        h_eq = channel.effective_channel(ch, theta)
    k, n_sym = cfg.num_users, cfg.symbols_per_trial
    with span("detect.front_end", tid):
        sent = rng.integers(0, const.order, size=(k, n_sym))
        scale = math.sqrt(sigma2 / 2.0)
        noise = scale * (rng.standard_normal((cfg.num_cells, n_sym))
                         + 1j * rng.standard_normal((cfg.num_cells, n_sym)))
        y = h_eq @ const.points[sent] + b[:, None] + noise
        z = np.abs(y)
    counts = {}
    for det in cfg.detectors:
        with span(DETECTOR_SPANS[det], tid):
            if det == "proposed":
                got = detect.detect_proposed_batch(z, h_eq, b, const)
            elif det == "exhaustive":
                got = detect.detect_exhaustive_batch(z, h_eq, b, const, cfg.exhaustive_budget)
            else:
                got = detect.detect_zf_batch(y, h_eq, b, const)
        counts[det] = (k * const.bits_per_symbol * n_sym, int(lut[sent, got].sum()))
    return counts, (ch, b, theta, conv)


def _dephased(ch: channel.ChannelSet, b: np.ndarray) -> channel.ChannelSet:
    """The channel set the campaign optimizes on: rows de-phased by the LO angle."""
    rot = np.exp(-1j * np.angle(b))[:, None]
    return channel.ChannelSet(h_ur=ch.h_ur, h_rv=rot * ch.h_rv, h_uv=rot * ch.h_uv)


def objgrad_us(cache: risopt.RankOneCache, h_uv: np.ndarray, theta: np.ndarray,
               calls: int) -> float:
    """Mean microseconds per objective_and_gradient call over ``calls`` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        risopt.objective_and_gradient(theta, cache, h_uv)
    return (time.perf_counter() - t0) / calls * 1e6


def objgrad_samples(cfg: sim.SimConfig, seed: int, trials: int, calls: int) -> list[float]:
    """µs per objective_and_gradient call on the de-phased caches of
    ``trials`` seeded trials of the campaign shape ``cfg``."""
    out = []
    for t in range(trials):
        rng = np.random.default_rng(sim.trial_seed(seed, cfg.eb_n0_grid_db[0], t))
        ch = sim.draw_channels(cfg, rng)
        b = channel.gen_lo_vector(cfg.num_cells, cfg.lo, rng)
        dephased = _dephased(ch, b)
        cache = risopt.build_rank_one_cache(dephased)
        theta = rng.uniform(0.0, 2.0 * np.pi, cfg.num_elements)
        out.append(objgrad_us(cache, dephased.h_uv, theta, calls))
    return out
