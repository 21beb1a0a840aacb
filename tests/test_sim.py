"""Tests for the Monte-Carlo campaign engine."""

import functools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from atomris import detect, sim
from atomris.channel import LOParams, PhysicalPathParams
from atomris.config import load_config
from atomris.errors import BudgetExceededError, ConfigError
from atomris.risopt import AdamConfig
from atomris.sim import (
    BerRecord,
    SimConfig,
    merge_records,
    records_to_csv,
    run_ber,
    run_convergence,
    trial_seed,
    validate_config,
)

# small but nontrivial campaign used across tests
SMALL = SimConfig(
    num_cells=12,
    num_elements=24,
    num_users=2,
    mod_order=4,
    eb_n0_grid_db=(-26.0, -22.0),
    trials_per_point=12,
    symbols_per_trial=30,
    master_seed=99,
    error_target=None,
)


class TestValidation:
    def test_defaults_valid(self):
        validate_config(SimConfig())

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            validate_config(replace(SMALL, eb_n0_grid_db=()))

    def test_exhaustive_budget_checked_upfront(self):
        bad = replace(SMALL, mod_order=16, num_users=8, detectors=("exhaustive",))
        with pytest.raises(BudgetExceededError, match="16\\^8"):
            validate_config(bad)

    def test_unknown_detector(self):
        with pytest.raises(ConfigError, match="detectors"):
            validate_config(replace(SMALL, detectors=("proposed", "mystery")))

    @pytest.mark.parametrize("grid", [
        (-20.0, math.nan), (math.inf,), (1.0, 1.0), (-0.0, 0.0),
        # finite, but the noise variance leaves the float range
        (-10.0, 4000.0), (-10.0, -4000.0), (-10.0, -3200.0),
    ])
    def test_non_finite_or_repeated_grid_point(self, grid):
        with pytest.raises(ConfigError, match="eb_n0_grid_db"):
            validate_config(replace(SMALL, eb_n0_grid_db=grid))

    def test_extreme_grid_point_with_finite_noise_accepted(self):
        """-3084.5 dB gives sigma2 of about 1.4e308, still a float."""
        validate_config(replace(SMALL, eb_n0_grid_db=(-10.0, -3084.5)))

    def test_unsupported_pam_order(self):
        with pytest.raises(ConfigError, match="mod_order: unsupported PAM order 3"):
            validate_config(replace(SMALL, mod_order=3))

    @pytest.mark.parametrize("field, unit_bytes, shape", [
        ("max_iters", 8 * 8, lambda v: (v, 8)),  # the traces of a batch of 8 trials
        # the batch's complex observations, n = 30 (its aligned operand, 2N = 48
        # floats a row, is smaller)
        ("num_cells", 16 * 8 * 30, lambda v: (8, v, 2 * 30)),
        ("symbols_per_trial", 16 * 8 * 12, lambda v: (8, 12, 2 * v)),  # the same, M = 12
    ])
    def test_size_refused_exactly_where_numpy_refuses(self, field, unit_bytes, shape):
        """The smallest size whose array numpy refuses (as float64 here) is
        refused, and one less passes.  Only a refused shape is handed to
        numpy, which rejects it before allocating."""
        def sized(value):
            if field == "max_iters":
                return replace(SMALL, adam=AdamConfig(max_iters=value))
            return replace(SMALL, **{field: value})

        first = np.iinfo(np.intp).max // unit_bytes + 1
        with pytest.raises(ValueError, match="too big"):
            np.empty(shape(first))
        with pytest.raises(ConfigError, match="beyond numpy's index range"):
            validate_config(sized(first))
        validate_config(sized(first - 1))

    def test_more_users_than_cells(self):
        with pytest.raises(ConfigError, match="users"):
            validate_config(replace(SMALL, num_users=20))

    def test_vanishing_channel(self):
        """An unnormalized coupling gain of 0 draws all-zero channels: the
        parameters build, the campaign is refused."""
        params = PhysicalPathParams(coupling_gain=0.0, normalize=False)
        assert params.entry_variance == 0.0
        with pytest.raises(ConfigError, match=r"\[channel\].*variance 0"):
            validate_config(replace(SMALL, channel=params))


    def test_optimizer_overflow_bound_only_for_unnormalized_channels(self):
        """A coupling gain of 1e77 overflows the optimizer's sums only when
        drawn unnormalized; normalized channels are not bounded, and a
        campaign with no RIS is bounded by J alone."""
        big = PhysicalPathParams(coupling_gain=1e77)
        validate_config(replace(SMALL, channel=big))
        with pytest.raises(ConfigError, match=r"\[channel\].*coupling_gain"):
            validate_config(replace(SMALL, channel=replace(big, normalize=False)))
        no_ris = replace(SMALL, num_elements=0, channel=replace(big, normalize=False))
        validate_config(replace(no_ris, channel=replace(no_ris.channel, coupling_gain=1e150)))


class TestConvergence:
    def test_default_configuration_plateaus(self):
        cfg = SimConfig(master_seed=5)
        _, _, trace = run_convergence(cfg)
        assert len(trace) == 100
        assert np.min(trace.objective) < 0.2 * trace.objective[0]

    def test_all_real_channels_fixed_point(self):
        """Synthetic all-real channels started at theta = 0: the trace
        stays at the initial objective."""
        from atomris.channel import ChannelSet
        from atomris.risopt import AdamConfig, adam_optimize_batch, build_rank_one_cache

        ch = ChannelSet(
            h_ur=np.ones((4, 2)), h_rv=np.ones((5, 4)), h_uv=np.ones((5, 2))
        )
        _, trace = adam_optimize_batch(
            np.zeros(4), build_rank_one_cache(ch), ch.h_uv, AdamConfig(max_iters=30)
        )
        assert np.all(trace.objective == trace.objective[0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_lo_rejected(self, value):
        """``optimize_aligned_phases`` refuses an LO with one NaN or
        infinite entry, naming the LO, before it draws the starting
        phases."""
        from atomris.sim import draw_channels, optimize_aligned_phases

        cfg = replace(SMALL, adam=AdamConfig(max_iters=3))
        rng = np.random.default_rng(3)
        ch = draw_channels(cfg, rng)
        b = np.full(cfg.num_cells, 1e4 + 0j)
        b[5] = value
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="LO b must be finite"):
            optimize_aligned_phases(ch, b, cfg.adam, rng)
        assert rng.bit_generator.state == state

    def test_deterministic_replay(self):
        _, _, t1 = run_convergence(SimConfig(master_seed=8))
        _, _, t2 = run_convergence(SimConfig(master_seed=8))
        assert np.array_equal(t1.objective, t2.objective)
        assert np.array_equal(t1.grad_norm, t2.grad_norm)


class TestTrialSeeding:
    def test_distinct_across_trials_shared_across_points(self):
        """Each trial index has its own key, and every grid point reads the
        same one: the Eb/N0 argument is not part of the key."""
        keys = {db: [tuple(trial_seed(1, db, t).generate_state(4)) for t in range(5)]
                for db in (-20.0, -10.0, 0.0)}
        assert len(set(keys[-20.0])) == 5
        assert keys[-20.0] == keys[-10.0] == keys[0.0]

    def test_keyed_by_value_not_position(self):
        a = trial_seed(1, -20.0, 3).generate_state(4)
        b = trial_seed(1, -20.0, 3).generate_state(4)
        assert np.array_equal(a, b)

    def test_negative_zero_keyed_as_zero(self):
        """-0.0 and 0.0 merge under one record key, so they draw one trial."""
        a = trial_seed(1, -0.0, 3).generate_state(4)
        b = trial_seed(1, 0.0, 3).generate_state(4)
        assert np.array_equal(a, b)


class TestStageOne:
    """``_draw_start`` draws a trial's whole random stream; the stages
    after it read no generator."""

    def test_stream_order_is_the_lone_trial_chain(self):
        from atomris.channel import gen_lo_vector
        from atomris.risopt import random_phases

        t = 7
        rng = np.random.default_rng(trial_seed(SMALL.master_seed, -22.0, t))
        ch = sim.draw_channels(SMALL, rng)
        b = gen_lo_vector(SMALL.num_cells, SMALL.lo, rng)
        theta0 = random_phases(SMALL.num_elements, rng)
        sent = rng.integers(0, SMALL.mod_order, (SMALL.num_users, SMALL.symbols_per_trial))
        shape = (SMALL.num_cells, SMALL.symbols_per_trial)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # unit noise
        want = (ch.h_ur, ch.h_rv, ch.h_uv, b, theta0, sent, noise)
        got_ch, *got = sim._draw_start(SMALL, t)
        got = (got_ch.h_ur, got_ch.h_rv, got_ch.h_uv, *got)
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
            (a.dtype, a.shape, a.tobytes()) for a in want]

    def test_no_generator_after_stage_one(self):
        """A drawn batch holds arrays and channel sets only, before and after
        it is stacked, and finishing the stacked batch twice gives the same
        batch records, one per noise scale."""
        from atomris.channel import ChannelSet
        from atomris.modem import hamming_table, make_pam

        drawn = [sim._draw_start(SMALL, t) for t in range(5)]
        batch = sim._stack(drawn)
        for ch, *arrays in (*drawn, batch):
            assert isinstance(ch, ChannelSet)
            assert all(isinstance(a, np.ndarray) for a in arrays)
        assert batch[0].h_rv.shape == (5, SMALL.num_cells, SMALL.num_elements)
        assert all(len(a) == 5 for a in batch[1:])
        const = make_pam(SMALL.mod_order)
        scales = [6.0, 10.0]  # about sqrt(sigma2 / 2) at -22 and -26 dB
        first, second = (sim._finish_batch(SMALL, const, hamming_table(const), batch, scales)
                         for _ in range(2))
        assert [r.shape for r in first] == [(5, len(SMALL.detectors))] * 2
        assert 0 < first[0].sum() < first[1].sum()
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


def _exact_bytes(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestStackedChannels:
    """Stage 2 and the compose read a batch as one stacked ``ChannelSet``:
    the rows of ``_dephase``, ``build_rank_one_cache``, ``_align`` (its
    phases and its trace's rows), ``objective_and_gradient`` and
    ``effective_channel`` on a stack of campaign draws are their
    single-trial calls bit for bit, and ``gradient_op_count`` reads the
    stacked operand as one trial's."""

    @pytest.mark.parametrize("n", [24, 0], ids=["N24", "no-RIS"])
    @pytest.mark.parametrize("n_trials", [1, 3, 8], ids=["one", "tail-of-3", "batch-of-8"])
    def test_rows_equal_single_trial_calls(self, n, n_trials):
        from atomris.channel import effective_channel
        from atomris.risopt import build_rank_one_cache, gradient_op_count, objective_and_gradient

        cfg = replace(SMALL, num_elements=n, adam=AdamConfig(max_iters=15))
        drawn = [sim._draw_start(cfg, t) for t in range(n_trials)]
        ch, b, theta0, *_ = sim._stack(drawn)
        dephased = sim._dephase(ch, b)
        r, g = build_rank_one_cache(dephased)
        assert r.flags.c_contiguous and g.flags.c_contiguous
        thetas, traces = sim._align(ch, b, theta0, cfg.adam)
        j_vals, grads = objective_and_gradient(theta0, (r, g), dephased.h_uv)
        h_eq = effective_channel(ch, thetas)
        assert h_eq.shape == (n_trials, cfg.num_cells, cfg.num_users)
        assert traces.objective.shape == (n_trials, cfg.adam.max_iters)
        for t, (ch1, b1, theta1, *_) in enumerate(drawn):
            one = sim._dephase(ch1, b1)
            one_op = build_rank_one_cache(one)
            theta, trace = sim._align(ch1, b1, theta1, cfg.adam)
            assert gradient_op_count((r, g)) == gradient_op_count(one_op)
            got = (dephased.h_ur[t], dephased.h_rv[t], dephased.h_uv[t], r[t], g[t],
                   thetas[t], traces.objective[t], traces.grad_norm[t], j_vals[t], grads[t],
                   h_eq[t])
            want = (one.h_ur, one.h_rv, one.h_uv, *one_op,
                    theta, trace.objective, trace.grad_norm,
                    *objective_and_gradient(theta1, one_op, one.h_uv),
                    effective_channel(ch1, thetas[t]))
            assert _exact_bytes(got) == _exact_bytes(want), t


# Three points that stop on the error target after 2, 3 and 6 batches.
_STOPS = replace(SMALL, eb_n0_grid_db=(-30.0, -22.0, -18.0), error_target=400,
                 trials_per_point=100)

# Two goldens' campaigns: the reference shape, whose exhaustive detector is
# the one-block full search, and K = 8, whose is the pruned search.
_GOLDENS = {name: load_config(Path(__file__).parent / "data" / f"{name}.ini")
            for name in ("golden_ref_k3", "golden_detect_k8")}


class TestRunBer:
    def test_record_invariants(self):
        records = run_ber(SMALL)
        assert len(records) == len(SMALL.eb_n0_grid_db) * len(SMALL.detectors)
        for rec in records:
            assert 0 <= rec.bit_errors <= rec.bits_sent
            assert rec.ber == rec.bit_errors / rec.bits_sent
            expect_ci = 3 * math.sqrt(rec.ber * (1 - rec.ber) / rec.bits_sent)
            assert rec.ci_halfwidth == pytest.approx(expect_ci)
            assert rec.stop_reason == "trial_cap"
            assert type(rec.bits_sent) is int and type(rec.bit_errors) is int

    @pytest.mark.parametrize("cap", [10**7, 10**20])
    def test_batches_made_one_at_a_time(self, cap):
        """A point that stops after its first batch holds only that batch
        (and, with a pool, the look-ahead the stop discards), however many
        trials its cap allows, also past the 2^63 items a Python ``len``
        can count."""
        cfg = replace(SMALL, num_cells=4, num_elements=3, num_users=2,
                      eb_n0_grid_db=(-30.0,), symbols_per_trial=10,
                      detectors=("proposed",), error_target=1, trials_per_point=cap)
        for threads in (1, 2):
            tracemalloc.start()
            try:
                (rec,) = run_ber(cfg, threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.stop_reason == "error_target"
            assert rec.bits_sent == sim._BATCH_SIZE * 2 * 2 * 10  # one batch of 4-PAM, K = 2
            assert peak < 8 * 2**20, threads

    def test_zero_noise_limit_is_error_free(self):
        """At a very high Eb/N0 with aligned channels, the proposed
        detector makes no errors."""
        cfg = replace(SMALL, eb_n0_grid_db=(80.0,), detectors=("proposed",),
                      trials_per_point=6)
        (rec,) = run_ber(cfg)
        assert rec.bit_errors == 0

    def test_pruning_does_not_change_a_k8_campaign(self, monkeypatch):
        """A K = 8 campaign (65 536 candidates) writes the same CSV whether
        the pruned search decides or, with no node budget, the full search
        decides every observation."""
        from atomris import detect

        cfg = replace(SMALL, num_cells=16, num_elements=60, num_users=8,
                      eb_n0_grid_db=(-24.0, -15.0), trials_per_point=2,
                      symbols_per_trial=20, detectors=("exhaustive",))
        full_search = detect._full_search
        fell_back = []

        def counted(z, *args):
            fell_back.append(z.shape[1])
            return full_search(z, *args)

        monkeypatch.setattr(detect, "_full_search", counted)
        pruned = records_to_csv(run_ber(cfg))
        observations = len(cfg.eb_n0_grid_db) * cfg.trials_per_point * cfg.symbols_per_trial
        assert sum(fell_back) < observations / 2
        fell_back.clear()
        monkeypatch.setattr(detect, "_NODE_WORDS", 0)
        assert records_to_csv(run_ber(cfg)) == pruned
        assert sum(fell_back) == observations

    def test_matches_per_trial_reference(self):
        """The batched campaign (a batch of 8 trials, then one of 3) counts
        what the single-trial chain of public functions counts, trial by
        trial, with the symbols and noise drawn after the alignment's
        starting phases."""
        from atomris.channel import effective_channel, gen_lo_vector
        from atomris.detect import (
            detect_exhaustive_batch, detect_proposed_batch, detect_zf_batch, front_end,
        )
        from atomris.modem import hamming_table, make_pam, noise_sigma
        from atomris.sim import draw_channels, optimize_aligned_phases

        cfg = replace(SMALL, eb_n0_grid_db=(-24.0,), trials_per_point=11, trial_offset=5)
        const = make_pam(cfg.mod_order)
        lut = hamming_table(const)
        errors = dict.fromkeys(cfg.detectors, 0)
        for t in range(5, 16):
            rng = np.random.default_rng(trial_seed(cfg.master_seed, -24.0, t))
            ch = draw_channels(cfg, rng)
            b = gen_lo_vector(cfg.num_cells, cfg.lo, rng)
            theta, _ = optimize_aligned_phases(ch, b, cfg.adam, rng)
            h_eq = effective_channel(ch, theta)
            sent = rng.integers(0, const.order, size=(cfg.num_users, cfg.symbols_per_trial))
            shape = (cfg.num_cells, cfg.symbols_per_trial)
            scale = math.sqrt(noise_sigma(-24.0, cfg.mod_order).sigma2 / 2.0)
            noise = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            y = front_end(h_eq, const.points[sent], b, noise)
            got = {
                "proposed": detect_proposed_batch(np.abs(y), h_eq, b, const),
                "exhaustive": detect_exhaustive_batch(np.abs(y), h_eq, b, const),
                "zf_genie": detect_zf_batch(y, h_eq, b, const),
            }
            for det in cfg.detectors:
                errors[det] += int(lut[sent, got[det]].sum())
        assert {r.detector: r.bit_errors for r in run_ber(cfg)} == errors

    def test_no_ris_campaign_runs(self):
        """N = 0 degenerates to the direct channel; the campaign still
        produces valid records."""
        cfg = replace(SMALL, num_elements=0, trials_per_point=4,
                      detectors=("proposed", "zf_genie"))
        records = run_ber(cfg)
        assert len(records) == 4
        assert all(r.bits_sent > 0 for r in records)

    def test_trial_partition_merges_to_full(self):
        full = run_ber(SMALL)
        half1 = run_ber(replace(SMALL, trials_per_point=6))
        half2 = run_ber(replace(SMALL, trials_per_point=6, trial_offset=6))
        merged = merge_records(half1, half2)
        assert records_to_csv(merged) == records_to_csv(full)

    def test_draw_threads_do_not_change_records(self):
        """Batches of 8 and 4 trials, drawn one batch ahead by the one
        worker that ``threads`` 0, 2, 3 and 5 each start, and by the
        calling thread taking the trials it has not started, give the
        one-thread records, also with more threads than cores switching
        every microsecond, and when points stop on the error target (after
        two and three batches, and at the cap of 4 + 1/2 batches) with their
        look-ahead queued; a negative count is refused."""
        stops = replace(SMALL, eb_n0_grid_db=(-30.0, -22.0, -18.0), error_target=400,
                        trials_per_point=36)
        assert [r.bits_sent // (2 * 2 * SMALL.symbols_per_trial) for r in run_ber(stops)
                if r.detector == "proposed"] == [16, 24, 36]
        for cfg in (replace(SMALL, error_target=200), stops):
            serial = run_ber(cfg)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for threads in (0, 2, 3, 5):
                    assert run_ber(cfg, threads) == serial, threads
            finally:
                sys.setswitchinterval(interval)
        with pytest.raises(ValueError, match="threads"):
            run_ber(cfg, -1)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_no_worker_outlives_the_call(self, threads):
        """The pool's threads are gone when ``run_ber`` returns: after a
        full campaign, and after one whose only point stops on the error
        target while the next batch is queued on the pool."""
        baseline = threading.active_count()
        run_ber(replace(SMALL, trials_per_point=20), threads)
        assert threading.active_count() == baseline
        (rec,) = run_ber(replace(SMALL, eb_n0_grid_db=(-40.0,), detectors=("proposed",),
                                 error_target=1, trials_per_point=10**6), threads)
        assert rec.stop_reason == "error_target"
        assert rec.bits_sent == sim._BATCH_SIZE * 2 * 2 * SMALL.symbols_per_trial
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_raising_draw_stops_the_campaign(self, monkeypatch, threads):
        """A draw that raises, on a worker or on the calling thread, ends
        ``run_ber`` with the exception it raised at one thread, and no
        worker outlives the call."""
        draw_start = sim._draw_start

        def failing_draw_start(cfg, t):
            if t == 10:  # the second batch: drawn ahead on the pool
                raise RuntimeError("draw failed")
            return draw_start(cfg, t)

        monkeypatch.setattr(sim, "_draw_start", failing_draw_start)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_ber(SMALL, threads)
        assert threading.active_count() == baseline

    def test_singular_trial_refused_as_alone(self, rank_deficient):
        """Trials 3 and 6 of a batch of 8 compose rank-deficient channels:
        the campaign stops with trial 3's SingularMatrixError, its own
        condition number in the message, as a call on that trial alone
        stops."""
        from atomris.detect import ls_estimate
        from atomris.errors import SingularMatrixError

        composed = rank_deficient(3, 6)
        with pytest.raises(SingularMatrixError) as batch:
            run_ber(replace(SMALL, trials_per_point=8))
        alone = []
        for t in (3, 6):
            with pytest.raises(SingularMatrixError) as info:
                ls_estimate(composed[t], np.ones((SMALL.num_cells, 1)))
            alone.append(str(info.value))
        assert str(batch.value) == alone[0] != alone[1]

    @pytest.mark.parametrize("cfg", [SMALL, _STOPS, *_GOLDENS.values()],
                             ids=["no-target", "error-target", *_GOLDENS])
    def test_grid_partition_merges_to_full(self, cfg):
        """Each point of a multi-point run equals a one-point run at that
        point, also when the points stop on the error target after
        different batches (2, 3 and 6 of ``_STOPS``'s 13), and at the
        shapes two goldens pin, where every point of a batch calls the
        receivers built once for it, so grid slices merge to the full
        run."""
        full = run_ber(cfg)
        points = [run_ber(replace(cfg, eb_n0_grid_db=(db,))) for db in cfg.eb_n0_grid_db]
        assert [rec for records in points for rec in records] == full
        assert records_to_csv(functools.reduce(merge_records, points)) == records_to_csv(full)

    def test_each_trial_drawn_once_for_the_grid(self, monkeypatch):
        """A 3-point campaign draws each of its trials once, not once per
        point; with an error target, only the trials of its longest-running
        point (48 of a cap of 100)."""
        draw_start = sim._draw_start
        drawn = []

        def counting_draw_start(cfg, t):
            drawn.append(t)
            return draw_start(cfg, t)

        monkeypatch.setattr(sim, "_draw_start", counting_draw_start)
        run_ber(replace(_STOPS, error_target=None, trials_per_point=20, trial_offset=3))
        assert drawn == list(range(3, 23))
        drawn.clear()
        trials = [r.bits_sent // (2 * 2 * SMALL.symbols_per_trial) for r in run_ber(_STOPS)
                  if r.detector == "proposed"]
        assert trials == [16, 24, 48]
        assert drawn == list(range(48))

    def test_one_least_squares_receiver_per_batch(self, monkeypatch):
        """``proposed`` and ``zf_genie`` share one least-squares receiver: a
        batch builds one ``_least_squares`` for all its grid points and
        both detectors, and a campaign of two batches two."""
        least_squares = detect._least_squares
        built = []

        def counting_least_squares(h_eq):
            built.append(h_eq.shape)
            return least_squares(h_eq)

        monkeypatch.setattr(detect, "_least_squares", counting_least_squares)
        cfg = replace(_STOPS, error_target=None, trials_per_point=8)
        assert {"proposed", "zf_genie"} <= set(cfg.detectors) and len(cfg.eb_n0_grid_db) == 3
        run_ber(cfg)
        assert built == [(8, 12, 2)]
        built.clear()
        run_ber(replace(cfg, trials_per_point=11))
        assert built == [(8, 12, 2), (3, 12, 2)]

    def test_points_solve_nothing_and_reuse_the_batch_buffers(self, monkeypatch):
        """A one-batch, three-point campaign with both least-squares
        detectors calls ``np.linalg.solve`` once, for the batch's
        pseudo-inverses, and at every point reads y (complex) and z (real)
        from the same two arrays: no point solves normal equations or
        allocates an observation, and none is re-phased."""
        solve, require_finite = np.linalg.solve, sim._require_finite
        solves, observations = [], []

        def counting_solve(*args):
            solves.append(args[0].shape)
            return solve(*args)

        def recording_require_finite(**arrays):
            if "h_eq" not in arrays:
                observations.append({name: (a.ctypes.data, a.dtype) for name, a in arrays.items()})
            require_finite(**arrays)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(sim, "_require_finite", recording_require_finite)
        cfg = replace(_STOPS, error_target=None, trials_per_point=8)
        run_ber(cfg)
        assert solves == [(8, 2, 2)]
        assert len(observations) == 3 and all(o == observations[0] for o in observations)
        assert [dtype for _, dtype in observations[0].values()] == [float, complex]

    def test_early_abort_records_reason(self):
        cfg = replace(SMALL, eb_n0_grid_db=(-40.0,), error_target=5,
                      trials_per_point=40)
        records = run_ber(cfg)
        assert all(r.stop_reason == "error_target" for r in records)
        # aborted runs sent fewer bits than the full campaign would
        full_bits = 40 * SMALL.symbols_per_trial * 2 * 2
        assert all(r.bits_sent < full_bits for r in records)

    def test_genie_matches_scalar_awgn_theory(self, monkeypatch):
        """K=1 with an identity-like channel: genie-ZF BER matches the
        closed-form PAM-over-AWGN error rate within 3 sigma."""
        q = 4
        db = 9.0
        cfg = SimConfig(
            num_cells=1, num_elements=0, num_users=1, mod_order=q,
            eb_n0_grid_db=(db,), trials_per_point=200, symbols_per_trial=200,
            detectors=("zf_genie",), master_seed=17, error_target=None,
            lo=LOParams(power=0.0, path_loss_span=(1.0, 1.0)),
        )
        # pin the channel to h_uv = 1 so the genie observation is s + n
        from atomris import sim as sim_mod
        from atomris.channel import ChannelSet

        def fixed_channels(cfg_inner, rng):
            return ChannelSet(
                h_ur=np.zeros((0, 1)), h_rv=np.zeros((1, 0)),
                h_uv=np.ones((1, 1), dtype=complex),
            )

        monkeypatch.setattr(sim_mod, "draw_channels", fixed_channels)
        (rec,) = run_ber(cfg)

        sigma2 = 1.0 / (2 * 10 ** (db / 10.0))
        # real-part noise has variance sigma^2/2; Gray labels make
        # BER ~ symbol-error / log2(Q) at moderate SNR
        delta = 2.0 / math.sqrt((q * q - 1) / 3.0)
        arg = (delta / 2.0) / math.sqrt(sigma2 / 2.0)
        p_sym = 2.0 * (1.0 - 1.0 / q) * 0.5 * math.erfc(arg / math.sqrt(2.0))
        ber_theory = p_sym / math.log2(q)
        assert abs(rec.ber - ber_theory) <= rec.ci_halfwidth + 3e-4

    def test_monotone_in_snr_up_to_bands(self):
        cfg = replace(SMALL, eb_n0_grid_db=(-30.0, -26.0, -22.0, -18.0),
                      detectors=("proposed",), trials_per_point=16)
        recs = sorted(run_ber(cfg), key=lambda r: r.eb_n0_db)
        for lo, hi in zip(recs, recs[1:]):
            assert hi.ber <= lo.ber + lo.ci_halfwidth + hi.ci_halfwidth


def _batch_record(trials, errors):
    """A synthetic batch record of ``trials`` trials whose first trial
    made ``errors`` (one count per detector) and the others none."""
    record = np.zeros((trials, len(errors)), dtype=np.int64)
    record[0] = errors
    return record


class TestFoldPoint:
    """The fold step alone, on synthetic batch records: no trial runs."""

    CFG = replace(SMALL, detectors=("proposed", "zf_genie"), error_target=10)

    def steps(self, records, cfg=CFG):
        """The tally (trials, errors) and the stop flag after each of
        ``records``, stepped from an empty tally as ``run_ber`` steps it."""
        tally = (0, np.zeros(len(cfg.detectors), dtype=np.int64))
        out = []
        for record in records:
            tally, stop = sim._fold_point(cfg, tally, record)
            out.append((tally[0], tally[1].tolist(), stop))
        return out

    def test_stops_after_the_batch_where_every_detector_reaches_the_target(self):
        records = [_batch_record(8, (4, 12)), _batch_record(8, (4, 0)), _batch_record(8, (2, 0))]
        assert self.steps(records) == [
            (8, [4, 12], False), (16, [8, 12], False), (24, [10, 12], True)]

    def test_one_detector_at_the_target_does_not_stop(self):
        records = [_batch_record(8, (50, 9)), _batch_record(8, (50, 0))]
        assert self.steps(records) == [(8, [50, 9], False), (16, [100, 9], False)]

    def test_partial_last_batch_at_the_trial_cap(self):
        records = [_batch_record(8, (1, 2)), _batch_record(8, (0, 0)), _batch_record(3, (3, 0))]
        assert self.steps(records)[-1] == (19, [4, 2], False)

    def test_no_target_never_stops(self):
        records = [_batch_record(8, (500, 500))] * 3
        steps = self.steps(records, replace(self.CFG, error_target=None))
        assert [stop for *_, stop in steps] == [False] * 3


class TestMergeRecords:
    def rec(self, db, det, bits, errs):
        return BerRecord(db, det, bits, errs, errs / bits,
                         3 * math.sqrt((errs / bits) * (1 - errs / bits) / bits))

    def test_merge_with_empty_is_identity(self):
        a = [self.rec(-20.0, "proposed", 1000, 17)]
        assert merge_records(a, []) == a
        assert merge_records([], a) == a

    def test_self_merge_doubles_counts(self):
        a = [self.rec(-20.0, "proposed", 1000, 17)]
        (m,) = merge_records(a, a)
        assert m.bits_sent == 2000 and m.bit_errors == 34
        assert m.ber == pytest.approx(17 / 1000)

    def test_order_invariant(self):
        a = [self.rec(-20.0, "proposed", 1000, 17)]
        b = [self.rec(-20.0, "proposed", 500, 3), self.rec(-18.0, "proposed", 500, 1)]
        c = [self.rec(-18.0, "proposed", 700, 2)]
        left = merge_records(merge_records(a, b), c)
        right = merge_records(a, merge_records(b, c))
        assert left == right
        assert merge_records(b, a)[0] == merge_records(a, b)[0]

    def test_duplicate_keys_rejected(self):
        a = [self.rec(-20.0, "proposed", 100, 1), self.rec(-20.0, "proposed", 100, 2)]
        with pytest.raises(ValueError, match="duplicate"):
            merge_records(a, [])


# Records over a few keys, so that inputs share keys often; -0.0 and 0.0
# are one grid point to the merge.
_record_keys = st.tuples(
    st.sampled_from((-30.0, -24.5, -0.0, 0.0, 12.0)), st.sampled_from(sim.DETECTOR_NAMES)
)


@st.composite
def _records(draw, key=_record_keys):
    db, det = draw(key)
    bits = draw(st.integers(0, 10**9))
    errors = draw(st.integers(0, bits))
    reason = draw(st.sampled_from(("trial_cap", "error_target", "mixed")))
    return sim._make_record(db, det, bits, errors, reason)


_campaigns = st.lists(_records(), max_size=8, unique_by=lambda r: (r.eb_n0_db, r.detector))


def _exact(records):
    """Every field of every record, with the sign of a zero kept."""
    return [repr(r) for r in records]


_ZERO, _NEG_ZERO = (sim._make_record(db, "proposed", 10, 1, "trial_cap") for db in (0.0, -0.0))


class TestMergeProperties:
    @given(_campaigns, _campaigns)
    @example([_NEG_ZERO], [_ZERO])
    def test_commutative(self, a, b):
        assert _exact(merge_records(a, b)) == _exact(merge_records(b, a))

    @given(_campaigns, _campaigns, _campaigns)
    @example([_NEG_ZERO], [_ZERO], [_NEG_ZERO])
    def test_associative(self, a, b, c):
        left = merge_records(merge_records(a, b), c)
        right = merge_records(a, merge_records(b, c))
        assert _exact(left) == _exact(right)

    @given(_campaigns, _campaigns)
    def test_counts_add_and_reasons_combine(self, a, b):
        merged = {(r.eb_n0_db, r.detector): r for r in merge_records(a, b)}
        assert len(merged) == len({(r.eb_n0_db, r.detector) for r in a + b})
        for key, rec in merged.items():
            parts = [r for r in a + b if (r.eb_n0_db, r.detector) == key]
            assert rec.bits_sent == sum(r.bits_sent for r in parts)
            assert rec.bit_errors == sum(r.bit_errors for r in parts)
            reasons = {r.stop_reason for r in parts}
            assert rec.stop_reason == (reasons.pop() if len(reasons) == 1 else "mixed")

    @given(_campaigns, _campaigns, st.data())
    def test_duplicate_key_rejected_in_either_input(self, a, b, data):
        assume(a)
        dup = data.draw(_records(key=st.sampled_from([(r.eb_n0_db, r.detector) for r in a])))
        bad = data.draw(st.permutations(a + [dup]))
        with pytest.raises(ValueError, match="duplicate record key"):
            merge_records(bad, b)
        with pytest.raises(ValueError, match="duplicate record key"):
            merge_records(b, bad)


class TestTrialSeedProperties:
    @given(st.integers(0, 2**63), st.integers(0, 2**32))
    def test_negative_zero_is_keyed_as_zero(self, seed, trial):
        neg, pos = trial_seed(seed, -0.0, trial), trial_seed(seed, 0.0, trial)
        assert neg.spawn_key == pos.spawn_key
        assert np.array_equal(neg.generate_state(4), pos.generate_state(4))

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 2**32))
    @example(1.0, np.nextafter(1.0, 2.0), 0)
    @example(5e-324, 0.0, 7)
    @example(-5e-324, -0.0, 7)
    def test_key_ignores_the_point_and_separates_trials(self, x, y, trial):
        """Any two grid points key a trial alike, and the next trial apart."""
        key = trial_seed(3, x, trial).spawn_key
        assert trial_seed(3, y, trial).spawn_key == key
        assert trial_seed(3, y, trial + 1).spawn_key != key


class TestCsv:
    def test_header_and_determinism(self):
        recs = run_ber(replace(SMALL, trials_per_point=4))
        text = records_to_csv(recs)
        assert text.splitlines()[0] == "eb_n0_db,detector,bits_sent,bit_errors,ber,ci_halfwidth"
        assert records_to_csv(run_ber(replace(SMALL, trials_per_point=4))) == text
