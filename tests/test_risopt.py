"""Tests for the phase-shift objective, gradient, optimizer, and the
equivalence machinery between the Frobenius and signal-domain objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomris.channel import ChannelSet, effective_channel, gen_lo_vector
from atomris.risopt import (
    AdamConfig,
    adam_optimize_batch,
    build_rank_one_cache,
    gradient_op_count,
    objective,
    objective_and_gradient,
    random_phases,
)
from atomris.sim import SimConfig, draw_channels, optimize_aligned_phases, trial_seed
from conftest import standard_complex_normal


def random_set(m, n, k, seed):
    rng = np.random.default_rng(seed)
    return ChannelSet(
        h_ur=standard_complex_normal(rng, (n, k)),
        h_rv=standard_complex_normal(rng, (m, n)),
        h_uv=standard_complex_normal(rng, (m, k)),
    )


def finite_difference(theta, cache, h_uv, step=1e-6):
    fd = np.empty(theta.size)
    for n in range(theta.size):
        tp = theta.copy()
        tp[n] += step
        tm = theta.copy()
        tm[n] -= step
        fd[n] = (objective(tp, cache, h_uv) - objective(tm, cache, h_uv)) / (2 * step)
    return fd


def rank_one_terms(op):
    """The (N, M, K) complex rank-one terms V_n = h_rv[:, n] outer h_ur[n, :]
    rebuilt from the factored operand: R's column pairs are (Im, Re) of
    h_rv's columns and G is h_ur^T."""
    r, g = op
    h_rv = r[:, 1::2] + 1j * r[:, 0::2]
    return np.einsum("mn,kn->nmk", h_rv, g)


class TestRankOneCache:
    def test_single_element_outer_product(self):
        ch = random_set(3, 1, 2, 0)
        r, g = build_rank_one_cache(ch)
        assert r.shape == (3, 2) and g.shape == (2, 1)
        assert r.flags.c_contiguous and g.flags.c_contiguous
        v0 = rank_one_terms((r, g))[0]
        assert np.allclose(v0, np.outer(ch.h_rv[:, 0], ch.h_ur[0]))
        assert np.linalg.matrix_rank(v0) <= 1

    def test_zero_column_gives_zero_term(self):
        """A zero RIS-to-cell column is a zero column pair of R and a zero
        rank-one term, so J does not depend on that element's phase."""
        ch = random_set(3, 4, 2, 1)
        h_rv = ch.h_rv.copy()
        h_rv[:, 2] = 0
        op = build_rank_one_cache(ChannelSet(ch.h_ur, h_rv, ch.h_uv))
        assert np.all(op[0][:, [4, 5]] == 0)
        assert np.all(rank_one_terms(op)[2] == 0)
        theta = np.random.default_rng(2).uniform(0, 2 * np.pi, 4)
        j_val, grad = objective_and_gradient(theta, op, ch.h_uv)
        assert grad[2] == 0.0
        theta[2] += 1.0
        assert objective(theta, op, ch.h_uv) == pytest.approx(j_val, abs=1e-12)

    def test_consistent_with_effective_channel(self):
        """Sum of e^{j theta_n} V_n plus h_uv equals the composed channel."""
        ch = random_set(4, 6, 3, 2)
        op = build_rank_one_cache(ch)
        theta = np.random.default_rng(3).uniform(0, 2 * np.pi, 6)
        recomposed = ch.h_uv + np.tensordot(np.exp(1j * theta), rank_one_terms(op), axes=1)
        assert np.allclose(recomposed, effective_channel(ch, theta), atol=1e-12)


class TestKernelProperties:
    """J and its gradient on random shapes, N = 0 included."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 9), n=st.integers(0, 9), k=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_objective_and_gradient(self, m, n, k, seed):
        rng = np.random.default_rng(seed)

        def cgauss(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        ch = ChannelSet(cgauss((n, k)), cgauss((m, n)), cgauss((m, k)))
        op = build_rank_one_cache(ch)
        theta = rng.uniform(0, 2 * np.pi, n)
        j_val, g = objective_and_gradient(theta, op, ch.h_uv)
        assert j_val == pytest.approx(np.sum(effective_channel(ch, theta).imag ** 2),
                                      rel=1e-12, abs=1e-12)
        assert g.shape == (n,)
        # Central differences at step 1e-6: truncation and roundoff both stay
        # below 1e-6 of J's scale.
        fd = finite_difference(theta, op, ch.h_uv)
        assert np.all(np.abs(g - fd) <= 1e-6 * max(1.0, j_val) + 1e-6 * np.abs(g))


class TestObjective:
    def test_all_real_at_zero_phase(self):
        ch = ChannelSet(
            h_ur=np.ones((2, 1)), h_rv=np.ones((3, 2)), h_uv=np.ones((3, 1))
        )
        cache = build_rank_one_cache(ch)
        assert objective(np.zeros(2), cache, ch.h_uv) == 0.0

    def test_no_ris_collapses_to_direct(self):
        h_uv = np.random.default_rng(0).standard_normal((3, 2)) * 1j
        ch = ChannelSet(np.zeros((0, 2)), np.zeros((3, 0)), h_uv)
        cache = build_rank_one_cache(ch)
        assert objective(np.zeros(0), cache, h_uv) == pytest.approx(
            np.sum(h_uv.imag**2)
        )

    def test_matches_effective_channel_path(self):
        """Two independent formula paths agree to 1e-12."""
        ch = random_set(3, 5, 2, 4)
        cache = build_rank_one_cache(ch)
        for seed in range(10):
            theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, 5)
            direct = np.sum(effective_channel(ch, theta).imag ** 2)
            assert objective(theta, cache, ch.h_uv) == pytest.approx(direct, abs=1e-12)

    def test_two_pi_periodic(self):
        ch = random_set(4, 6, 2, 5)
        cache = build_rank_one_cache(ch)
        theta = np.random.default_rng(6).uniform(0, 2 * np.pi, 6)
        base = objective(theta, cache, ch.h_uv)
        for n in range(6):
            shifted = theta.copy()
            shifted[n] += 2 * np.pi
            assert objective(shifted, cache, ch.h_uv) == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        ch = random_set(3, 4, 2, 7)
        cache = build_rank_one_cache(ch)
        with pytest.raises(ValueError):
            objective(np.zeros(5), cache, ch.h_uv)

    @pytest.mark.parametrize("n", [0, 1, 24])
    def test_same_value_as_objective_and_gradient(self, n):
        """Both read the one evaluation kernel: bit-identical J,
        including the no-RIS case."""
        ch = random_set(12, max(n, 1), 3, 8)
        ch = ChannelSet(ch.h_ur[:n], ch.h_rv[:, :n], ch.h_uv)
        cache = build_rank_one_cache(ch)
        for seed in range(5):
            theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
            j_val = objective(theta, cache, ch.h_uv)
            assert j_val == objective_and_gradient(theta, cache, ch.h_uv)[0]


class TestGradient:
    def test_zero_at_real_channels(self):
        ch = ChannelSet(np.ones((3, 2)), np.ones((4, 3)), np.ones((4, 2)))
        cache = build_rank_one_cache(ch)
        assert np.allclose(objective_and_gradient(np.zeros(3), cache, ch.h_uv)[1], 0.0)

    def test_matches_finite_differences(self):
        """The mandated pre-build check: central differences on random
        instances, relative error < 1e-5 per component."""
        rng = np.random.default_rng(10)
        for _ in range(50):
            m, n, k = rng.integers(1, 9, 3)
            ch = random_set(m, n, k, rng.integers(0, 2**31))
            cache = build_rank_one_cache(ch)
            theta = rng.uniform(0, 2 * np.pi, n)
            g = objective_and_gradient(theta, cache, ch.h_uv)[1]
            fd = finite_difference(theta, cache, ch.h_uv)
            denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
            assert np.max(np.abs(g - fd) / denom) < 1e-5

    def test_scalar_closed_form(self):
        """M=K=N=1: J = (Im c + cos t Im v + sin t Re v)^2 differentiated
        by hand."""
        rng = np.random.default_rng(11)
        c = complex(rng.standard_normal(), rng.standard_normal())
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        v = a * b
        ch = ChannelSet(np.array([[b]]), np.array([[a]]), np.array([[c]]))
        cache = build_rank_one_cache(ch)
        for t in rng.uniform(0, 2 * np.pi, 10):
            q = c.imag + np.cos(t) * v.imag + np.sin(t) * v.real
            expected = 2 * q * (-np.sin(t) * v.imag + np.cos(t) * v.real)
            got = objective_and_gradient(np.array([t]), cache, ch.h_uv)[1][0]
            assert got == pytest.approx(expected, abs=1e-12)


class TestAdam:
    def test_fixed_point_at_zero_gradient(self):
        """All-real channels at theta = 0: phases never move."""
        ch = ChannelSet(np.ones((3, 2)), np.ones((4, 3)), np.ones((4, 2)))
        theta, trace = adam_optimize_batch(
            np.zeros(3), build_rank_one_cache(ch), ch.h_uv, AdamConfig(max_iters=20)
        )
        assert np.array_equal(theta, np.zeros(3))
        assert np.allclose(trace.objective, 0.0)

    def test_large_configuration_plateaus(self):
        """M=36, N=150, K=3 with default hyperparameters: the objective
        collapses within the 100-iteration budget."""
        ch = random_set(36, 150, 3, 12)
        _, trace = optimize_aligned_phases(
            ch, np.ones(36), AdamConfig(), np.random.default_rng(1)
        )
        assert len(trace) == 100
        assert trace.objective[-1] < 0.05 * trace.objective[0]

    def test_trace_lengths_and_descent(self):
        ch = random_set(6, 10, 2, 14)
        cache = build_rank_one_cache(ch)
        theta, trace = optimize_aligned_phases(
            ch, np.ones(6), AdamConfig(max_iters=60), np.random.default_rng(3)
        )
        assert len(trace) == 60
        assert trace.grad_norm.shape == (60,)
        running_min = np.minimum.accumulate(trace.objective)
        assert np.all(np.diff(running_min) <= 0)
        assert objective(theta, cache, ch.h_uv) < trace.objective[0]

    def test_descent_over_seeded_runs(self):
        """100 seeded runs at the 36/150/3 configuration: the final
        objective is strictly below the initial one in every run, and the
        running minimum never increases."""
        ch = random_set(36, 150, 3, 77)
        cache = build_rank_one_cache(ch)
        for seed in range(100):
            theta, trace = optimize_aligned_phases(
                ch, np.ones(36), AdamConfig(), np.random.default_rng(seed)
            )
            assert objective(theta, cache, ch.h_uv) < trace.objective[0]
            assert np.all(np.diff(np.minimum.accumulate(trace.objective)) <= 0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AdamConfig(step=-1.0)
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(max_iters=0)


def dephased_problem(cfg, trial):
    """A campaign trial's de-phased operand and h_uv, its starting
    phases, and the (channels, LO, generator) that optimize_aligned_phases
    gets for the same trial."""
    rng = np.random.default_rng(trial_seed(cfg.master_seed, -20.0, trial))
    ch = draw_channels(cfg, rng)
    b = gen_lo_vector(cfg.num_cells, cfg.lo, rng)
    rot = np.exp(-1j * np.angle(b))[:, None]
    dephased = ChannelSet(ch.h_ur, rot * ch.h_rv, rot * ch.h_uv)
    state = rng.bit_generator.state
    theta0 = random_phases(cfg.num_elements, rng)
    rng.bit_generator.state = state
    op = build_rank_one_cache(dephased)
    return op, dephased.h_uv, theta0, (ch, b, rng)


class TestBatchedAdam:
    """Each row of the batched Adam loop, and of the objective on a stack,
    equals its trial run alone, and its trace's rows equal that trial's
    trace."""

    CFGS = {
        "k2": SimConfig(num_cells=12, num_elements=24, num_users=2, master_seed=4),
        "k8": SimConfig(num_cells=16, num_elements=40, num_users=8, master_seed=4),
        "no-ris": SimConfig(num_cells=12, num_elements=0, num_users=2, master_seed=4),
    }

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_rows_equal_single_trial_runs(self, batch):
        for cfg in self.CFGS.values():
            self.check_rows(cfg, batch)

    def check_rows(self, cfg, batch):
        adam = AdamConfig(max_iters=60)
        problems = [dephased_problem(cfg, t) for t in range(batch)]
        op = tuple(np.stack([p[0][i] for p in problems]) for i in range(2))
        h_uv = np.stack([p[1] for p in problems])
        theta0 = np.stack([p[2] for p in problems])
        thetas, trace = adam_optimize_batch(theta0, op, h_uv, adam)
        j_vals, grads = objective_and_gradient(theta0, op, h_uv)
        assert thetas.shape == (batch, cfg.num_elements)
        assert trace.objective.shape == trace.grad_norm.shape == (batch, 60) and len(trace) == 60
        assert j_vals.shape == (batch,) and grads.shape == (batch, cfg.num_elements)
        assert gradient_op_count(op) == gradient_op_count(problems[0][0])
        for i, (one_op, one_h_uv, start, (ch, b, rng)) in enumerate(problems):
            alone, alone_trace = adam_optimize_batch(start, one_op, one_h_uv, adam)
            aligned, aligned_trace = optimize_aligned_phases(ch, b, adam, rng)
            for other, other_trace in ((alone, alone_trace), (aligned, aligned_trace)):
                assert np.array_equal(thetas[i], other)
                assert np.array_equal(trace.objective[i], other_trace.objective)
                assert np.array_equal(trace.grad_norm[i], other_trace.grad_norm)
            j_val, grad = objective_and_gradient(start, one_op, one_h_uv)
            assert (j_vals[i].tobytes(), grads[i].tobytes()) == (j_val.tobytes(), grad.tobytes())

        # Broadcast rows: one trial's operand under every row, from each
        # problem's start (criterion 4 runs its restarts this way).
        op, h_uv = problems[0][0], problems[0][1]
        broadcast = tuple(np.broadcast_to(a, (batch, *a.shape)) for a in op)
        thetas, trace = adam_optimize_batch(
            theta0, broadcast, np.broadcast_to(h_uv, (batch, *h_uv.shape)), adam
        )
        for start, theta, objective_row, grad_norm_row in zip(
                theta0, thetas, trace.objective, trace.grad_norm):
            alone, alone_trace = adam_optimize_batch(start, op, h_uv, adam)
            assert np.array_equal(theta, alone)
            assert np.array_equal(objective_row, alone_trace.objective)
            assert np.array_equal(grad_norm_row, alone_trace.grad_norm)

    def test_leading_axes(self):
        """Trials stacked on two leading axes (2, 3) give the rows of the
        same six trials stacked on one."""
        rng = np.random.default_rng(15)
        m, n, k = 4, 6, 2
        op = (rng.standard_normal((2, 3, m, 2 * n)),
              rng.standard_normal((2, 3, k, n)) + 1j * rng.standard_normal((2, 3, k, n)))
        h_uv = rng.standard_normal((2, 3, m, k)) + 1j * rng.standard_normal((2, 3, m, k))
        theta0 = rng.uniform(0, 2 * np.pi, (2, 3, n))
        adam = AdamConfig(max_iters=10)
        thetas, trace = adam_optimize_batch(theta0, op, h_uv, adam)
        flat = [a.reshape(6, *a.shape[2:]) for a in (theta0, *op, h_uv)]
        flat_thetas, flat_trace = adam_optimize_batch(flat[0], tuple(flat[1:3]), flat[3], adam)
        assert thetas.shape == (2, 3, n) and trace.objective.shape == (2, 3, 10)
        assert np.array_equal(thetas.reshape(6, n), flat_thetas)
        assert np.array_equal(trace.objective.reshape(6, 10), flat_trace.objective)
        assert np.array_equal(trace.grad_norm.reshape(6, 10), flat_trace.grad_norm)
        assert np.array_equal(objective(theta0, op, h_uv).reshape(6),
                              objective(flat[0], tuple(flat[1:3]), flat[3]))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 1, 2), (5, 7, 3)])
    def test_small_rows_equal_single_trial_runs(self, shape):
        """Rows equal their trial alone, traces included, also where a
        trial's phasor or complex terms are one element: numpy rounds a
        one-element complex product written over an operand without FMA,
        unlike the same product inside a longer array."""
        m, n, k = shape
        rng = np.random.default_rng(m * 100 + n * 10 + k)
        batch, adam = 5, AdamConfig(max_iters=30)
        op = (rng.standard_normal((batch, m, 2 * n)),
              rng.standard_normal((batch, k, n)) + 1j * rng.standard_normal((batch, k, n)))
        h_uv = 1j * rng.standard_normal((batch, m, k))
        theta0 = rng.uniform(0, 2 * np.pi, (batch, n))
        thetas, trace = adam_optimize_batch(theta0, op, h_uv, adam)
        for i, theta in enumerate(thetas):
            alone, alone_trace = adam_optimize_batch(theta0[i], (op[0][i], op[1][i]), h_uv[i], adam)
            assert np.array_equal(theta, alone)
            assert np.array_equal(trace.objective[i], alone_trace.objective)
            assert np.array_equal(trace.grad_norm[i], alone_trace.grad_norm)

    @pytest.mark.parametrize("max_iters", [1, 2, 50])
    def test_trace_is_objective_at_each_iterate(self, max_iters):
        """The loop turns e^{j theta} by each step instead of taking cos and
        sin of theta, yet every trace entry is J at that iteration's
        phases as ``objective`` computes it, within 1e-12 relative (the
        first exactly).  Iteration i's phases are what a run of i
        iterations returns; theta0 for i = 0."""
        op, h_uv, theta0, _ = dephased_problem(SimConfig(master_seed=4), 0)
        _, trace = adam_optimize_batch(theta0, op, h_uv, AdamConfig(max_iters=max_iters))
        assert trace.objective[0] == objective(theta0, op, h_uv)
        for i, j_val in enumerate(trace.objective[1:], start=1):
            theta, _ = adam_optimize_batch(theta0, op, h_uv, AdamConfig(max_iters=i))
            assert j_val == pytest.approx(objective(theta, op, h_uv), rel=1e-12, abs=0.0)

    def test_no_ris_rows(self):
        """N = 0: nothing to optimize; each row records the direct J at
        every iteration, with a zero gradient."""
        q0 = np.random.default_rng(9).standard_normal((3, 4, 2))
        op = (np.zeros((3, 4, 0)), np.zeros((3, 2, 0), dtype=complex))
        thetas, trace = adam_optimize_batch(np.zeros((3, 0)), op, 1j * q0, AdamConfig(max_iters=5))
        assert thetas.shape == (3, 0)
        assert len(trace) == 5
        for row, objective_row, grad_norm_row in zip(q0, trace.objective, trace.grad_norm):
            assert objective_row == pytest.approx(np.full(5, np.sum(row * row)))
            assert np.all(grad_norm_row == 0.0)


class TestOptimizerContract:
    """Every entry reads its arguments through one contract: shapes that
    disagree and non-finite phases are refused by name, on one trial and
    on a stack, and a call in the old argument order fails."""

    @staticmethod
    def problem(lead):
        rng = np.random.default_rng(31)
        m, n, k = 4, 5, 2
        op = (rng.standard_normal((*lead, m, 2 * n)),
              rng.standard_normal((*lead, k, n)) + 1j * rng.standard_normal((*lead, k, n)))
        h_uv = rng.standard_normal((*lead, m, k)) + 1j * rng.standard_normal((*lead, m, k))
        return rng.uniform(0, 2 * np.pi, (*lead, n)), op, h_uv

    ENTRIES = {
        "objective": objective,
        "objective_and_gradient": objective_and_gradient,
        "adam_optimize_batch": lambda theta, op, h_uv: adam_optimize_batch(
            theta, op, h_uv, AdamConfig(max_iters=3)),
    }

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "stack-of-2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_non_finite_phase_rejected(self, entry, value, lead):
        """One non-finite phase is refused by name, not evaluated into a
        non-finite J (NaN) or a RuntimeWarning (+-inf)."""
        theta, op, h_uv = self.problem(lead)
        theta[..., 2] = value
        with pytest.raises(ValueError, match="theta must be finite"):
            self.ENTRIES[entry](theta, op, h_uv)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "stack-of-2"])
    @pytest.mark.parametrize("bad", ["theta-N", "R-M", "R-2N", "G-K", "G-N", "h_uv-M", "h_uv-K",
                                     "theta-lead", "R-lead", "G-lead", "h_uv-lead"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_shape_mismatch_rejected(self, entry, bad, lead):
        theta, (r, g), h_uv = self.problem(lead)
        arrays = {"theta": theta, "R": r, "G": g, "h_uv": h_uv}
        name, axis = bad.split("-")
        a = arrays[name]
        if axis == "lead":
            arrays[name] = np.stack([a, a])  # one leading axis more
        else:
            axis = {"theta-N": -1, "R-M": -2, "R-2N": -1, "G-K": -2, "G-N": -1,
                    "h_uv-M": -2, "h_uv-K": -1}[bad]
            arrays[name] = np.delete(a, 0, axis=axis)
        message = r"shape mismatch: theta \(.*\), R \(.*\), G \(.*\), h_uv \(.*\)"
        with pytest.raises(ValueError, match=message):
            self.ENTRIES[entry](arrays["theta"], (arrays["R"], arrays["G"]), arrays["h_uv"])
        if bad in ("R-2N", "G-N", "R-lead", "G-lead"):  # an operand alone sets M and K
            with pytest.raises(ValueError, match=message):
                gradient_op_count((arrays["R"], arrays["G"]))

    def test_old_argument_order_fails(self):
        """``adam_optimize_batch(op, Im(h_uv), theta0, cfg)``, the order
        before the entries shared the objective's, raises on a stack that
        this order used to optimize."""
        theta, op, h_uv = self.problem((2,))
        with pytest.raises(ValueError):
            adam_optimize_batch(op, h_uv.imag, theta, AdamConfig(max_iters=3))


def aligned_instance(m, n, k, seed, complex_lo):
    """Construct (channels, theta*, b) where the de-phased effective
    channel is exactly real at theta*, plus the de-phased twin set whose
    Frobenius objective vanishes there."""
    rng = np.random.default_rng(seed)

    def cgauss(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    a = cgauss((m, n))
    b_mat = cgauss((n, k))
    theta = rng.uniform(0, 2 * np.pi, n)
    bridge = (a * np.exp(1j * theta)) @ b_mat
    real_target = rng.standard_normal((m, k))
    if complex_lo:
        lo = cgauss(m)
    else:
        lo = np.abs(rng.standard_normal(m)) + 0.5
    rot = np.exp(1j * np.angle(lo))
    h_uv = rot[:, None] * real_target - bridge
    ch = ChannelSet(b_mat, a, h_uv)
    dephased = ChannelSet(
        b_mat, np.conj(rot)[:, None] * a, np.conj(rot)[:, None] * h_uv
    )
    return ch, dephased, theta, lo


def signal_residual(ch, theta, s, b):
    """The pre-reformulation objective
    || Im((H_eq(theta) s) o exp(-j angle(b))) ||^2."""
    return np.sum(((effective_channel(ch, theta) @ s) * np.exp(-1j * np.angle(b))).imag ** 2)


class TestSignalDomainObjective:
    def test_zero_for_real_lo_on_aligned_instance(self):
        """A real LO and a real effective channel null the signal objective
        for every real s."""
        ch, _, theta, lo = aligned_instance(4, 3, 2, 19, complex_lo=False)
        rng = np.random.default_rng(20)
        for _ in range(20):
            s = rng.standard_normal(2)
            assert signal_residual(ch, theta, s, lo) < 1e-18 * (s @ s)

    def test_zero_for_complex_lo_with_phased_rows(self):
        """Rows phased by the LO angles null the signal objective for every
        real s, even for a complex LO."""
        ch, dephased, theta, lo = aligned_instance(4, 3, 2, 21, complex_lo=True)
        cache = build_rank_one_cache(dephased)
        assert objective(theta, cache, dephased.h_uv) < 1e-20
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = rng.standard_normal(2)
            assert signal_residual(ch, theta, s, lo) < 1e-18 * (s @ s)


class TestOpCounting:
    def test_linear_in_elements(self):
        counts = {}
        for n in (50, 100, 200, 400):
            ch = random_set(6, n, 2, 30)
            counts[n] = gradient_op_count(build_rank_one_cache(ch))
        assert counts[400] / counts[200] == pytest.approx(2.0, rel=0.05)
        assert counts[200] / counts[100] == pytest.approx(2.0, rel=0.05)
