"""Tests for the magnitude front end and the three detectors."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atomris import detect
from atomris.channel import ChannelSet, effective_channel, gen_user_ris_channel
from atomris.detect import (
    detect_exhaustive_batch,
    detect_proposed_batch,
    detect_zf_batch,
    enumerate_symbol_vectors,
    front_end,
    ls_estimate,
)
from atomris.errors import BudgetExceededError, SingularMatrixError
from atomris.modem import make_pam, noise_sigma
from atomris.risopt import AdamConfig
from atomris.sim import SimConfig, _draw_start, optimize_aligned_phases


def aligned_system(m, k, seed, lo_mag=500.0):
    """A synthetic perfectly phase-aligned system: h_eq rows carry the LO
    phases times a real matrix, so detection is exactly linear."""
    rng = np.random.default_rng(seed)
    h_opt = rng.standard_normal((m, k)) * 3.0
    b = lo_mag * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    h_eq = np.exp(1j * np.angle(b))[:, None] * h_opt
    return h_eq, h_opt, b


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def column(x):
    """One observation or symbol vector as a batch of one column."""
    return np.asarray(x)[:, None]


def full_matrix_exhaustive(z, h_eq, b, c):
    """Oracle: every candidate scored in one (Q^K, n) matrix."""
    k = h_eq.shape[1]
    combos = np.array(list(product(range(c.order), repeat=k)), dtype=np.intp)
    cand_idx = combos.T.reshape(k, -1)
    cand_mag = np.abs(h_eq @ c.points[cand_idx] + b[:, None])
    scores = np.sum(cand_mag**2, axis=0)[:, None] - 2.0 * (cand_mag.T @ z)
    return cand_idx[:, np.argmin(scores, axis=0)]


def block_budget(block, m, n_obs):
    """A ``detect._BLOCK_BYTES`` that lets one block of the exhaustive
    search hold ``block`` candidates: the trailing users whose Q^k_lo
    combinations fit, times as many prefixes of the others as fit."""
    return block * 8 * (4 * m + 1 + n_obs)


class TestFrontEnd:
    def test_zero_channel_returns_lo_magnitude(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        z = np.abs(front_end(np.zeros((5, 2)), np.zeros((2, 1)), b, np.zeros((5, 1))))
        assert np.allclose(z[:, 0], np.abs(b))

    def test_aligned_exact_regime(self):
        """Noiseless aligned channel with a dominant LO: z is exactly
        |b| + h_opt s."""
        h_eq, h_opt, b = aligned_system(6, 2, 1)
        s = np.array([1.2, -0.7])
        z = np.abs(front_end(h_eq, column(s), b, np.zeros((6, 1))))
        assert np.allclose(z[:, 0], np.abs(b) + h_opt @ s, atol=1e-9)

    def test_zero_noise_spec_is_exact(self):
        rng = np.random.default_rng(7)
        h_eq = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = rng.standard_normal((2, 3))
        y = front_end(h_eq, s, b, np.zeros((4, 3)))
        assert np.array_equal(np.abs(y), np.abs(h_eq @ s + b[:, None]))

    def test_noise_added_last(self):
        """y is (H_eq s + b) + n, rounded in that order, bit for bit."""
        rng = np.random.default_rng(8)
        h_eq = complex_normal(rng, (4, 2))
        b = complex_normal(rng, 4)
        s = rng.standard_normal((2, 3))
        n = 1e-3 * complex_normal(rng, (4, 3))
        assert front_end(h_eq, s, b, n).tobytes() == (h_eq @ s + b[:, None] + n).tobytes()

    def test_global_phase_invariance(self):
        """Rotating h_eq, b, and n by a common phase leaves z unchanged."""
        rng = np.random.default_rng(2)
        h_eq = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        s = rng.standard_normal((2, 5))
        rot = np.exp(1j * 0.77)
        z1 = np.abs(front_end(h_eq, s, b, n))
        z2 = np.abs(front_end(rot * h_eq, s, rot * b, rot * n))
        assert np.allclose(z1, z2, atol=1e-12)

    @staticmethod
    def campaign_noise(cells, symbols, mod_order, eb_n0_db):
        """The noise of the campaign's first trial at ``eb_n0_db``: the unit
        noise ``sim._draw_start`` draws (``cells`` x ``symbols`` samples),
        scaled by sqrt(sigma^2 / 2) as each grid point scales it."""
        cfg = SimConfig(num_cells=cells, num_elements=2, num_users=1, mod_order=mod_order,
                        symbols_per_trial=symbols)
        scale = math.sqrt(noise_sigma(eb_n0_db, mod_order).sigma2 / 2.0)
        return _draw_start(cfg, 0)[-1] * scale

    def test_noise_variance_split(self):
        """Empirical variance of z around |b| matches sigma^2/2 (in-phase
        component only, strong-LO regime) for the campaign's noise at
        Eb/N0 = -3 dB, sigma^2 = 1 / (log2 Q 10^(Eb/N0 / 10))."""
        m, n = 200, 100
        sigma2 = 1.0 / (1 * 10 ** (-3.0 / 10))
        b = np.full(m, 1e4 + 0j)
        y = front_end(np.zeros((m, 1)), np.zeros((1, n)), b, self.campaign_noise(m, n, 2, -3.0))
        assert np.var(np.abs(y) - np.abs(b)[:, None]) == pytest.approx(sigma2 / 2, rel=0.05)

    def test_rician_mean_against_quadrature(self):
        """With s = 0, the mean of z matches E|nu + n| computed by
        Gauss-Hermite quadrature over the complex noise, for the
        campaign's noise at Eb/N0 = 0 dB and Q = 2 (sigma^2 = 1)."""
        nu, sigma2 = 5.0, 1.0
        m, n = 400, 500
        b = np.full(m, nu + 0j)
        z = np.abs(front_end(np.zeros((m, 1)), np.zeros((1, n)), b,
                             self.campaign_noise(m, n, 2, 0.0)))
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        sd = np.sqrt(sigma2 / 2.0)
        xs = nu + sd * nodes[:, None]
        ys = sd * nodes[None, :]
        w2d = weights[:, None] * weights[None, :] / (2 * np.pi)
        expected = float(np.sum(np.hypot(xs, ys) * w2d))
        assert np.mean(z) == pytest.approx(expected, rel=1e-3)
        # the Rician lift above |b| is O(sigma^2 / |b|)
        assert expected - nu == pytest.approx(sigma2 / (4 * nu), rel=0.05)

    def test_dimension_check(self):
        lo = np.zeros(3, dtype=complex)
        with pytest.raises(ValueError):
            front_end(np.zeros((3, 2)), np.zeros((3, 1)), lo, np.zeros((3, 1)))
        with pytest.raises(ValueError):  # one symbol vector must be a column
            front_end(np.zeros((3, 2)), np.zeros(2), lo, np.zeros(3))
        with pytest.raises(ValueError):  # the noise must fit the observations
            front_end(np.zeros((3, 2)), np.zeros((2, 4)), lo, np.zeros((3, 1)))


class TestProposedDetector:
    def test_noiseless_exact_recovery_all_vectors(self):
        """On a noiseless aligned channel the LS detector recovers every
        symbol vector exactly (K <= 4, Q <= 16, exhaustively)."""
        for k, q in ((2, 16), (3, 8), (4, 4)):
            h_eq, h_opt, b = aligned_system(8, k, seed=10 + k)
            c = make_pam(q)
            idx = enumerate_symbol_vectors(c, k)
            z = np.abs(h_eq @ c.points[idx] + b[:, None])
            got = detect_proposed_batch(z, h_eq, b, c)
            assert np.array_equal(got, idx)

    def test_ls_matches_lstsq_oracle(self):
        """Pre-slicing LS estimate agrees with a generic least-squares
        solver to 1e-10."""
        rng = np.random.default_rng(11)
        h_eq = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        rhs = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        ours = ls_estimate(h_eq, rhs)
        oracle = np.linalg.lstsq(h_eq, rhs, rcond=None)[0]
        assert np.allclose(ours, oracle, atol=1e-10)

    @settings(deadline=None)
    @given(m=st.integers(1, 12), data=st.data())
    def test_ls_returns_s_from_h_s(self, m, data):
        """For H = U diag(sv) V^H with singular values in [1, 1e3] (so
        cond(H^H H) <= 1e6) the estimate from H s is s, to a tolerance
        that scales with cond(H^H H)."""
        k = data.draw(st.integers(1, m))
        sv = np.array(data.draw(st.lists(st.floats(1.0, 1e3), min_size=k, max_size=k)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        u = np.linalg.qr(complex_normal(rng, (m, k)))[0]
        v = np.linalg.qr(complex_normal(rng, (k, k)))[0]
        h = (u * sv) @ v.conj().T
        s = complex_normal(rng, (k, 4))
        got = ls_estimate(h, h @ s)
        cond = (sv.max() / sv.min()) ** 2
        assert np.linalg.norm(got - s) <= 10 * k * np.finfo(float).eps * cond * np.linalg.norm(s)

    @settings(deadline=None)
    @given(m=st.integers(2, 12), data=st.data())
    def test_ls_rank_deficient_raises(self, m, data):
        """H = A B with inner dimension r < K has rank r: refused."""
        k = data.draw(st.integers(2, m))
        r = data.draw(st.integers(1, k - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        h = complex_normal(rng, (m, r)) @ complex_normal(rng, (r, k))
        with pytest.raises(SingularMatrixError):
            ls_estimate(h, complex_normal(rng, (m, 1)))

    def test_underflowing_gram_raises(self):
        """A well-conditioned H so small that its H^H H would underflow
        solves on the scaled H, but its estimate, about 1e310, is beyond
        the float range: refused."""
        h = complex_normal(np.random.default_rng(5), (4, 2)) * 1e-300
        with pytest.raises(SingularMatrixError, match="non-finite"):
            ls_estimate(h, np.full((4, 1), 1e10, dtype=complex))

    @settings(deadline=None)
    @given(m=st.integers(1, 8), shift=st.integers(-1000, 1000), data=st.data())
    def test_scaled_channel_scales_the_estimate_exactly(self, m, shift, data):
        """Scaling H by 2^shift scales the estimate by 2^-shift bit for
        bit, also where H^H H of the scaled H leaves the normal range
        (|shift| above about 500), since the solve runs on H brought to
        unit scale.  Entries of H lie between 1e-3 and 1e3 in magnitude."""
        k = data.draw(st.integers(1, m))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        h = complex_normal(rng, (m, k)) * 10.0 ** rng.uniform(-3, 3, (m, k))
        rhs = complex_normal(rng, (m, 3))
        try:
            s_hat = ls_estimate(h, rhs)
        except SingularMatrixError:
            assume(False)
        assert np.array_equal(ls_estimate(np.ldexp(1.0, shift) * h, rhs),
                              np.ldexp(1.0, -shift) * s_hat)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rhs_refused_without_warnings(self):
        """A huge but finite right-hand side overflows H^H rhs: the
        estimate is refused, and numpy prints no overflow warning."""
        h = np.ones((8, 2), dtype=complex)
        h[:, 1] = np.arange(8)
        with pytest.raises(SingularMatrixError, match="non-finite"):
            ls_estimate(h, np.full((8, 1), 1e308, dtype=complex))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(deadline=None)
    @given(m=st.integers(1, 6), data=st.data())
    def test_any_finite_input_gives_a_finite_estimate_or_refusal(self, m, data):
        """Zero, subnormal and huge entries included: the estimate is
        finite, or the system is refused with SingularMatrixError, and no
        RuntimeWarning is printed."""
        k = data.draw(st.integers(1, m))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        h = data.draw(arrays(float, (m, 2 * k), elements=finite)).view(complex)
        rhs = data.draw(arrays(float, (m, 2), elements=finite)).view(complex)
        try:
            assert np.isfinite(ls_estimate(h, rhs)).all()
        except SingularMatrixError:
            pass

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_channel_refused_by_name(self, value):
        """Called directly, a non-finite channel is refused by name before
        its Gram matrix is formed, not as numpy's LinAlgError or a
        RuntimeWarning from the condition number."""
        h = np.ones((4, 2), dtype=complex)
        h[:, 1] = np.arange(4)
        h[2, 0] = value
        with pytest.raises(ValueError, match="h_eq must be finite"):
            ls_estimate(h, np.ones((4, 1)))

    @pytest.mark.parametrize("entry", [0.0, 5e-324])
    def test_zero_or_subnormal_channel_refused(self, entry):
        """An all-zero or all-subnormal H is refused as singular, not
        with an OverflowError from its scale (2^1074 for the smallest
        subnormal, which is not a float)."""
        with pytest.raises(SingularMatrixError, match="singular"):
            ls_estimate(np.full((3, 2), entry, dtype=complex), np.ones((3, 1)))

    def test_rank_deficient_rejected(self):
        h_eq = np.ones((4, 2), dtype=complex)
        with pytest.raises(SingularMatrixError):
            detect_proposed_batch(np.ones((4, 1)), h_eq, np.ones(4, dtype=complex), make_pam(4))

    def test_more_users_than_cells_rejected(self):
        with pytest.raises(ValueError, match="users"):
            detect_proposed_batch(
                np.ones((2, 1)), np.ones((2, 3), dtype=complex), np.ones(2, dtype=complex),
                make_pam(4),
            )


class TestExhaustiveDetector:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(20)
        h_eq = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        b = 10 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        c = make_pam(8)
        sent = np.array([5, 2])
        z = np.abs(h_eq @ c.points[sent] + b)
        got = detect_exhaustive_batch(column(z), h_eq, b, c)[:, 0]
        assert np.array_equal(got, sent)

    def test_scalar_threshold_equivalence(self):
        """K=1, Q=2, M=1: the decision reduces to a threshold test at the
        midpoint of the two candidate magnitudes."""
        rng = np.random.default_rng(21)
        h_eq = np.array([[0.8 + 0.3j]])
        b = np.array([2.0 - 1.0j])
        c = make_pam(2)
        mags = np.abs(h_eq[0, 0] * c.points + b[0])
        threshold = float(np.mean(mags))
        near = int(np.argmin(mags))
        far = 1 - near
        for z in rng.uniform(0, 5, 200):
            got = detect_exhaustive_batch(np.array([[z]]), h_eq, b, c)
            assert got[0, 0] == (near if z < threshold else far)

    def test_lexicographic_tie_break(self, monkeypatch):
        """With a zero channel all candidates tie; the first in symbol
        order wins, also when 256 candidates span 16 blocks."""
        c = make_pam(4)
        h_eq = np.zeros((3, 2), dtype=complex)
        b = np.ones(3, dtype=complex)
        got = detect_exhaustive_batch(column(np.abs(b)), h_eq, b, c)
        assert np.array_equal(got[:, 0], [0, 0])
        monkeypatch.setattr(detect, "_BLOCK_BYTES", block_budget(16, 3, 3))
        z = np.abs(b)[:, None] + np.array([0.0, 1.0, -0.5])
        got = detect_exhaustive_batch(z, np.zeros((3, 4), dtype=complex), b, c)
        assert np.array_equal(got, np.zeros((4, 3), dtype=np.intp))

    def test_shape_mismatch_rejected(self):
        c = make_pam(4)
        h_eq = np.ones((3, 2), dtype=complex)
        b = np.ones(3, dtype=complex)
        for z in (np.ones((4, 1)), np.ones(3)):  # one observation must be a column
            with pytest.raises(ValueError, match="shape mismatch"):
                detect_exhaustive_batch(z, h_eq, b, c)

    @pytest.mark.parametrize("users", [2, 8])
    def test_non_finite_observation_rejected(self, users):
        """On either search, as the proposed detector's slicer does."""
        z = np.ones((16, 3))
        z[4, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            detect_exhaustive_batch(z, np.ones((16, users), dtype=complex),
                                    np.full(16, 50.0 + 0j), make_pam(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["h_eq", "b"])
    @pytest.mark.parametrize("users", [2, 8])
    def test_non_finite_channel_or_lo_rejected(self, users, name, value):
        """One non-finite entry in the channel or the LO is refused, naming
        it, on either search, as the proposed detector's least squares
        refuses it; no candidate is returned."""
        args = {"h_eq": np.ones((16, users), dtype=complex), "b": np.full(16, 50.0 + 0j)}
        args[name][(3, 1)[:args[name].ndim]] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            detect_exhaustive_batch(np.ones((16, 3)), args["h_eq"], args["b"], make_pam(4))

    def test_budget_refusal(self):
        c = make_pam(16)
        h_eq = np.ones((8, 6), dtype=complex)
        with pytest.raises(BudgetExceededError, match="16\\^6"):
            detect_exhaustive_batch(
                np.ones((8, 1)), h_eq, np.ones(8, dtype=complex), c, budget=10**6
            )

    @settings(deadline=None, max_examples=60)
    @given(
        order_users=st.sampled_from([(2, 1), (2, 4), (2, 6), (4, 2), (4, 3), (4, 4),
                                     (8, 2), (8, 3), (16, 2)]),
        m=st.integers(1, 12),
        n_obs=st.integers(1, 6),
        block=st.sampled_from([1, 16, 48, 80, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Each kind of split, pinned: no prefix users (one block, and a block
    # exactly full), several prefixes per block with a ragged last one (3
    # of 16 suffixes, the last block 1 prefix; 6 of 8, the last 2; 3 of 16,
    # the last 1) and no suffix users (3 candidates per block, the last 1).
    @example(order_users=(4, 3), m=5, n_obs=3, block=4096, seed=0)
    @example(order_users=(2, 6), m=5, n_obs=3, block=64, seed=1)
    @example(order_users=(4, 4), m=5, n_obs=3, block=48, seed=2)
    @example(order_users=(8, 2), m=5, n_obs=3, block=48, seed=3)
    @example(order_users=(16, 2), m=5, n_obs=3, block=48, seed=4)
    @example(order_users=(4, 2), m=5, n_obs=3, block=3, seed=5)
    def test_blocked_equals_full_matrix(self, order_users, m, n_obs, block, seed):
        """Every split of the users between the prefix and the suffix
        decides exactly as one full score matrix."""
        q, k = order_users
        c = make_pam(q)
        rng = np.random.default_rng(seed)
        h_eq = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        b = 3.0 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        sent = rng.integers(0, q, (k, n_obs))
        noise = rng.standard_normal((m, n_obs)) + 1j * rng.standard_normal((m, n_obs))
        z = np.abs(h_eq @ c.points[sent] + b[:, None] + noise)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "_BLOCK_BYTES", block_budget(block, m, n_obs))
            got = detect_exhaustive_batch(z, h_eq, b, c)
        assert np.array_equal(got, full_matrix_exhaustive(z, h_eq, b, c))

    def test_planted_tie_resolves_to_earlier_block(self, monkeypatch):
        """User 0 does not reach any cell, so candidates (i, j, l) tie for
        every i, one per 16-candidate block; the observation of (2, j, l)
        decodes to (0, j, l), in the first block."""
        rng = np.random.default_rng(22)
        c = make_pam(4)
        h_eq = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        h_eq[:, 0] = 0.0
        b = 4.0 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        sent = np.array([[2, 3], [1, 0], [3, 2]])
        z = np.abs(h_eq @ c.points[sent] + b[:, None])
        monkeypatch.setattr(detect, "_BLOCK_BYTES", block_budget(16, 5, 2))
        got = detect_exhaustive_batch(z, h_eq, b, c)
        assert np.array_equal(got, [[0, 0], [1, 0], [3, 2]])

    def test_k8_peak_memory(self):
        """One K = 8 call (65 536 candidates, M = 16, 100 observations)
        allocates under 2 MiB; the full score matrix alone is 50 MiB and
        the (K, Q^K) index table 4 MiB."""
        rng = np.random.default_rng(23)
        c = make_pam(4)
        h_eq = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        b = 30.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 16))
        z = np.abs(h_eq @ c.points[rng.integers(0, 4, (8, 100))] + b[:, None])
        tracemalloc.start()
        try:
            detect_exhaustive_batch(z, h_eq, b, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_enumeration_order(self):
        c = make_pam(4)
        idx = enumerate_symbol_vectors(c, 2)
        assert idx.shape == (2, 16)
        assert np.array_equal(idx[:, 0], [0, 0])
        assert np.array_equal(idx[:, 1], [0, 1])
        assert np.array_equal(idx[:, 4], [1, 0])
        for k in range(1, 9):
            expected = np.array(list(product(range(4), repeat=k))).T
            assert np.array_equal(enumerate_symbol_vectors(c, k), expected)

    def test_enumeration_of_no_users(self):
        """K = 0 has one candidate, the empty vector."""
        idx = enumerate_symbol_vectors(make_pam(4), 0)
        assert idx.shape == (0, 1)
        assert np.array_equal(np.zeros((3, 0)) @ idx, np.zeros((3, 1)))


def strong_lo_system(m, k, seed, leak=0.05, lo_margin=10.0):
    """A nearly aligned system under a strong LO: h_eq rows carry the LO
    phases times a real matrix of orthogonal columns (norms 1 to 3) plus a
    small imaginary leak, and every |b_m| is ``lo_margin`` times the
    cell's largest possible |Re g s|."""
    rng = np.random.default_rng(seed)
    columns = np.linalg.qr(rng.standard_normal((m, k)))[0] * rng.uniform(1.0, 3.0, k)
    h_opt = columns + 1j * leak * rng.standard_normal((m, k))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    reach = np.abs(h_opt.real).sum(axis=1) * 1.6  # above every PAM p_max
    return phases[:, None] * h_opt, lo_margin * reach * phases


class TestPrunedSearch:
    @settings(deadline=None, max_examples=200)
    @given(
        m=st.integers(1, 8),
        k=st.integers(1, 6),
        lo_scale=st.floats(0.3, 20.0),
        corner=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_magnitude_bound(self, m, k, lo_scale, corner, seed):
        """On every usable cell |b_m + h_m s| lies between its
        linearization |b_m| + G_m s and that plus delta_m, for any real s
        with entries in [-p, p], a corner of that box included."""
        rng = np.random.default_rng(seed)
        p = 1.5
        h = complex_normal(rng, (m, k))
        b = lo_scale * np.abs(h).sum(axis=1) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        s = p * (rng.choice([-1.0, 1.0], k) if corner else rng.uniform(-1.0, 1.0, k))
        cells, model, width = detect._magnitude_bound(h, b, p)
        assert model.shape == (np.count_nonzero(cells), k) and width.shape == (model.shape[0],)
        if lo_scale > p:  # |b_m| > p sum |h_m| >= A_m: every cell qualifies
            assert cells.all()
        exact = np.abs(h @ s + b)[cells]
        low = np.abs(b[cells]) + model @ s
        tol = 1e-12 * (np.abs(b[cells]) + p * np.abs(h[cells]).sum(axis=1))
        assert np.all(width >= 0.0)
        assert np.all(exact >= low - tol)
        assert np.all(exact <= low + width + tol)

    @settings(deadline=None, max_examples=80)
    @given(
        order_users=st.sampled_from([(2, 1), (2, 3), (2, 6), (4, 1), (4, 2), (4, 4),
                                     (4, 6), (8, 2), (8, 3), (8, 4)]),
        extra_cells=st.integers(0, 6),
        n_obs=st.integers(1, 8),
        noise=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_path_decides_strong_lo_instances(self, order_users, extra_cells, n_obs,
                                                     noise, seed):
        """Under a strong LO the pruned search, not the full search,
        decides every noisy observation, and as one full score matrix
        does; so does the detector once Q^K exceeds a block."""
        q, k = order_users
        m = k + extra_cells
        c = make_pam(q)
        h_eq, b = strong_lo_system(m, k, seed)
        rng = np.random.default_rng(seed + 1)
        sent = rng.integers(0, q, (k, n_obs))
        scale = noise * np.diff(c.points).min()
        z = np.abs(h_eq @ c.points[sent] + b[:, None] + scale * complex_normal(rng, (m, n_obs)))
        expected = full_matrix_exhaustive(z, h_eq, b, c)
        best = detect._pruned_search(z, h_eq, b, c)
        assert (best >= 0).all()
        assert np.array_equal(np.unravel_index(best, (q,) * k), expected)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "_BLOCK_BYTES", block_budget(1, m, n_obs))
            mp.setattr(detect, "_full_search", None)  # any fallback would fail
            assert np.array_equal(detect_exhaustive_batch(z, h_eq, b, c), expected)

    def test_weak_lo_or_rank_deficient_model_falls_back(self, monkeypatch):
        """No search without K usable cells or with a rank-deficient G:
        every observation is marked -1, and the full search decides them."""
        c = make_pam(4)
        h_eq, b = strong_lo_system(6, 3, 60)
        z = np.abs(h_eq @ c.points[np.zeros((3, 2), dtype=np.intp)] + b[:, None])
        assert (detect._pruned_search(z, h_eq, b, c) >= 0).all()
        weak = b.copy()
        weak[2:] *= 1e-3  # two usable cells for three users
        flat = h_eq.copy()
        flat[:, 2] = 0.0
        monkeypatch.setattr(detect, "_BLOCK_BYTES", block_budget(1, 6, 2))
        for h, lo in ((h_eq, weak), (flat, b)):
            assert (detect._pruned_search(z, h, lo, c) < 0).all()
            assert np.array_equal(detect_exhaustive_batch(z, h, lo, c),
                                  full_matrix_exhaustive(z, h, lo, c))

    def test_spilled_observations_fall_back(self, monkeypatch):
        """Observations whose trees outgrow the node budget are marked -1
        and decided by the full search; the decisions do not change."""
        c = make_pam(4)
        h_eq, b = strong_lo_system(8, 4, 61, leak=0.3, lo_margin=2.0)
        rng = np.random.default_rng(62)
        z = np.abs(h_eq @ c.points[rng.integers(0, 4, (4, 20))] + b[:, None]
                   + 0.3 * complex_normal(rng, (8, 20)))
        expected = full_matrix_exhaustive(z, h_eq, b, c)
        monkeypatch.setattr(detect, "_BLOCK_BYTES", block_budget(1, 8, 20))
        # 79 children of K + 6 words, one fewer than the root's 20 x 4
        monkeypatch.setattr(detect, "_NODE_WORDS", 79 * 10)
        best = detect._pruned_search(z, h_eq, b, c)
        assert 0 < np.count_nonzero(best < 0) < 20
        assert np.array_equal(detect_exhaustive_batch(z, h_eq, b, c), expected)
        monkeypatch.setattr(detect, "_NODE_WORDS", 0)
        assert (detect._pruned_search(z, h_eq, b, c) < 0).all()
        assert np.array_equal(detect_exhaustive_batch(z, h_eq, b, c), expected)

    def test_second_pass_decides_spills(self, monkeypatch):
        """When some observations spill, the pruned search runs again on
        just those, with the whole node budget: it decides some of them,
        the full search gets fewer, and the decisions stay exact."""
        c = make_pam(4)
        h_eq, b = strong_lo_system(8, 4, 61, leak=0.3, lo_margin=2.0)
        rng = np.random.default_rng(62)
        z = np.abs(h_eq @ c.points[rng.integers(0, 4, (4, 20))] + b[:, None]
                   + 0.3 * complex_normal(rng, (8, 20)))
        expected = full_matrix_exhaustive(z, h_eq, b, c)
        monkeypatch.setattr(detect, "_BLOCK_BYTES", block_budget(1, 8, 20))
        monkeypatch.setattr(detect, "_NODE_WORDS", 79 * 10)
        spilled = np.count_nonzero(detect._pruned_search(z, h_eq, b, c) < 0)
        pruned, full = detect._pruned_search, detect._full_search
        passes, handed = [], []
        monkeypatch.setattr(detect, "_pruned_search",
                            lambda z, *a: passes.append(z.shape[1]) or pruned(z, *a))
        monkeypatch.setattr(detect, "_full_search",
                            lambda z, *a: handed.append(z.shape[1]) or full(z, *a))
        assert np.array_equal(detect_exhaustive_batch(z, h_eq, b, c), expected)
        assert passes == [20, spilled]
        assert len(handed) == 1 and 0 < handed[0] < spilled

    def test_split_scoring_gemm_decides_as_one(self):
        """With 1000 observations at M = 16 a block's scoring GEMM,
        1000 x 17 x block, is large enough for OpenBLAS to thread; the full
        search still decides as the one-matrix oracle."""
        rng = np.random.default_rng(63)
        c = make_pam(4)
        h_eq = complex_normal(rng, (16, 3))
        b = 3.0 * complex_normal(rng, 16)
        z = np.abs(h_eq @ c.points[rng.integers(0, 4, (3, 1000))] + b[:, None]
                   + complex_normal(rng, (16, 1000)))
        got = np.unravel_index(detect._full_search(z, h_eq, b, c), (4,) * 3)
        assert np.array_equal(got, full_matrix_exhaustive(z, h_eq, b, c))


def trial_stack(n_trials, m, k, c, seed, n_obs=24, lo_margin=2.0):
    """Complex and magnitude observations (n_trials, m, n_obs) of a stack
    of trials, each noisier than the last, with their channels and LOs;
    the LO is strong at the default ``lo_margin`` (see
    ``strong_lo_system``), and trial 1's LO is weak on all but K - 1
    cells, so its bound gives no search."""
    rng = np.random.default_rng(seed)
    ys, hs, bs = [], [], []
    for t in range(n_trials):
        h, b = strong_lo_system(m, k, seed + t, leak=0.2, lo_margin=lo_margin)
        if t == 1:
            b[k - 1:] *= 1e-3
        noise = 0.2 * (1 + t) * np.diff(c.points).min() * complex_normal(rng, (m, n_obs))
        ys.append(h @ c.points[rng.integers(0, c.order, (k, n_obs))] + b[:, None] + noise)
        hs.append(h)
        bs.append(b)
    y = np.array(ys)
    return y, np.abs(y), np.array(hs), np.array(bs)


def assert_rows_are_single_trial_calls(kernel, stacks, *shared):
    """``kernel`` on ``stacks``, arrays with a leading trial axis, returns
    byte for byte its calls on one trial at a time."""
    got = kernel(*stacks, *shared)
    rows = np.array([kernel(*(a[t] for a in stacks), *shared) for t in range(len(stacks[0]))])
    assert got.shape == rows.shape and got.dtype == rows.dtype
    assert got.tobytes() == rows.tobytes()


class TestStackedTrials:
    """Every kernel takes leading trial axes, and a stack's rows are its
    single-trial calls bit for bit: the campaign observes and detects a
    batch of 8 trials (or a shorter tail batch) in one call per kernel."""

    @pytest.mark.parametrize("k, m", [(3, 8), (8, 16)], ids=["K3", "K8"])
    @pytest.mark.parametrize("n_trials", [1, 3, 8], ids=["one", "tail-of-3", "batch-of-8"])
    def test_rows_equal_single_trial_calls(self, monkeypatch, k, m, n_trials):
        """Also across trial 1, whose bound gives no search, so that the
        full search decides it; at K = 3 the block holds one candidate,
        so the pruned search runs as it does at K = 8."""
        c = make_pam(4)
        y, z, h, b = trial_stack(n_trials, m, k, c, seed=70 + k)
        rng = np.random.default_rng(k)
        s = c.points[rng.integers(0, c.order, (n_trials, k, z.shape[-1]))]
        assert_rows_are_single_trial_calls(front_end, (h, s, b, complex_normal(rng, y.shape)))
        assert_rows_are_single_trial_calls(ls_estimate, (h, y - b[..., None]))
        assert_rows_are_single_trial_calls(detect_proposed_batch, (z, h, b), c)
        assert_rows_are_single_trial_calls(detect_zf_batch, (y, h, b), c)
        if k == 3:
            monkeypatch.setattr(detect, "_BLOCK_BYTES", block_budget(1, m, z.shape[-1]))
        searched = detect._pruned_search(z, h, b, c) >= 0
        assert searched[:1].all() and not searched[1:2].any()
        assert_rows_are_single_trial_calls(detect._pruned_search, (z, h, b), c)
        assert_rows_are_single_trial_calls(detect_exhaustive_batch, (z, h, b), c)
        assert np.array_equal(detect_exhaustive_batch(z, h, b, c),
                              [full_matrix_exhaustive(z[t], h[t], b[t], c)
                               for t in range(n_trials)])

    @pytest.mark.parametrize("k, m", [(3, 8), (8, 16)], ids=["K3", "K8"])
    @pytest.mark.parametrize("n_trials", [3, 8], ids=["tail-of-3", "batch-of-8"])
    def test_each_trial_spills_against_its_own_budget(self, monkeypatch, k, m, n_trials):
        """With a node budget that some trials' trees outgrow and others'
        do not, each trial of a stack spills the observations its
        single-trial call spills, and the stack decides as those calls."""
        c = make_pam(4)
        y, z, h, b = trial_stack(n_trials, m, k, c, seed=80 + k)
        if k == 3:
            monkeypatch.setattr(detect, "_BLOCK_BYTES", block_budget(1, m, z.shape[-1]))
        searched = [t for t in range(n_trials) if t != 1]
        for nodes in np.unique(np.round(2 ** np.arange(5, 14, 0.25)).astype(int)):
            monkeypatch.setattr(detect, "_NODE_WORDS", int(nodes) * (k + 6))
            spills = [(detect._pruned_search(z[t], h[t], b[t], c) < 0).any() for t in searched]
            if any(spills) and not all(spills):
                break
        else:
            pytest.fail("no budget spills in some trials but not in others")
        assert_rows_are_single_trial_calls(detect._pruned_search, (z, h, b), c)
        assert_rows_are_single_trial_calls(detect_exhaustive_batch, (z, h, b), c)

    def test_first_refused_trial_raises_its_own_refusal(self):
        """Trials 3 and 6 of eight have rank-deficient channels: the stack
        is refused with trial 3's error, condition number included, as
        its single-trial call is; trial 6's differs."""
        c = make_pam(4)
        y, z, h, b = trial_stack(8, 8, 3, c, seed=90)
        for t in (3, 6):
            h[t, :, 1] = h[t, :, 0] + 1e-7 * t * h[t, :, 1]
        alone = []
        for t in (3, 6):
            with pytest.raises(SingularMatrixError) as info:
                detect_proposed_batch(z[t], h[t], b[t], c)
            alone.append(str(info.value))
        assert alone[0] != alone[1]
        for kernel, obs in ((detect_proposed_batch, z), (detect_zf_batch, y)):
            with pytest.raises(SingularMatrixError) as info:
                kernel(obs, h, b, c)
            assert str(info.value) == alone[0]

    def test_mismatched_trial_axes_refused(self):
        c = make_pam(4)
        y, z, h, b = trial_stack(3, 8, 3, c, seed=91)
        s = np.zeros((3, 3, y.shape[-1]))
        for args in ((h, s[:2], b, y), (h, s, b[:2], y), (h, s, b, y[:2]), (h[:2], s, b, y)):
            with pytest.raises(ValueError, match="do not fit"):
                front_end(*args)
        with pytest.raises(ValueError, match="rhs"):
            ls_estimate(h, y[:2] - b[:2, :, None])
        with pytest.raises(ValueError, match="shape mismatch"):
            detect_exhaustive_batch(z[:2], h, b, c)


class TestZeroForcing:
    """The least-squares receivers are one kernel: ``proposed`` is the
    genie's zero forcing with the LO's phase in place of the
    observation's."""

    @pytest.mark.parametrize("lo_margin", [2.0, 0.05], ids=["strong-lo", "weak-lo"])
    @pytest.mark.parametrize("n_trials", [None, 1, 3, 8],
                             ids=["one-trial", "stack-of-1", "tail-of-3", "batch-of-8"])
    def test_proposed_is_zf_on_the_lo_phase(self, n_trials, lo_margin):
        """Byte for byte, on one trial and on stacks; under a weak LO the
        observation's phase is far from the LO's, so ``proposed`` differs
        from the genie on y and the identity is not the genie's own."""
        c = make_pam(4)
        y, z, h, b = trial_stack(n_trials or 1, 8, 3, c, seed=97, lo_margin=lo_margin)
        if n_trials is None:
            y, z, h, b = y[0], z[0], h[0], b[0]
        got = detect_proposed_batch(z, h, b, c)
        rephased = detect_zf_batch(z * np.exp(1j * np.angle(b))[..., None], h, b, c)
        assert got.shape == rephased.shape and got.dtype == rephased.dtype
        assert got.tobytes() == rephased.tobytes()
        if lo_margin < 1:
            assert (got != detect_zf_batch(y, h, b, c)).any()


class TestDetectorContract:
    """The three detectors accept the same inputs: an observation, a
    channel and an LO with equal leading trial axes and M, every entry
    finite; anything else is refused with a ValueError naming it."""

    DETECTORS = [(detect_proposed_batch, "z"), (detect_exhaustive_batch, "z"),
                 (detect_zf_batch, "y")]
    IDS = ["proposed", "exhaustive", "zf_genie"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["obs", "h_eq", "b"])
    @pytest.mark.parametrize("detector, name", DETECTORS, ids=IDS)
    @pytest.mark.parametrize("stacked", [False, True], ids=["one-trial", "stack-of-two"])
    def test_non_finite_input_refused_by_name(self, detector, name, arg, value, stacked):
        """One non-finite entry, in the last trial of a stack, is refused
        before any estimate or search, naming the observation (``z`` or
        ``y``), ``h_eq`` or ``b``."""
        c = make_pam(4)
        y, z, h, b = trial_stack(2, 8, 3, c, seed=95)
        args = {"obs": z if name == "z" else y, "h_eq": h, "b": b}
        last = {key: arr[1] for key, arr in args.items()}  # views into the stack
        last[arg][(3, 1)[:last[arg].ndim]] = value
        if not stacked:
            args = last
        with pytest.raises(ValueError, match=f"{name if arg == 'obs' else arg} must be finite"):
            detector(args["obs"], args["h_eq"], args["b"], c)

    @pytest.mark.parametrize("detector, name", DETECTORS, ids=IDS)
    def test_one_lo_for_a_stack_refused(self, detector, name):
        """An (M,) LO is not broadcast over a (2, M, K) stack: each trial
        carries its own."""
        c = make_pam(4)
        y, z, h, b = trial_stack(2, 8, 3, c, seed=96)
        with pytest.raises(ValueError, match=f"shape mismatch: {name} "):
            detector(z if name == "z" else y, h, b[0], c)


class TestZfGenie:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(30)
        h_eq = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c = make_pam(16)
        sent = np.array([3, 9, 14])
        y = h_eq @ c.points[sent] + b
        got = detect_zf_batch(column(y), h_eq, b, c)[:, 0]
        assert np.array_equal(got, sent)

    def test_orthogonal_channel_decouples(self):
        """K = M with orthogonal columns: each user's decision equals the
        scalar AWGN slicer on its matched-filter output."""
        scale = 2.0
        h_eq = scale * np.eye(4).astype(complex)
        b = np.zeros(4, dtype=complex)
        c = make_pam(4)
        rng = np.random.default_rng(31)
        sent = rng.integers(0, 4, 4)
        noise = 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        y = h_eq @ c.points[sent] + noise
        got = detect_zf_batch(y[:, None], h_eq, b, c)[:, 0]
        scalar = np.array(
            [np.argmin(np.abs((y[i].real / scale) - c.points)) for i in range(4)]
        )
        assert np.array_equal(got, scalar)


class TestDetectorOrdering:
    def make_observations(self, sigma2, n_sym, seed):
        """One optimized channel realization and a batch of noisy
        observations (paired across detectors)."""
        from atomris.channel import PhysicalPathParams, LOParams, gen_physical_channel, gen_lo_vector

        rng = np.random.default_rng(seed)
        m, n, k = 24, 64, 3
        ch = ChannelSet(
            gen_user_ris_channel(k, n, rng),
            gen_physical_channel(m, n, PhysicalPathParams(), rng),
            gen_physical_channel(m, k, PhysicalPathParams(), rng),
        )
        b = gen_lo_vector(m, LOParams(), rng)
        theta, _ = optimize_aligned_phases(ch, b, AdamConfig(), rng)
        h_eq = effective_channel(ch, theta)
        c = make_pam(4)
        sent = rng.integers(0, 4, (k, n_sym))
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((m, n_sym)) + 1j * rng.standard_normal((m, n_sym))
        )
        y = h_eq @ c.points[sent] + b[:, None] + noise
        return c, h_eq, b, sent, y, np.abs(y)

    def test_exhaustive_not_worse_than_proposed(self):
        """Symbol error rate of the exhaustive search is at most the
        proposed detector's, up to 3-sigma Monte-Carlo bands."""
        c, h_eq, b, sent, y, z = self.make_observations(sigma2=40.0, n_sym=4000, seed=40)
        e_prop = int((detect_proposed_batch(z, h_eq, b, c) != sent).sum())
        e_exh = int((detect_exhaustive_batch(z, h_eq, b, c) != sent).sum())
        n_total = sent.size
        band = 3 * np.sqrt(max(e_prop, 1)) + 3 * np.sqrt(max(e_exh, 1))
        assert e_prop > 0
        assert e_exh <= e_prop + band

    def test_genie_not_worse_than_proposed(self):
        """The known-phase genie lower-bounds the magnitude-only linear
        detector, up to 3-sigma bands."""
        c, h_eq, b, sent, y, z = self.make_observations(sigma2=40.0, n_sym=4000, seed=41)
        e_prop = int((detect_proposed_batch(z, h_eq, b, c) != sent).sum())
        e_zf = int((detect_zf_batch(y, h_eq, b, c) != sent).sum())
        band = 3 * np.sqrt(max(e_prop, 1)) + 3 * np.sqrt(max(e_zf, 1))
        assert e_zf <= e_prop + band


class TestLinearizationQuality:
    def test_modeling_error_shrinks_with_lo_power(self):
        """The error of the linearized model z ~ |b| + h_opt s + Re(n')
        decreases monotonically to zero over a geometric LO sweep, and the
        deviation from the noise-free model converges to the in-phase
        noise floor sigma/sqrt(pi).

        (The noisy deviation mean |z - (|b| + h_opt s)| itself approaches
        the floor from below, so only the modeling error is required to be
        monotone.)
        """
        rng = np.random.default_rng(50)
        m, k = 50, 2
        h_opt = rng.standard_normal((m, k))
        phases = rng.uniform(0, 2 * np.pi, m)
        s = rng.standard_normal(k)
        sigma2 = 1.0
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((m, 400)) + 1j * rng.standard_normal((m, 400))
        )
        inphase = (noise * np.exp(-1j * phases)[:, None]).real
        model_err = []
        noisy_dev = []
        for mag in (30.0, 100.0, 300.0, 1000.0, 3000.0):
            b = mag * np.exp(1j * phases)
            h_eq = np.exp(1j * phases)[:, None] * h_opt
            z = np.abs((h_eq @ s + b)[:, None] + noise)
            linear = (np.abs(b) + h_opt @ s)[:, None]
            model_err.append(np.mean(np.abs(z - linear - inphase)))
            noisy_dev.append(np.mean(np.abs(z - linear)))
        assert all(a > b for a, b in zip(model_err, model_err[1:]))
        assert model_err[-1] < 1e-3
        floor = np.sqrt(sigma2 / np.pi)
        assert noisy_dev[-1] == pytest.approx(floor, rel=0.05)
