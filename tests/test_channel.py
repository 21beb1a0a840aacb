"""Tests for channel and local-oscillator generation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atomris import channel
from atomris.channel import (
    ChannelSet,
    LOParams,
    PhysicalPathParams,
    effective_channel,
    gen_lo_vector,
)
from atomris.sim import SimConfig, draw_channels, validate_config
from conftest import standard_complex_normal


def rng_for(seed):
    return np.random.default_rng(seed)


def user_ris_draw(users, elements, rng):
    """The N x K user-to-RIS draw: ``draw_channels``' h_ur, always its
    first draw."""
    cfg = SimConfig(num_cells=users, num_elements=elements, num_users=users)
    return draw_channels(cfg, rng).h_ur


def physical_draw(cells, cols, params, rng):
    """An M x cols multipath draw: ``draw_channels``' h_uv, its first draw
    when there is no RIS (N = 0)."""
    cfg = SimConfig(num_cells=cells, num_elements=0, num_users=cols, channel=params)
    return draw_channels(cfg, rng).h_uv


def path_draws(shape, span, rng):
    """The per-path polarization angles psi, path losses and phases, in the
    generator's draw order."""
    psi = rng.uniform(0.0, 2.0 * np.pi, shape)
    lo, hi = span
    rho = np.full(shape, lo) if lo == hi else np.exp(rng.uniform(np.log(lo), np.log(hi), shape))
    phi = rng.uniform(0.0, 2.0 * np.pi, shape)
    return psi, rho, phi


def closed_form_draw(m, cols, params, rng):
    """The channel draw as its formula: sum over paths of
    gain cos(psi) loss exp(j phase), normalized."""
    psi, rho, phi = path_draws((m, cols, params.num_paths), params.path_loss_span, rng)
    h = np.sum(np.cos(psi) * params.coupling_gain * rho * np.exp(1j * phi), axis=-1)
    return h / np.sqrt(channel._normalization_variance(params)) if params.normalize else h


class TestUserRisChannel:
    def test_reference_dimensions(self):
        """K=3 users through a 150-element surface gives a 150x3 matrix."""
        h = user_ris_draw(3, 150, rng_for(1))
        assert h.shape == (150, 3)
        assert h.dtype == complex

    def test_deterministic_given_seed(self):
        a = user_ris_draw(1, 1, rng_for(7))
        b = user_ris_draw(1, 1, rng_for(7))
        assert a == b

    def test_unit_variance(self):
        """Mean |entry|^2 over 1e5 draws approaches 1 (Monte-Carlo oracle)."""
        h = user_ris_draw(10, 10_000, rng_for(3))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_zero_mean(self):
        h = user_ris_draw(10, 10_000, rng_for(4))
        assert abs(np.mean(h)) < 0.01

    @pytest.mark.parametrize("users,elements", [(0, 5), (0, 0), (5, -1)])
    def test_zero_dimensions_rejected(self, users, elements):
        """A campaign refuses such dimensions before any draw."""
        with pytest.raises(ValueError):
            validate_config(SimConfig(num_cells=5, num_elements=elements, num_users=users))

    def test_zero_elements_is_an_empty_draw(self):
        """No RIS: an empty (0, K) matrix, and the generator is untouched:
        the direct channel drawn after it is the generator's first draw."""
        params = PhysicalPathParams()
        ch = draw_channels(SimConfig(num_cells=4, num_elements=0, num_users=5), rng_for(0))
        assert ch.h_ur.shape == (0, 5) and ch.h_ur.dtype == complex
        assert ch.h_uv.tobytes() == closed_form_draw(4, 5, params, rng_for(0)).tobytes()


class TestPhysicalChannel:
    def test_single_path_identity(self):
        """One path with a collapsed unit loss span: each entry is the bare
        coupling gain * cos(psi) times exp(j phase), and the constant loss
        consumes no draws."""
        params = PhysicalPathParams(
            num_paths=1, coupling_gain=1.5, path_loss_span=(1.0, 1.0), normalize=False,
        )
        rng, clone = rng_for(0), rng_for(0)
        h = physical_draw(4, 3, params, rng)
        psi = clone.uniform(0.0, 2.0 * np.pi, (4, 3, 1))
        phi = clone.uniform(0.0, 2.0 * np.pi, (4, 3, 1))
        assert np.allclose(h, (1.5 * np.cos(psi) * np.exp(1j * phi))[..., 0], atol=1e-15)
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_matches_direct_triple_loop(self):
        """Random small instance matches an independent triple-loop sum over
        paths of coupling * loss * exp(j phase), fed the same draws from a
        cloned generator."""
        m, cols, length = 3, 2, 4
        gain = -1.3
        params = PhysicalPathParams(
            num_paths=length, coupling_gain=gain, path_loss_span=(0.2, 2.0), normalize=False,
        )
        h = physical_draw(m, cols, params, rng_for(5))
        psi, rho, phi = path_draws((m, cols, length), params.path_loss_span, rng_for(5))
        expected = np.zeros((m, cols), dtype=complex)
        for i in range(m):
            for k in range(cols):
                for l in range(length):
                    expected[i, k] += (
                        gain * math.cos(psi[i, k, l]) * rho[i, k, l]
                        * np.exp(1j * phi[i, k, l])
                    )
        assert np.allclose(h, expected, atol=1e-12)

    def test_path_permutation_invariance(self):
        """An entry is the path sum in any path order: summing the cloned
        draws' terms with the paths permuted gives the same matrix."""
        m, cols, length = 2, 3, 5
        params = PhysicalPathParams(num_paths=length, coupling_gain=0.8, normalize=False)
        h = physical_draw(m, cols, params, rng_for(6))
        psi, rho, phi = path_draws((m, cols, length), params.path_loss_span, rng_for(6))
        terms = 0.8 * np.cos(psi) * rho * np.exp(1j * phi)
        perm = rng_for(7).permutation(length)
        assert np.allclose(h, np.sum(terms[:, :, perm], axis=-1), atol=1e-12)

    def test_normalized_unit_variance(self):
        """Default (normalized) draws have per-entry variance 1."""
        h = physical_draw(100, 400, PhysicalPathParams(), rng_for(8))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_zero_coupling_gain_draws_zero(self):
        """A dipole with no part perpendicular to the incidence axis has
        coupling_gain 0: every drawn entry is exactly 0."""
        params = PhysicalPathParams(coupling_gain=0.0, normalize=False)
        h = physical_draw(5, 5, params, rng_for(9))
        assert np.all(h == 0.0)

    def test_zero_paths_rejected(self):
        with pytest.raises(ValueError):
            PhysicalPathParams(num_paths=0)

    @pytest.mark.parametrize("cells,cols", [(0, 3), (0, 0), (3, -1)])
    def test_bad_dimensions_rejected(self, cells, cols):
        """A campaign refuses such an h_rv before any draw."""
        with pytest.raises(ValueError):
            validate_config(SimConfig(num_cells=cells, num_elements=cols, num_users=1))

    @pytest.mark.parametrize("span", [(0.5, 1.0), (1.0, 1.0)])
    def test_zero_columns_is_an_empty_draw(self, span):
        """No RIS: an empty (M, 0) matrix, and the generator is untouched."""
        rng = rng_for(0)
        state = rng.bit_generator.state
        h = physical_draw(4, 0, PhysicalPathParams(path_loss_span=span), rng)
        assert h.shape == (4, 0) and h.dtype == complex
        assert rng.bit_generator.state == state


class TestFoldedCouplingDraw:
    """A path couples as coupling_gain * cos(psi): the dipole, hbar and
    the incidence axis fold into the one gain."""

    def test_default_model_bit_identical_to_tensor_formula(self):
        """The default draw, and the default model with any number of
        paths, equals its closed form (``np.sum`` over paths) on a cloned
        generator, bit for bit: at L = 4 the path sum adds slices in
        numpy's own order, and every other L is ``np.sum`` itself."""
        for num_paths in (*range(1, 9), 64, 65, 130):
            params = PhysicalPathParams(num_paths=num_paths)
            rng_a, rng_b = rng_for(5), rng_for(5)
            folded = physical_draw(36, 150, params, rng_a)
            expected = closed_form_draw(36, 150, params, rng_b)
            assert folded.tobytes() == expected.tobytes(), num_paths
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("num_paths", [1, 4, 7])
    def test_zero_gain_sums_to_positive_zero(self, num_paths):
        """Paths of zero gain are signed zeros; like ``np.sum``, the path
        sum returns +0.0 in every entry."""
        params = PhysicalPathParams(num_paths=num_paths, coupling_gain=0.0, normalize=False)
        rng_a, rng_b = rng_for(6), rng_for(6)
        folded = physical_draw(5, 7, params, rng_a)
        assert folded.tobytes() == closed_form_draw(5, 7, params, rng_b).tobytes()
        assert not np.signbit(folded.view(float)).any()

    @settings(deadline=None, max_examples=200)
    @given(lead=st.lists(st.integers(0, 5), min_size=1, max_size=2),
           num_paths=st.one_of(st.just(4), st.integers(1, 140)),
           data=st.data())
    def test_path_sum_is_numpy_sum(self, lead, num_paths, data):
        """On any finite stack of path terms, with signed zeros, subnormals
        and magnitudes up to 1e150, and with zero-size leading axes, the
        path sum is ``np.sum`` over the path axis byte for byte."""
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e150, -1e150])
        finite = st.floats(-1e150, 1e150, allow_nan=False, allow_subnormal=True)
        parts = data.draw(arrays(float, (*lead, num_paths, 2),  # real, imaginary
                                 elements=st.one_of(special, finite)))
        terms = parts.view(complex)[..., 0]
        expected = np.sum(terms, axis=-1)
        got = channel._path_sum(terms)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_coupling_constants_computed_once(self, monkeypatch):
        """The normalization is fixed when the parameters are built; draws
        reuse it."""
        calls = []
        variance = channel._normalization_variance
        monkeypatch.setattr(channel, "_normalization_variance",
                            lambda p: calls.append(p) or variance(p))
        params = PhysicalPathParams(coupling_gain=3.0)
        rng = rng_for(8)
        for _ in range(3):
            physical_draw(4, 5, params, rng)
            gen_lo_vector(4, LOParams(), rng)
        assert calls == [params]


class TestPathLossDraw:
    """Path losses are log-uniform on the closed span [lo, hi]."""

    @settings(deadline=None)
    @given(lo=st.floats(1e-6, 1e6), ratio=st.floats(1.0, 1e3), seed=st.integers(0, 2**32))
    @example(lo=17.0, ratio=1.0000000000000002, seed=0)
    def test_draws_lie_in_span(self, lo, ratio, seed):
        """In [lo, hi], or within one ulp of the ends as the draw rounds
        them: exp(log(lo)) and exp(log(hi)) can be ulps off lo and hi."""
        hi = lo * ratio
        draws = channel._draw_path_loss(np.empty(400), (lo, hi), rng_for(seed))
        ends = np.exp(np.array([math.log(lo), math.log(hi)]))
        assert np.all(draws >= min(lo, np.nextafter(ends[0], 0.0)))
        assert np.all(draws <= max(hi, np.nextafter(ends[1], np.inf)))

    @given(lo=st.floats(0.0, 1e6), seed=st.integers(0, 2**32))
    def test_collapsed_span_is_constant_and_draws_nothing(self, lo, seed):
        rng = rng_for(seed)
        state = rng.bit_generator.state
        draws = channel._draw_path_loss(np.empty((3, 4)), (lo, lo), rng)
        assert draws.shape == (3, 4) and np.all(draws == lo)
        assert rng.bit_generator.state == state

    def test_default_second_moment_formula(self):
        lo, hi = PhysicalPathParams().path_loss_span
        want = (hi**2 - lo**2) / (2.0 * (math.log(hi) - math.log(lo)))
        assert channel._log_uniform_second_moment((lo, hi)) == want

    def test_span_one_ulp_wide(self):
        """log(hi) == log(lo) although lo < hi: the second moment is the
        limit lo * hi, so normalized parameters build."""
        span = (17.0, 17.000000000000004)
        assert math.log(span[0]) == math.log(span[1])
        assert channel._log_uniform_second_moment(span) == 17.0 * 17.000000000000004
        h = physical_draw(30, 40, PhysicalPathParams(path_loss_span=span), rng_for(2))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("lo", [1e-6, 0.1, 17.0, 1e6])
    @pytest.mark.parametrize("width", [1e-7, 9e-6, 1.1e-5, 1e-4])
    def test_narrow_spans_accurate(self, lo, width):
        """On both sides of the narrow-span switch the second moment
        matches the series lo hi (1 + d^2 / 6 + d^4 / 120), d = log(hi / lo)."""
        hi = lo * (1.0 + width)
        d = math.log1p((hi - lo) / lo)
        series = lo * hi * (1.0 + d * d / 6.0 + d**4 / 120.0)
        assert channel._log_uniform_second_moment((lo, hi)) == pytest.approx(series, rel=1e-9)


class TestLOVector:
    def test_zero_power(self):
        b = gen_lo_vector(8, LOParams(power=0.0), rng_for(1))
        assert np.allclose(b, 0.0)

    def test_sqrt_power_scaling(self):
        """Quadrupling the power doubles every magnitude exactly."""
        b1 = gen_lo_vector(8, LOParams(power=2.5), rng_for(2))
        b4 = gen_lo_vector(8, LOParams(power=10.0), rng_for(2))
        assert np.allclose(np.abs(b4), 2.0 * np.abs(b1))

    def test_matches_direct_formula(self):
        """Small instance matches independent per-element evaluation of the
        draws of a cloned generator: cos(psi) sqrt(power) loss exp(j phase)."""
        m = 5
        params = LOParams(power=4.0, path_loss_span=(0.5, 1.5))
        b = gen_lo_vector(m, params, rng_for(3))
        psi, rho, phi = path_draws((m,), params.path_loss_span, rng_for(3))
        expected = np.array(
            [math.cos(psi[i]) * 2.0 * rho[i] * np.exp(1j * phi[i]) for i in range(m)]
        )
        assert np.allclose(b, expected, atol=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            gen_lo_vector(4, LOParams(power=-1.0), rng_for(0))


class TestParameterValidation:
    """Range checks run when the parameters are built, before any draw."""

    @pytest.mark.parametrize("cls", [PhysicalPathParams, LOParams])
    @pytest.mark.parametrize("fields, named", [
        ({"path_loss_span": (0.0, 1.0)}, "path_loss_span"),
        ({"path_loss_span": (0.5, 0.2)}, "path_loss_span"),
        ({"path_loss_span": (-1.0, -1.0)}, "path_loss_span"),
    ])
    def test_shared_fields(self, cls, fields, named):
        with pytest.raises(ValueError, match=named):
            cls(**fields)

    @pytest.mark.parametrize("gain", [np.inf, -np.inf, np.nan])
    def test_coupling_gain_finite(self, gain):
        with pytest.raises(ValueError, match="coupling_gain"):
            PhysicalPathParams(coupling_gain=gain)

    def test_degenerate_path_loss_allowed(self):
        assert LOParams(path_loss_span=(0.0, 0.0)).path_loss_span == (0.0, 0.0)

    def test_normalized_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            PhysicalPathParams(coupling_gain=0.0)

    @pytest.mark.parametrize("cls, fields", [
        (PhysicalPathParams, {"coupling_gain": 1e200}),
        (PhysicalPathParams, {"coupling_gain": 1e200, "normalize": False}),
        (PhysicalPathParams, {"coupling_gain": 1e150, "num_paths": 10**10, "normalize": False}),
        (PhysicalPathParams, {"coupling_gain": 1e-200, "path_loss_span": (1.0, 1e160)}),
        (LOParams, {"power": 1e300, "path_loss_span": (1.0, 1e10)}),
        (LOParams, {"power": 1e308, "path_loss_span": (2.0, 2.0)}),
    ])
    def test_overflowing_scale_rejected(self, cls, fields):
        """Finite fields whose draws would overflow are refused up front."""
        with pytest.raises(ValueError, match="overflows|variance"):
            cls(**fields)

    @pytest.mark.parametrize("power", [-1.0, np.inf, np.nan])
    def test_lo_power(self, power):
        with pytest.raises(ValueError, match="power"):
            LOParams(power=power)


class TestEffectiveChannel:
    def make_set(self, m, n, k, seed):
        rng = rng_for(seed)
        return ChannelSet(
            h_ur=standard_complex_normal(rng, (n, k)),
            h_rv=standard_complex_normal(rng, (m, n)),
            h_uv=standard_complex_normal(rng, (m, k)),
        )

    def test_zero_ris_path(self):
        """With h_rv = 0 the composition reduces to h_uv for any theta."""
        ch = self.make_set(4, 3, 2, 0)
        ch0 = ChannelSet(ch.h_ur, np.zeros_like(ch.h_rv), ch.h_uv)
        theta = rng_for(1).uniform(0, 2 * np.pi, 3)
        assert np.allclose(effective_channel(ch0, theta), ch.h_uv)

    def test_identity_phase(self):
        ch = self.make_set(4, 3, 2, 2)
        got = effective_channel(ch, np.zeros(3))
        assert np.allclose(got, ch.h_rv @ ch.h_ur + ch.h_uv)

    def test_matches_naive_triple_loop(self):
        ch = self.make_set(4, 3, 2, 3)
        theta = rng_for(4).uniform(0, 2 * np.pi, 3)
        expected = ch.h_uv.copy()
        for m in range(4):
            for k in range(2):
                for n in range(3):
                    expected[m, k] += (
                        ch.h_rv[m, n] * np.exp(1j * theta[n]) * ch.h_ur[n, k]
                    )
        assert np.allclose(effective_channel(ch, theta), expected, atol=1e-12)

    def test_linear_in_direct_channel(self):
        ch = self.make_set(3, 2, 2, 5)
        zero_rv = np.zeros_like(ch.h_rv)
        theta = np.zeros(2)
        one = effective_channel(ChannelSet(ch.h_ur, zero_rv, ch.h_uv), theta)
        two = effective_channel(ChannelSet(ch.h_ur, zero_rv, 2.0 * ch.h_uv), theta)
        assert np.array_equal(two, 2.0 * one)

    def test_unit_modulus_phases(self):
        theta = rng_for(6).uniform(-10, 10, 50)
        assert np.allclose(np.abs(np.exp(1j * theta)), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        ch = self.make_set(4, 3, 2, 7)
        with pytest.raises(ValueError):
            effective_channel(ch, np.zeros(5))
        stack = ChannelSet(*(np.stack([a, a]) for a in (ch.h_ur, ch.h_rv, ch.h_uv)))
        for theta in (np.zeros(3), np.zeros((3, 3)), np.zeros((2, 1, 3))):
            with pytest.raises(ValueError, match="theta has shape"):
                effective_channel(stack, theta)

    def test_no_ris_elements(self):
        ch = ChannelSet(
            h_ur=np.zeros((0, 2)), h_rv=np.zeros((4, 0)), h_uv=np.ones((4, 2))
        )
        assert np.allclose(effective_channel(ch, np.zeros(0)), ch.h_uv)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, value):
        """One non-finite phase is refused by name, not composed into a
        non-finite matrix (NaN) or a RuntimeWarning (+-inf)."""
        ch = self.make_set(4, 3, 2, 8)
        theta = np.zeros(3)
        theta[1] = value
        with pytest.raises(ValueError, match="theta must be finite"):
            effective_channel(ch, theta)


class TestChannelSetValidation:
    def test_inconsistent_inner_dims(self):
        with pytest.raises(ValueError):
            ChannelSet(
                h_ur=np.zeros((3, 2)), h_rv=np.zeros((4, 5)), h_uv=np.zeros((4, 2))
            )

    def test_inconsistent_outer_dims(self):
        with pytest.raises(ValueError):
            ChannelSet(
                h_ur=np.zeros((3, 2)), h_rv=np.zeros((4, 3)), h_uv=np.zeros((5, 2))
            )

    def test_non_finite_rejected(self):
        bad = np.zeros((4, 2), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ChannelSet(h_ur=np.zeros((3, 2)), h_rv=np.zeros((4, 3)), h_uv=bad)

    def test_stack_of_sets(self):
        """Leading axes in front of all three matrices make a stack; the
        sizes are read from the last two axes."""
        ch = ChannelSet(np.zeros((2, 5, 3, 2)), np.zeros((2, 5, 4, 3)), np.zeros((2, 5, 4, 2)))
        assert (ch.h_ur.shape, ch.h_rv.shape, ch.h_uv.shape) == (
            (2, 5, 3, 2), (2, 5, 4, 3), (2, 5, 4, 2))
        assert ch.num_elements == 3

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 2), (3, 4, 3), (2, 4, 2)),
        ((2, 3, 2), (2, 4, 3), (4, 2)),
        ((3, 2), (2, 4, 3), (2, 4, 2)),
        ((2, 3, 2), (2, 4, 3), (2, 1, 4, 2)),
        ((3,), (4, 3), (4, 3)),
        ((3, 2), (4,), (4, 2)),
        ((3, 2), (4, 3), ()),
    ], ids=["trials-3-vs-2", "h_uv-unstacked", "h_ur-unstacked", "h_uv-extra-axis",
            "h_ur-1d", "h_rv-1d", "h_uv-scalar"])
    def test_leading_axes_must_agree(self, shapes):
        """Mismatched leading axes, and matrices of fewer than 2 dimensions,
        are refused."""
        with pytest.raises(ValueError, match="leading axes"):
            ChannelSet(*(np.zeros(shape) for shape in shapes))

    def test_inconsistent_inner_dims_in_a_stack(self):
        with pytest.raises(ValueError, match="columns"):
            ChannelSet(np.zeros((2, 3, 2)), np.zeros((2, 4, 5)), np.zeros((2, 4, 2)))
        with pytest.raises(ValueError, match="inconsistent"):
            ChannelSet(np.zeros((2, 3, 2)), np.zeros((2, 4, 3)), np.zeros((2, 5, 2)))
