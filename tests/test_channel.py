"""Tests for channel and local-oscillator generation."""

from dataclasses import replace

import numpy as np
import pytest

from atomris import channel
from atomris.channel import (
    ChannelSet,
    LOParams,
    PhysicalPathParams,
    effective_channel,
    gen_lo_vector,
    gen_physical_channel,
    gen_user_ris_channel,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def tensor_draw(m, cols, params, rng):
    """The channel draw through explicit polarization 3-vectors
    cos(psi) u + sin(psi) v, dotted with w by the override path, in the
    generator's draw order (angle, path loss, phase)."""
    u, v = channel._circle_basis(params.incidence_axis)
    shape = (m, cols, params.num_paths)
    psi = rng.uniform(0.0, 2.0 * np.pi, shape)
    pol = np.cos(psi)[..., None] * u + np.sin(psi)[..., None] * v
    lo, hi = params.path_loss_span
    rho = np.exp(rng.uniform(np.log(lo), np.log(hi), shape))
    phi = rng.uniform(0.0, 2.0 * np.pi, shape)
    raw = replace(params, normalize=False)
    h = gen_physical_channel(m, cols, raw, None, polarization=pol, path_loss=rho, phase=phi)
    return h / np.sqrt(channel._normalization_variance(params)) if params.normalize else h


class TestUserRisChannel:
    def test_reference_dimensions(self):
        """K=3 users through a 150-element surface gives a 150x3 matrix."""
        h = gen_user_ris_channel(3, 150, rng_for(1))
        assert h.shape == (150, 3)
        assert h.dtype == complex

    def test_deterministic_given_seed(self):
        a = gen_user_ris_channel(1, 1, rng_for(7))
        b = gen_user_ris_channel(1, 1, rng_for(7))
        assert a == b

    def test_unit_variance(self):
        """Mean |entry|^2 over 1e5 draws approaches 1 (Monte-Carlo oracle)."""
        h = gen_user_ris_channel(10, 10_000, rng_for(3))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_zero_mean(self):
        h = gen_user_ris_channel(10, 10_000, rng_for(4))
        assert abs(np.mean(h)) < 0.01

    @pytest.mark.parametrize("users,elements", [(0, 5), (5, 0), (0, 0)])
    def test_zero_dimensions_rejected(self, users, elements):
        with pytest.raises(ValueError):
            gen_user_ris_channel(users, elements, rng_for(0))


class TestPhysicalChannel:
    def test_single_path_identity(self):
        """One path with dipole.polarization = hbar, unit loss, zero phase
        gives the all-ones real matrix."""
        params = PhysicalPathParams(
            num_paths=1,
            dipole_moment=(1.0, 0.0, 0.0),
            hbar=1.0,
            incidence_axis=(0.0, 0.0, 1.0),
            normalize=False,
        )
        h = gen_physical_channel(
            4, 3, params, rng_for(0),
            polarization=np.array([1.0, 0.0, 0.0]),
            path_loss=1.0,
            phase=0.0,
        )
        assert np.allclose(h, np.ones((4, 3)))

    def test_destructive_interference(self):
        """Two equal paths with opposite phases cancel exactly."""
        params = PhysicalPathParams(num_paths=2, normalize=False)
        phase = np.zeros((2, 2, 2))
        phase[:, :, 1] = np.pi
        h = gen_physical_channel(
            2, 2, params, rng_for(0),
            polarization=np.array([1.0, 0.0, 0.0]),
            path_loss=1.0,
            phase=phase,
        )
        assert np.max(np.abs(h)) < 1e-12

    def test_matches_direct_triple_loop(self):
        """Random small instance matches an independent triple-loop sum
        over paths of coupling * loss * exp(j phase)."""
        m, cols, length = 3, 2, 4
        rng = rng_for(5)
        pol = rng.standard_normal((m, cols, length, 3))
        pol /= np.linalg.norm(pol, axis=-1, keepdims=True)
        rho = rng.uniform(0.2, 2.0, (m, cols, length))
        phi = rng.uniform(0, 2 * np.pi, (m, cols, length))
        mu = (0.3, -1.1, 0.7)
        hbar = 0.8
        params = PhysicalPathParams(
            num_paths=length, dipole_moment=mu, hbar=hbar, normalize=False
        )
        h = gen_physical_channel(
            m, cols, params, rng_for(0), polarization=pol, path_loss=rho, phase=phi
        )
        expected = np.zeros((m, cols), dtype=complex)
        for i in range(m):
            for k in range(cols):
                for l in range(length):
                    expected[i, k] += (
                        np.dot(mu, pol[i, k, l]) / hbar * rho[i, k, l]
                        * np.exp(1j * phi[i, k, l])
                    )
        assert np.allclose(h, expected, atol=1e-12)

    def test_path_permutation_invariance(self):
        """The sum over paths does not depend on path order."""
        m, cols, length = 2, 3, 5
        rng = rng_for(6)
        pol = rng.standard_normal((m, cols, length, 3))
        pol /= np.linalg.norm(pol, axis=-1, keepdims=True)
        rho = rng.uniform(0.2, 2.0, (m, cols, length))
        phi = rng.uniform(0, 2 * np.pi, (m, cols, length))
        params = PhysicalPathParams(num_paths=length, normalize=False)
        h = gen_physical_channel(
            m, cols, params, rng_for(0), polarization=pol, path_loss=rho, phase=phi
        )
        perm = rng.permutation(length)
        h2 = gen_physical_channel(
            m, cols, params, rng_for(0),
            polarization=pol[:, :, perm], path_loss=rho[:, :, perm], phase=phi[:, :, perm],
        )
        assert np.allclose(h, h2, atol=1e-12)

    def test_normalized_unit_variance(self):
        """Default (normalized) draws have per-entry variance 1."""
        h = gen_physical_channel(100, 400, PhysicalPathParams(), rng_for(8))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_polarizations_perpendicular_to_axis(self):
        """Drawn couplings vanish when the dipole is along the incidence axis."""
        params = PhysicalPathParams(
            dipole_moment=(0.0, 0.0, 1.0), incidence_axis=(0.0, 0.0, 1.0), normalize=False
        )
        h = gen_physical_channel(5, 5, params, rng_for(9))
        assert np.max(np.abs(h)) < 1e-12

    def test_zero_paths_rejected(self):
        with pytest.raises(ValueError):
            gen_physical_channel(2, 2, PhysicalPathParams(num_paths=0), rng_for(0))

    def test_non_unit_polarization_rejected(self):
        params = PhysicalPathParams(num_paths=1, normalize=False)
        with pytest.raises(ValueError, match="unit norm"):
            gen_physical_channel(
                2, 2, params, rng_for(0), polarization=np.array([2.0, 0.0, 0.0])
            )

    def test_normalize_with_overrides_rejected(self):
        with pytest.raises(ValueError, match="normalize"):
            gen_physical_channel(
                2, 2, PhysicalPathParams(num_paths=1), rng_for(0), path_loss=1.0
            )


class TestFoldedCouplingDraw:
    """Drawn polarizations reach the coupling as cos(psi) (u . w) +
    sin(psi) (v . w), without the (M, N, L, 3) tensor."""

    def test_default_model_bit_identical_to_tensor_formula(self):
        params = PhysicalPathParams()
        rng_a, rng_b = rng_for(5), rng_for(5)
        folded = gen_physical_channel(36, 150, params, rng_a)
        assert np.array_equal(folded, tensor_draw(36, 150, params, rng_b))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_coupling_constants_computed_once(self, monkeypatch):
        """The circle basis, coupling vector and normalization are fixed
        when the parameters are built; draws reuse them."""
        calls = []
        coupling = channel._coupling
        monkeypatch.setattr(channel, "_coupling", lambda p: calls.append(p) or coupling(p))
        params = PhysicalPathParams(incidence_axis=(1.0, 2.0, 3.0))
        lo = LOParams()
        rng = rng_for(8)
        for _ in range(3):
            gen_physical_channel(4, 5, params, rng)
            gen_lo_vector(4, lo, rng)
        assert calls == [params, lo]

    @pytest.mark.parametrize("fields", [
        {"incidence_axis": (1.0, 2.0, 3.0)},
        {"incidence_axis": (0.2, -0.4, 1.0), "coupling_gain": 3.0},
        {"dipole_moment": (0.3, 0.5, 0.8), "incidence_axis": (1.0, 1.0, 0.2)},
        {"dipole_moment": (0.3, 0.5, 0.8), "normalize": False},
    ])
    def test_tilted_axis_and_dipole_agree_to_an_ulp(self, fields):
        """Largest difference within 1e-15 of the largest entry."""
        params = PhysicalPathParams(**fields)
        rng_a, rng_b = rng_for(6), rng_for(6)
        folded = gen_physical_channel(36, 150, params, rng_a)
        tensor = tensor_draw(36, 150, params, rng_b)
        assert np.max(np.abs(folded - tensor)) <= 1e-15 * np.max(np.abs(tensor))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


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
        """Small instance matches independent per-element evaluation."""
        m = 5
        rng = rng_for(3)
        pol = rng.standard_normal((m, 3))
        pol /= np.linalg.norm(pol, axis=-1, keepdims=True)
        rho = rng.uniform(0.5, 1.5, m)
        phi = rng.uniform(0, 2 * np.pi, m)
        params = LOParams(
            power=4.0, reference_symbol=0.7, dipole_moment=(1.0, 0.2, -0.4), hbar=1.3
        )
        b = gen_lo_vector(m, params, rng_for(0), polarization=pol, path_loss=rho, phase=phi)
        expected = np.array(
            [
                0.7 / 1.3 * np.dot((1.0, 0.2, -0.4), pol[i]) * 2.0 * rho[i]
                * np.exp(1j * phi[i])
                for i in range(m)
            ]
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
        ({"incidence_axis": (0.0, 0.0, 0.0)}, "incidence_axis"),
        ({"incidence_axis": (np.nan, 0.0, 1.0)}, "incidence_axis"),
        ({"hbar": 0.0}, "hbar"),
        ({"coupling_gain": np.inf}, "coupling_gain"),
        ({"dipole_moment": (np.nan, 0.0, 0.0)}, "dipole_moment"),
    ])
    def test_shared_fields(self, cls, fields, named):
        with pytest.raises(ValueError, match=named):
            cls(**fields)

    def test_degenerate_path_loss_allowed(self):
        assert LOParams(path_loss_span=(0.0, 0.0)).path_loss_span == (0.0, 0.0)

    def test_normalized_coupling_along_axis_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            PhysicalPathParams(dipole_moment=(0.0, 0.0, 2.0))

    @pytest.mark.parametrize("cls, fields", [
        (PhysicalPathParams, {"coupling_gain": 1e200}),
        (PhysicalPathParams, {"coupling_gain": 1e200, "normalize": False}),
        (PhysicalPathParams, {"dipole_moment": (1e160, 0.0, 0.0), "hbar": 1e-10}),
        (PhysicalPathParams, {"coupling_gain": 1e-200, "path_loss_span": (1.0, 1e160)}),
        (LOParams, {"coupling_gain": 1e200}),
        (LOParams, {"reference_symbol": 1e160}),
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
            h_ur=gen_user_ris_channel(k, n, rng),
            h_rv=gen_user_ris_channel(n, m, rng),
            h_uv=gen_user_ris_channel(k, m, rng),
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

    def test_no_ris_elements(self):
        ch = ChannelSet(
            h_ur=np.zeros((0, 2)), h_rv=np.zeros((4, 0)), h_uv=np.ones((4, 2))
        )
        assert np.allclose(effective_channel(ch, np.zeros(0)), ch.h_uv)


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

