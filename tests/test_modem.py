"""Tests for PAM constellations, Gray labeling, and noise calibration."""

import numpy as np
import pytest

from atomris.modem import NoiseSpec, hamming_table, make_pam, noise_sigma, slice_to_indices


class TestMakePam:
    def test_binary_levels(self):
        c = make_pam(2)
        assert np.allclose(c.points, [-1.0, 1.0])

    def test_four_level_values(self):
        c = make_pam(4)
        assert np.allclose(c.points, np.array([-3, -1, 1, 3]) / np.sqrt(5))

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_unit_energy_and_zero_mean(self, order):
        c = make_pam(order)
        assert abs(np.mean(c.points**2) - 1.0) < 1e-12
        assert abs(np.mean(c.points)) < 1e-12

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_gray_property(self, order):
        """Adjacent levels differ in exactly one label bit."""
        c = make_pam(order)
        for a, b in zip(c.labels, c.labels[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    def test_binary_convention(self):
        """Label 0 maps to -1, label 1 to +1."""
        c = make_pam(2)
        assert c.labels == ("0", "1")
        assert np.allclose(c.points, [-1.0, 1.0])

    @pytest.mark.parametrize("order", [3, 5, 32, 0, -4])
    def test_unsupported_order(self, order):
        with pytest.raises(ValueError):
            make_pam(order)


class TestDemodulate:
    def test_exact_points(self):
        c = make_pam(8)
        assert np.array_equal(slice_to_indices(c.points, c), np.arange(8))

    def test_midpoint_tie_smaller_amplitude(self):
        """Exact midpoints resolve toward the smaller-amplitude level."""
        c = make_pam(4)
        # between -3 and -1 (scaled): smaller amplitude is -1
        assert slice_to_indices(np.array([-2.0 / np.sqrt(5)]), c)[0] == 1
        # between +1 and +3: smaller amplitude is +1
        assert slice_to_indices(np.array([2.0 / np.sqrt(5)]), c)[0] == 2
        # zero midpoint: amplitudes tie, negative level by convention
        assert slice_to_indices(np.array([0.0]), c)[0] == 1

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_perturbation_within_half_distance(self, order):
        """Perturbing any point by under half the minimum distance never
        changes its index (exhaustive sweep)."""
        c = make_pam(order)
        for delta in (-0.49, -0.2, 0.0, 0.2, 0.49):
            values = c.points + delta * c.min_distance
            assert np.array_equal(slice_to_indices(values, c), np.arange(order))

    def test_nearest_neighbor_rule(self):
        """Output always minimizes |value - point| (random sweep)."""
        c = make_pam(16)
        values = np.random.default_rng(0).uniform(-2, 2, 500)
        idx = slice_to_indices(values, c)
        brute = np.argmin(np.abs(values[:, None] - c.points[None, :]), axis=1)
        assert np.array_equal(idx, brute)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            slice_to_indices(np.array([np.nan]), make_pam(4))


class TestNoiseSigma:
    def test_four_pam_zero_db(self):
        assert noise_sigma(0.0, 4).sigma2 == pytest.approx(0.5, abs=1e-15)

    def test_binary_ten_db(self):
        assert noise_sigma(10.0, 2).sigma2 == pytest.approx(0.1, abs=1e-15)

    def test_monotone_decreasing(self):
        grid = np.linspace(-30, 50, 100)
        sig = [noise_sigma(db, 8).sigma2 for db in grid]
        assert all(a > b for a, b in zip(sig, sig[1:]))
        assert sig[-1] < 1e-5

    @pytest.mark.parametrize("db", [4000.0, 3080.0, -3200.0, -4000.0, np.nan, np.inf, -np.inf])
    def test_variance_outside_float_range_rejected(self, db):
        """Overflow and underflow of 10^(Eb/N0 / 10) or of sigma2 itself."""
        with pytest.raises(ValueError, match="noise variance"):
            noise_sigma(db, 4)

    def test_extreme_but_representable(self):
        assert 1e308 < noise_sigma(-3084.5, 4).sigma2 < np.inf
        assert 0.0 < noise_sigma(3078.0, 4).sigma2 < 1e-307

    @pytest.mark.parametrize("sigma2", [-1.0, np.inf, np.nan])
    def test_spec_rejects_negative_or_non_finite(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            NoiseSpec(sigma2)


class TestHammingTable:
    def test_matches_label_xor(self):
        c = make_pam(16)
        table = hamming_table(c)
        for i, a in enumerate(c.labels):
            for j, b in enumerate(c.labels):
                assert table[i, j] == sum(x != y for x, y in zip(a, b))
        assert np.array_equal(table, table.T)
        assert np.all(np.diag(table) == 0)
