"""Tests for the discrete label sets and quantization-step selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridprec.alphabets import (
    DegenerateInputError, _centroid_gap, choose_delta, gaussian_step_coefficient,
    make_analog_alphabet, make_digital_alphabet, nearest_labels,
)

from membership import is_member

RNG_SEED = 2024


class TestAnalogAlphabet:
    def test_one_bit(self):
        """b=1 gives exactly {+1, -1}."""
        labels = make_analog_alphabet(1).labels
        np.testing.assert_array_equal(labels, np.array([1.0 + 0j, -1.0 + 0j]))

    def test_two_bits(self):
        """b=2 gives the quarter-turn phases in order."""
        labels = make_analog_alphabet(2).labels
        np.testing.assert_allclose(labels, np.array([1, 1j, -1, -1j]), atol=1e-15)

    def test_three_bits_uniform_spacing(self):
        """b=3 gives 8 labels with adjacent phase gap pi/4."""
        labels = make_analog_alphabet(3).labels
        assert len(labels) == 8
        angles = np.unwrap(np.angle(labels))
        np.testing.assert_allclose(np.diff(angles), np.pi / 4, atol=1e-12)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_unit_modulus_and_count(self, bits):
        labels = make_analog_alphabet(bits).labels
        assert len(labels) == 2**bits
        np.testing.assert_allclose(np.abs(labels), 1.0, atol=1e-15)
        assert len(np.unique(labels)) == len(labels)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_closed_under_negation(self, bits):
        """The negative of every label is itself a label (bit-exact)."""
        labels = make_analog_alphabet(bits).labels
        assert np.all(np.isin(-labels, labels))

    @pytest.mark.parametrize("bits", [0, 17, -1])
    def test_out_of_range_bits(self, bits):
        with pytest.raises(ValueError):
            make_analog_alphabet(bits)


class TestDigitalAlphabet:
    def test_two_levels_unit_step(self):
        """L=2, delta=1 gives real labels {-0.5, +0.5}."""
        labels = make_digital_alphabet(2, 1.0).labels
        np.testing.assert_array_equal(labels, np.array([-0.5, 0.5]))

    def test_four_levels(self):
        """L=4, delta=2 gives {-3, -1, +1, +3}."""
        labels = make_digital_alphabet(4, 2.0).labels
        np.testing.assert_array_equal(labels, np.array([-3.0, -1.0, 1.0, 3.0]))

    @pytest.mark.parametrize("levels", [2, 4, 8, 32])
    def test_symmetric_and_zero_sum(self, levels):
        labels = make_digital_alphabet(levels, 0.37).labels
        np.testing.assert_array_equal(np.sort(-labels), labels)
        assert np.sum(labels) == 0.0

    @pytest.mark.parametrize("levels,delta", [(1, 1.0), (0, 1.0), (2, 0.0), (2, -1.0)])
    def test_invalid_parameters(self, levels, delta):
        with pytest.raises(ValueError):
            make_digital_alphabet(levels, delta)


class TestChooseDelta:
    def test_two_level_coefficient_against_grid_oracle(self):
        """c(2) agrees with an independent grid minimization of the
        Gaussian quantization MSE. With labels +-delta/2 the nearest label q
        gives (q - x)^2 = x^2 - delta |x| + delta^2 / 4, so the trapezoid MSE
        of every step is one combination of three trapezoid moments."""
        xs = np.linspace(-10, 10, 100_001)
        pdf = np.exp(-xs**2 / 2) / np.sqrt(2 * np.pi)
        m0, m1, m2 = (np.trapezoid(f * pdf, xs) for f in (1.0, np.abs(xs), xs**2))
        grid = np.linspace(1.0, 2.2, 2401)
        oracle = grid[int(np.argmin(m2 - grid * m1 + grid**2 / 4 * m0))]
        assert abs(gaussian_step_coefficient(2) - oracle) < 1e-3
        # analytic optimum for two levels: twice the mean of |x|
        assert abs(gaussian_step_coefficient(2) - 2 * np.sqrt(2 / np.pi)) < 1e-6

    def test_unit_sigma_entries(self):
        """Entries with unit pooled std give delta = c(2)."""
        rng = np.random.default_rng(RNG_SEED)
        raw = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        pooled = np.concatenate([raw.real, raw.imag])
        entries = raw / np.std(pooled)
        delta = choose_delta(entries, 2)
        assert abs(delta - gaussian_step_coefficient(2)) < 1e-12

    def test_scaling_homogeneity(self):
        """choose_delta(k * entries) = k * choose_delta(entries) for k > 0."""
        rng = np.random.default_rng(RNG_SEED)
        entries = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        base = choose_delta(entries, 4)
        np.testing.assert_allclose(choose_delta(10 * entries, 4), 10 * base, rtol=1e-12)
        np.testing.assert_allclose(choose_delta(0.25 * entries, 4), 0.25 * base, rtol=1e-12)

    def test_all_zero_entries(self):
        with pytest.raises(DegenerateInputError):
            choose_delta(np.zeros(8, dtype=complex), 2)

    def test_zero_spread_entries(self):
        """Nonzero entries whose real and imaginary parts are all equal."""
        with pytest.raises(DegenerateInputError, match="zero spread"):
            choose_delta(np.full(8, 1.0 + 1.0j), 2)

    def test_coefficient_needs_two_levels(self):
        with pytest.raises(ValueError, match="at least 2 levels"):
            gaussian_step_coefficient(1)

    def test_coefficients_decrease_with_levels(self):
        cs = [gaussian_step_coefficient(L) for L in (2, 4, 8, 16, 32)]
        assert all(a > b for a, b in zip(cs, cs[1:]))


class TestStepCoefficientMatchesScipy:
    """c(L) is the root of the centroid gap of the L-level quantizer (Max's
    condition): to the bit on the package's own gap, and to 1e-12 relative on
    the same gap built from scipy.stats.norm and solved by scipy's brentq. The
    oracles are imported here only, so the package itself never loads them."""

    @staticmethod
    def norm_gap(delta, levels):
        from scipy.stats import norm
        labels = delta * (np.arange(levels) - (levels - 1) / 2.0)
        edges = np.concatenate(([-np.inf], delta * (np.arange(1, levels) - levels / 2.0),
                                [np.inf]))
        mass = np.diff(norm.cdf(edges))
        moment = norm.pdf(edges[:-1]) - norm.pdf(edges[1:])
        return float(np.sum(labels * (labels * mass - moment)))

    @pytest.mark.parametrize("levels", [*range(2, 65), 128, 256, 512])
    def test_coefficient_bits(self, levels):
        """c(L) is the first float at which the gap turns positive, and
        brentq's root of scipy's gap agrees with it."""
        from scipy.optimize import brentq
        c = gaussian_step_coefficient(levels)
        assert _centroid_gap(c, levels) > 0 >= _centroid_gap(np.nextafter(c, 0.0), levels)
        root = brentq(self.norm_gap, 1e-6, 4.0, args=(levels,), xtol=1e-300, rtol=1e-15)
        assert abs(c - root) <= 1e-12 * root

    def test_two_levels_keep_their_bits(self):
        """c(2) = 4 phi(0) is the value every two-level design was made with."""
        assert gaussian_step_coefficient(2) == 1.595769121605731

    def test_inside_the_bracket_and_decreasing(self):
        levels = sorted({int(L) for L in np.geomspace(2, 4096, 120)})
        cs = [gaussian_step_coefficient(L) for L in levels]
        assert all(1e-6 < c < 4.0 for c in cs)
        assert all(a > b for a, b in zip(cs, cs[1:]))


class TestNearestLabel:
    def test_analog_phase_example(self):
        """A phase of 0.3*pi is closer to j than to 1 on the b=2 circle."""
        alphabet = make_analog_alphabet(2)
        assert nearest_labels(np.exp(1j * 0.3 * np.pi), alphabet) == alphabet.labels[1]

    def test_matches_exhaustive_scan(self):
        """Vectorized mapping agrees with a per-value exhaustive scan."""
        rng = np.random.default_rng(RNG_SEED)
        for alphabet in (make_analog_alphabet(3), make_digital_alphabet(4, 0.8),
                         make_digital_alphabet(2, 1.3)):
            values = rng.standard_normal((5, 7))
            if np.iscomplexobj(alphabet.labels):
                values = values + 1j * rng.standard_normal((5, 7))
            fast = nearest_labels(values, alphabet)
            for idx in np.ndindex(values.shape):
                best, best_d = None, np.inf
                for lab in alphabet.labels:
                    d = abs(values[idx] - lab)
                    if d < best_d:
                        best, best_d = lab, d
                assert fast[idx] == best

    def test_tie_breaks_to_lowest_index(self):
        """Exact midpoints resolve to the earlier label."""
        real = make_digital_alphabet(4, 2.0)  # {-3,-1,1,3}
        np.testing.assert_array_equal(nearest_labels(np.array([0.0, 2.0, -2.0]), real),
                                      [-1.0, 1.0, -3.0])

    @given(st.floats(-4, 4), st.floats(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, re, im):
        """nearest_labels(nearest_labels(v)) == nearest_labels(v)."""
        for alphabet, value in ((make_digital_alphabet(4, 0.75), re),
                                (make_analog_alphabet(3), re + 1j * im)):
            once = nearest_labels(value, alphabet)
            assert nearest_labels(once, alphabet) == once

    def test_membership_bit_identity(self):
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(2)
        mapped = nearest_labels(rng.standard_normal(32) + 1j * rng.standard_normal(32), alphabet)
        assert is_member(mapped, alphabet)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nearest_labels(np.array([0.0, np.inf]), make_analog_alphabet(1))
