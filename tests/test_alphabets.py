"""Tests for the discrete label sets and quantization-step selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridprec.alphabets import (
    Alphabet, DegenerateInputError, _gaussian_quantizer_mse, choose_delta,
    gaussian_step_coefficient, make_analog_alphabet, make_digital_alphabet, ndtr,
    nearest_labels,
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
    """c(L) and its MSE are bit-identical to the scipy.stats / scipy.optimize
    form they replace; the oracles are imported here only, so the package
    itself never loads them."""

    @staticmethod
    def norm_mse(delta, levels):
        from scipy.stats import norm
        labels = delta * (np.arange(levels) - (levels - 1) / 2.0)
        cuts = delta * (np.arange(1, levels) - levels / 2.0)
        a = np.concatenate(([-np.inf], cuts))
        b = np.concatenate((cuts, [np.inf]))
        mass = norm.cdf(b) - norm.cdf(a)
        pa, pb = norm.pdf(a), norm.pdf(b)
        aa = np.where(np.isfinite(a), a, 0.0)
        bb = np.where(np.isfinite(b), b, 0.0)
        seg = labels**2 * mass - 2 * labels * (pa - pb) + mass + aa * pa - bb * pb
        return float(np.sum(seg))

    @pytest.mark.parametrize("levels", [*range(2, 65), 128, 256, 512])
    def test_coefficient_bits(self, levels):
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(self.norm_mse, args=(levels,), bounds=(1e-6, 4.0),
                              method="bounded", options={"xatol": 1e-10})
        assert gaussian_step_coefficient(levels) == float(res.x)

    def test_mse_bits(self):
        rng = np.random.default_rng(RNG_SEED)
        steps = np.concatenate([[1e-6, 4.0], rng.uniform(1e-6, 4.0, 300)])
        for delta, levels in zip(steps, rng.integers(2, 513, len(steps))):
            levels = int(levels)
            assert _gaussian_quantizer_mse(delta, levels) == self.norm_mse(delta, levels)


class TestNdtrMatchesScipy:
    """The in-package normal CDF is bit-identical to ``scipy.special.ndtr``,
    imported here only as the oracle."""

    def test_bits(self):
        from scipy.special import ndtr as scipy_ndtr
        rng = np.random.default_rng(RNG_SEED)
        sqrt2 = np.sqrt(2.0)
        # branch edges, x = a / sqrt(2): |a| = 1 (erf / erfc), x = 1 (erfc by erf), x = 8
        # (erfc's two fits), exp(-x^2) underflow at |a| ~ 37.7
        edges = np.array([1.0, sqrt2, 8.0 * sqrt2, np.sqrt(2 * 7.09782712893383996843e2),
                          37.5, 38.0])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        points = np.concatenate([
            rng.uniform(-40.0, 40.0, 60_000), 3.0 * rng.standard_normal(40_000),
            rng.uniform(-1.5, 1.5, 20_000), near, -near,
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308],
        ])
        ours, theirs = ndtr(points), scipy_ndtr(points)
        assert ours.shape == points.shape
        np.testing.assert_array_equal(np.isnan(ours), np.isnan(points))
        finite = ~np.isnan(points)
        np.testing.assert_array_equal(ours[finite].view(np.int64), theirs[finite].view(np.int64))

    def test_shape_and_special_values(self):
        np.testing.assert_array_equal(ndtr(np.array([[-np.inf, 0.0], [-0.0, np.inf]])),
                                      [[0.0, 0.5], [0.5, 1.0]])
        assert ndtr(np.array(0.0)).shape == ()


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
