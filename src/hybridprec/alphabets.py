"""Discrete label sets for phase shifters and quantized digital precoder entries.

Two families of alphabets are used throughout the package: unit-modulus
phase labels for the analog network, and a uniform real quantization grid
for the digital precoder, applied to the real and imaginary parts of each
entry. All solver outputs are restricted to these sets, so labels are
constructed once and reused bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import ndtr


class DegenerateInputError(ValueError):
    """Statistic requested from all-zero reference data."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered, finite label set.

    ``labels`` is the canonical array; solver outputs are taken from it
    directly so that membership checks can compare bit-identically.
    """

    labels: np.ndarray
    resolution_bits: Optional[int] = None

    def __len__(self) -> int:
        return len(self.labels)


def make_analog_alphabet(bits: int) -> Alphabet:
    """Unit-modulus labels at 2^bits uniformly spaced phases starting at 0.

    The upper half-circle is built by exact negation of the lower half so the
    set is closed under negation in floating point.
    """
    if not isinstance(bits, (int, np.integer)) or not 1 <= bits <= 16:
        raise ValueError(f"analog resolution must be an integer in [1, 16], got {bits!r}")
    half = 2 ** (bits - 1)
    angles = np.arange(half) * (np.pi / half)
    lower = np.exp(1j * angles)
    lower[0] = 1.0 + 0.0j
    if bits >= 2:
        lower[half // 2] = 1.0j
    labels = np.concatenate([lower, -lower])
    return Alphabet(labels=labels, resolution_bits=int(bits))


def make_digital_alphabet(levels: int, delta: float) -> Alphabet:
    """Uniform real quantization labels delta*(i - (L-1)/2), i = 0..L-1.

    A complex digital entry takes one label for its real part and one for
    its imaginary part.
    """
    if not isinstance(levels, (int, np.integer)) or levels < 2:
        raise ValueError(f"need at least 2 quantization levels, got {levels!r}")
    if not delta > 0:
        raise ValueError(f"quantization step must be positive, got {delta!r}")
    labels = delta * (np.arange(levels) - (levels - 1) / 2.0)
    # enforce exact symmetry about zero
    half = levels // 2
    labels[levels - 1 - np.arange(half)] = -labels[:half]
    return Alphabet(labels=labels)


def make_switch_alphabet() -> Alphabet:
    """The {0, 1} set used for the RF-chain/antenna switch network."""
    return Alphabet(labels=np.array([0.0, 1.0]))


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density, in the arithmetic of ``scipy.stats.norm.pdf``."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _gaussian_quantizer_mse(delta: float, levels: int) -> float:
    """E[(q(x) - x)^2] for x ~ N(0,1) under the L-level uniform quantizer."""
    labels = delta * (np.arange(levels) - (levels - 1) / 2.0)
    cuts = delta * (np.arange(1, levels) - levels / 2.0)
    a = np.concatenate(([-np.inf], cuts))
    b = np.concatenate((cuts, [np.inf]))
    mass = ndtr(b) - ndtr(a)
    pa, pb = _norm_pdf(a), _norm_pdf(b)
    aa = np.where(np.isfinite(a), a, 0.0)
    bb = np.where(np.isfinite(b), b, 0.0)
    seg = labels**2 * mass - 2 * labels * (pa - pb) + mass + aa * pa - bb * pb
    return float(np.sum(seg))


@lru_cache(maxsize=None)
def gaussian_step_coefficient(levels: int) -> float:
    """Step size minimizing Gaussian quantization MSE at unit variance.

    c(2) = 1.595769..., c(4) = 0.995687..., decreasing roughly as 1/L.
    The result is bit-identical to ``scipy.optimize.minimize_scalar`` with
    ``method="bounded"``, ``bounds=(1e-6, 4.0)`` and ``xatol=1e-10``.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    return float(_bounded_brent(lambda d: _gaussian_quantizer_mse(d, levels), 1e-6, 4.0, 1e-10))


def _bounded_brent(func, a: float, b: float, xatol: float) -> float:
    """Minimizer of ``func`` on [a, b] by Brent's golden-section/parabolic search
    (Brent 1973, ch. 5), with the arithmetic and operation order of scipy's
    ``_minimize_scalar_bounded`` so that it returns the same bits, including
    its cap of 500 evaluations."""
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500 or not np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
            return xf
        parabolic = False
        if np.abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                parabolic = True
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if not parabolic:  # golden-section step into the larger part
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu


def choose_delta(reference_entries: np.ndarray, levels: int) -> float:
    """Quantization step for the given reference entries.

    The step minimizes quantization MSE under a Gaussian model of the
    entries: c(L) times the sample std of the pooled real and imaginary
    parts (population normalization).
    """
    entries = np.asarray(reference_entries).ravel()
    if entries.size == 0 or not np.any(entries != 0):
        raise DegenerateInputError("cannot fit a quantization step to all-zero entries")
    pooled = np.concatenate([entries.real, entries.imag])
    sigma = float(np.std(pooled))
    if sigma <= 0:
        raise DegenerateInputError("reference entries have zero spread")
    return gaussian_step_coefficient(levels) * sigma


def nearest_labels(values: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """Closest label to each value, preserving the input shape; ties resolve
    to the lowest label index."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    flat = values.ravel()
    out = np.empty(flat.shape, dtype=alphabet.labels.dtype)
    chunk = max(1, 2**22 // max(len(alphabet), 1))
    for start in range(0, flat.size, chunk):
        out[start:start + chunk] = _nearest(flat[start:start + chunk], alphabet.labels)
    return out.reshape(values.shape)


def _nearest(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Closest label per entry, lowest index on ties; unchecked, for solver loops."""
    return labels[np.argmin(np.abs(values[..., None] - labels), axis=-1)]


def is_member(values: np.ndarray, alphabet: Alphabet) -> bool:
    """True if every entry equals some label bit-identically."""
    values = np.asarray(values).ravel()
    return bool(np.all(np.isin(values, alphabet.labels)))
