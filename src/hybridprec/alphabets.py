"""Discrete label sets for phase shifters and quantized digital precoder entries.

Two families of alphabets are used throughout the package: unit-modulus
phase labels for the analog network, and a uniform real quantization grid
for the digital precoder, applied to the real and imaginary parts of each
entry. All solver outputs are restricted to these sets, so labels are
constructed once and reused bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np


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


# Cephes ndtr.c (S. L. Moshier): erfc(x) = exp(-x^2) P(x)/Q(x) on [1, 8) and
# exp(-x^2) R(x)/S(x) on [8, inf), erf(x) = x T(x^2)/U(x^2) on [-1, 1]. The
# leading 1 of Q, S and U is written out: Cephes' p1evl rounds as polevl on it.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): exp(-x*x) underflows past it


def _polevl(x: float, coef: tuple) -> float:
    """coef[0]*x^N + ... + coef[N] in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes erf for |x| <= 1, all that ndtr asks of it."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    """Cephes erfc for x >= 0, all that ndtr asks of it; nan stays nan."""
    if x < 1.0:
        return 1.0 - _erf(x)
    if -x * x < -_MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return math.exp(-x * x) * _polevl(x, p) / _polevl(x, q)


def _ndtr(a: float) -> float:
    x = a * math.sqrt(0.5)
    z = abs(x)
    if z < math.sqrt(0.5):
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit-identical to ``scipy.special.ndtr``: a port of
    Cephes ``ndtr``, ``erf`` and ``erfc``, one entry at a time."""
    a = np.asarray(a, dtype=float)
    return np.array([_ndtr(v) for v in a.ravel().tolist()]).reshape(a.shape)


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
