"""Discrete label sets for phase shifters and quantized digital precoder entries.

Two families of alphabets are used throughout the package: unit-modulus
phase labels for the analog network, and uniform real/complex quantization
grids for the digital precoder. All solver outputs are restricted to these
sets, so labels are constructed once and reused bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import norm

ANALOG_PHASE = "analog-phase"
DIGITAL_COMPLEX = "digital-complex"
DIGITAL_REAL = "digital-real"
SWITCH_BINARY = "switch-binary"  # internal: used by the dynamic-connected design


class DegenerateInputError(ValueError):
    """Statistic requested from all-zero reference data."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered, finite label set.

    ``labels`` is the canonical array; solver outputs are taken from it
    directly so that membership checks can compare bit-identically.
    """

    labels: np.ndarray
    kind: str
    resolution_bits: Optional[int] = None
    levels_per_dim: Optional[int] = None
    step: Optional[float] = None

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DeltaRule:
    """How the digital quantization step is selected.

    ``gaussian-fit`` picks the step minimizing quantization MSE under a
    Gaussian model of the precoder entries, scaled by their sample std.
    ``fixed`` passes ``fixed_value`` through unchanged.
    """

    method: str = "gaussian-fit"
    fixed_value: Optional[float] = None
    gaussian_coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("fixed", "gaussian-fit"):
            raise ValueError(f"unknown delta rule method {self.method!r}")
        if self.method == "fixed" and (self.fixed_value is None or self.fixed_value <= 0):
            raise ValueError("fixed delta rule requires a positive fixed_value")
        if any(c <= 0 for c in self.gaussian_coefficients.values()):
            raise ValueError("gaussian coefficients must be positive")


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
    return Alphabet(labels=labels, kind=ANALOG_PHASE, resolution_bits=int(bits))


def make_digital_alphabet(levels: int, delta: float, kind: str = DIGITAL_COMPLEX) -> Alphabet:
    """Uniform quantization labels delta*(i - (L-1)/2), i = 0..L-1.

    ``kind`` selects the real label set or its Cartesian square (ordered with
    the real index as the major axis).
    """
    if not isinstance(levels, (int, np.integer)) or levels < 2:
        raise ValueError(f"need at least 2 quantization levels, got {levels!r}")
    if not delta > 0:
        raise ValueError(f"quantization step must be positive, got {delta!r}")
    real = delta * (np.arange(levels) - (levels - 1) / 2.0)
    # enforce exact symmetry about zero
    half = levels // 2
    real[levels - 1 - np.arange(half)] = -real[:half]
    if kind == DIGITAL_REAL:
        labels = real
    elif kind == DIGITAL_COMPLEX:
        labels = (real[:, None] + 1j * real[None, :]).ravel()
    else:
        raise ValueError(f"unknown digital alphabet kind {kind!r}")
    return Alphabet(labels=labels, kind=kind, levels_per_dim=int(levels), step=float(delta))


def make_switch_alphabet() -> Alphabet:
    """The {0, 1} set used for the RF-chain/antenna switch network."""
    return Alphabet(labels=np.array([0.0, 1.0]), kind=SWITCH_BINARY)


def _gaussian_quantizer_mse(delta: float, levels: int) -> float:
    """E[(q(x) - x)^2] for x ~ N(0,1) under the L-level uniform quantizer."""
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


@lru_cache(maxsize=None)
def gaussian_step_coefficient(levels: int) -> float:
    """Step size minimizing Gaussian quantization MSE at unit variance.

    c(2) = 1.595769..., c(4) = 0.995687..., decreasing roughly as 1/L.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    res = minimize_scalar(
        _gaussian_quantizer_mse, args=(levels,), bounds=(1e-6, 4.0),
        method="bounded", options={"xatol": 1e-10},
    )
    return float(res.x)


def choose_delta(reference_entries: np.ndarray, levels: int, rule: Optional[DeltaRule] = None) -> float:
    """Quantization step for the given reference entries.

    Under ``gaussian-fit`` the step is c(L) times the sample std of the
    pooled real and imaginary parts (population normalization).
    """
    if rule is None:
        rule = DeltaRule()
    if rule.method == "fixed":
        return float(rule.fixed_value)
    entries = np.asarray(reference_entries).ravel()
    if entries.size == 0 or not np.any(entries != 0):
        raise DegenerateInputError("cannot fit a quantization step to all-zero entries")
    pooled = np.concatenate([entries.real, entries.imag])
    sigma = float(np.std(pooled))
    if sigma <= 0:
        raise DegenerateInputError("reference entries have zero spread")
    coeff = rule.gaussian_coefficients.get(levels)
    if coeff is None:
        coeff = gaussian_step_coefficient(levels)
    return float(coeff) * sigma


def nearest_label(value: complex, alphabet: Alphabet) -> complex:
    """Closest label to ``value``; ties resolve to the lowest label index."""
    if not np.isfinite(value):
        raise ValueError(f"value must be finite, got {value!r}")
    return alphabet.labels[int(np.argmin(np.abs(value - alphabet.labels)))]


def nearest_labels(values: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """Vectorized nearest-label mapping, preserving the input shape.

    For complex digital grids the search separates over real and imaginary
    axes; the per-axis first-occurrence tie break reproduces the lowest
    overall label index because labels are ordered real-major.
    """
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if alphabet.kind == DIGITAL_COMPLEX:
        L = alphabet.levels_per_dim
        real_axis = alphabet.labels[::L].real
        imag_axis = alphabet.labels[:L].imag
        i_re = np.argmin(np.abs(values.real[..., None] - real_axis), axis=-1)
        i_im = np.argmin(np.abs(values.imag[..., None] - imag_axis), axis=-1)
        return alphabet.labels[i_re * L + i_im]
    flat = values.ravel()
    out = np.empty(flat.shape, dtype=alphabet.labels.dtype)
    chunk = max(1, 2**22 // max(len(alphabet), 1))
    for start in range(0, flat.size, chunk):
        block = flat[start:start + chunk]
        idx = np.argmin(np.abs(block[:, None] - alphabet.labels[None, :]), axis=1)
        out[start:start + chunk] = alphabet.labels[idx]
    return out.reshape(values.shape)


def is_member(values: np.ndarray, alphabet: Alphabet) -> bool:
    """True if every entry equals some label bit-identically."""
    values = np.asarray(values).ravel()
    return bool(np.all(np.isin(values, alphabet.labels)))
