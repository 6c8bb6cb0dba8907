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


def _centroid_gap(delta: float, levels: int) -> float:
    """Sum of l_i (l_i P_i - M_i) over the cells of the L-level uniform quantizer of
    N(0, 1) with step ``delta``: labels l_i, cuts halfway between them, P_i the
    probability of cell i and M_i its first moment. It equals delta/2 times the
    derivative of the quantizer's MSE in delta, since the cut terms cancel at
    midpoint cuts, so its root is the MSE-optimal step (Max's condition)."""
    labels = delta * (np.arange(levels) - (levels - 1) / 2.0)
    cuts = delta * (np.arange(1, levels) - levels / 2.0)
    cdf = np.array([0.0, *(0.5 * math.erfc(-x / math.sqrt(2.0)) for x in cuts.tolist()), 1.0])
    pdf = np.concatenate(([0.0], np.exp(-cuts**2 / 2.0) / math.sqrt(2.0 * math.pi), [0.0]))
    return float(np.sum(labels * (labels * np.diff(cdf) - (pdf[:-1] - pdf[1:]))))


@lru_cache(maxsize=None)
def gaussian_step_coefficient(levels: int) -> float:
    """Step size minimizing Gaussian quantization MSE at unit variance.

    c(2) = 1.595769..., c(4) = 0.995687..., decreasing roughly as 1/L. The
    root of the centroid gap, bisected on (1e-6, 4) down to adjacent floats;
    the upper one is returned, the first step with a positive gap.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    lo, hi = 1e-6, 4.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if _centroid_gap(mid, levels) > 0 else (mid, hi)
    return hi


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
