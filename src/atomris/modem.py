"""PAM constellations, Gray bit mapping, and Eb/N0-to-noise calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constellation",
    "NoiseSpec",
    "make_pam",
    "slice_to_indices",
    "noise_sigma",
    "hamming_table",
]

_SUPPORTED_ORDERS = (2, 4, 8, 16)


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy PAM levels with Gray bit labels.

    ``points`` are in ascending order; ``labels[i]`` is the bit string of
    ``points[i]``.  Adjacent labels differ in exactly one bit.
    """

    order: int
    points: np.ndarray
    labels: tuple[str, ...]

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @property
    def min_distance(self) -> float:
        return float(np.min(np.diff(self.points)))


@dataclass(frozen=True)
class NoiseSpec:
    """Total complex noise variance per vapor cell (split evenly between
    real and imaginary parts)."""

    sigma2: float

    def __post_init__(self):
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")


def make_pam(order: int) -> Constellation:
    """Build a Q-ary PAM constellation: equally spaced, zero-mean,
    unit-average-energy levels with Gray labels."""
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported PAM order {order}; expected one of {_SUPPORTED_ORDERS}")
    raw = np.arange(-(order - 1), order, 2, dtype=float)
    points = raw / math.sqrt(np.mean(raw**2))
    nbits = order.bit_length() - 1
    labels = tuple(format(i ^ (i >> 1), f"0{nbits}b") for i in range(order))
    return Constellation(order=order, points=points, labels=labels)


def slice_to_indices(values: np.ndarray, c: Constellation) -> np.ndarray:
    """Nearest-point indices for an array of real values.

    Exact midpoints resolve toward the smaller-amplitude level (and toward
    the negative level at the zero midpoint, where amplitudes tie).
    """
    values = np.asarray(values, dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    mids = (c.points[:-1] + c.points[1:]) / 2.0
    # side='left' sends an exact midpoint to the lower level, which is the
    # smaller amplitude for mids >= 0; bump ties at negative midpoints up.
    idx = np.searchsorted(mids, values, side="left")
    tie = idx < mids.size
    tie &= values == mids[np.minimum(idx, mids.size - 1)]
    tie &= mids[np.minimum(idx, mids.size - 1)] < 0
    return idx + tie


def noise_sigma(eb_n0_db: float, order: int) -> NoiseSpec:
    """Total complex noise variance for a per-user-per-bit Eb/N0 in dB.

    With unit symbol energy, sigma2 = 1 / (log2(Q) * 10^(Eb/N0 / 10)).
    A sigma2 that overflows or underflows the float range (|Eb/N0| beyond
    about 3080 dB) is a ValueError.
    """
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported PAM order {order}")
    bits = order.bit_length() - 1
    try:
        sigma2 = 1.0 / (bits * 10.0 ** (eb_n0_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^(Eb/N0 / 10) left the float range
        sigma2 = math.nan
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(
            f"the noise variance at Eb/N0 = {eb_n0_db} dB is not a positive finite float")
    return NoiseSpec(sigma2)


def hamming_table(c: Constellation) -> np.ndarray:
    """Q x Q table of bit differences between label pairs (for fast
    bit-error counting over detected symbol indices)."""
    q = c.order
    table = np.zeros((q, q), dtype=np.int64)
    ints = [int(lab, 2) for lab in c.labels]
    for i in range(q):
        for j in range(q):
            table[i, j] = bin(ints[i] ^ ints[j]).count("1")
    return table
