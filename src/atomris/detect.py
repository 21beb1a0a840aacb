"""Magnitude-only front end and the three symbol detectors.

The photodetectors report only z = |H_eq s + b + n|.  With the RIS phases
aligned to the LO and a strong LO, z is approximately |b| + H_opt s plus
residual noise, so re-attaching the LO phase and subtracting b yields a
linear system the least-squares detector inverts directly.  The exhaustive
detector searches all Q^K symbol vectors against the exact magnitude
model, one fixed block of candidates at a time, so its memory is bounded
by a block rather than by Q^K.  The genie ZF detector consumes the complex
observation (known phase) and lower-bounds the proposed (linear) detector
only: it is zero forcing, and on the almost lossless magnitude readout the
exhaustive maximum-likelihood search beats zero forcing even with known
phase.

All kernels are batched: columns of ``s``, ``y`` and ``z`` are symbol
vectors, and every kernel returns one column per observation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError
from .modem import Constellation, NoiseSpec, slice_to_indices

__all__ = [
    "front_end",
    "ls_estimate",
    "detect_proposed_batch",
    "detect_exhaustive_batch",
    "detect_zf_batch",
    "enumerate_symbol_vectors",
]

# The exhaustive search scores its candidates in blocks; this byte budget
# bounds one block's complex fields, magnitudes and observation-major
# scores, 8 (3M + n) bytes per candidate for n observations.
_BLOCK_BYTES = 512 << 10


def front_end(
    h_eq: np.ndarray,
    s: np.ndarray,
    b: np.ndarray,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Complex observations y = H_eq s + b + n for symbol vectors ``s``
    (K, n); the photodetectors report z = |y|.

    The noise is circularly-symmetric Gaussian of total variance
    ``noise.sigma2`` per cell, drawn as the real (M, n) normals, then the
    imaginary ones.
    """
    m, k = h_eq.shape
    if s.ndim != 2 or s.shape[0] != k or b.shape != (m,):
        raise ValueError(f"s {s.shape} and b {b.shape} do not fit a ({m}, {k}) channel")
    shape = (m, s.shape[1])
    scale = math.sqrt(noise.sigma2 / 2.0)
    awgn = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return h_eq @ s + b[:, None] + awgn


def ls_estimate(h_eq: np.ndarray, rhs: np.ndarray, cond_threshold: float = 1e12) -> np.ndarray:
    """Pre-slicing least-squares estimate (H^H H)^-1 H^H rhs, solved from
    the normal equations after a condition check."""
    h_eq = np.asarray(h_eq, dtype=complex)
    m, k = h_eq.shape
    if k > m:
        raise ValueError(f"more users ({k}) than cells ({m}); least squares undefined")
    gram = h_eq.conj().T @ h_eq
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > cond_threshold:
        raise SingularMatrixError(
            f"H^H H is numerically singular (condition number {cond:.3e})"
        )
    return np.linalg.solve(gram, h_eq.conj().T @ np.asarray(rhs, dtype=complex))


def detect_proposed_batch(
    z: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Least-squares detection of a batch of magnitude observations.

    ``z`` has shape (M, n); returns constellation indices (K, n).  The LO
    phase is re-attached to z, the complex LO subtracted, and the real
    part of the LS estimate sliced per user.
    """
    z = np.asarray(z, dtype=float)
    h_eq = np.asarray(h_eq, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rhs = z * np.exp(1j * np.angle(b))[:, None] - b[:, None]
    s_hat = ls_estimate(h_eq, rhs).real
    return slice_to_indices(s_hat, c)


def enumerate_symbol_vectors(c: Constellation, num_users: int) -> np.ndarray:
    """All Q^K candidate symbol vectors as an index matrix (K, Q^K), in
    lexicographic symbol order (first user most significant)."""
    return np.indices((c.order,) * num_users).reshape(num_users, -1)


def detect_exhaustive_batch(
    z: np.ndarray,
    h_eq: np.ndarray,
    b: np.ndarray,
    c: Constellation,
    budget: int = 2**20,
) -> np.ndarray:
    """Exhaustive-search detection of a batch of magnitude observations.

    Minimizes ||z - |H_eq s + b|||_2^2 over all Q^K candidates; ties break
    toward the lexicographically smallest candidate.  Refuses Q^K beyond
    ``budget`` with a cost estimate.

    Candidates are scored in lexicographic blocks of at most
    ``_BLOCK_BYTES`` of temporaries, as an (n, block) matrix whose argmin
    runs along contiguous rows; a block's best replaces the running best
    only when strictly smaller, which keeps the tie-break.
    """
    z = np.asarray(z, dtype=float)
    h_eq = np.asarray(h_eq, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m, k = h_eq.shape
    if z.ndim != 2 or z.shape[0] != m or b.shape != (m,):
        raise ValueError(
            f"shape mismatch: z {z.shape}, b {b.shape}, channel ({m}, {k})"
        )
    n_cand = c.order**k
    if n_cand > budget:
        raise BudgetExceededError(
            f"exhaustive search needs Q^K = {c.order}^{k} = {n_cand} candidates "
            f"(budget {budget})"
        )
    cand_idx = enumerate_symbol_vectors(c, k)
    n_obs = z.shape[1]
    # A multiple of 16 keeps each candidate's score on the BLAS and numpy
    # summation paths of one full-width matrix (a single observation's
    # GEMV treats its last rows mod 4 apart, numpy sums one column pairwise).
    block = max(16, _BLOCK_BYTES // (8 * (3 * m + n_obs)) // 16 * 16)
    best = np.zeros(n_obs, dtype=np.intp)
    best_score = np.full(n_obs, np.inf)
    rows = np.arange(n_obs)
    points = c.points.astype(complex)
    # ||z - m_j||^2 = ||m_j||^2 - 2 z.m_j + ||z||^2; the ||z||^2 term is
    # constant per observation and dropped.  Scaling z by -2 is exact.
    z_neg2 = -2.0 * z.T
    for lo in range(0, n_cand, block):
        field = h_eq @ points[cand_idx[:, lo:lo + block]]
        field += b[:, None]
        mag = np.abs(field)
        del field
        scores = z_neg2 @ mag
        scores += np.sum(np.square(mag, out=mag), axis=0)
        arg = np.argmin(scores, axis=1)
        score = scores[rows, arg]
        better = score < best_score
        best[better] = arg[better] + lo
        best_score[better] = score[better]
    return cand_idx[:, best]


def detect_zf_batch(
    y: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Genie zero-forcing on complex observations y = H_eq s + b + n."""
    y = np.asarray(y, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s_hat = ls_estimate(h_eq, y - b[:, None]).real
    return slice_to_indices(s_hat, c)
