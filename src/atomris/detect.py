"""Magnitude-only front end and the three symbol detectors.

The photodetectors report only z = |H_eq s + b + n|.  With the RIS phases
aligned to the LO and a strong LO, z is approximately |b| + H_opt s plus
residual noise, so re-attaching the LO phase and subtracting b yields a
linear system the least-squares detector inverts directly.  The genie ZF
detector consumes the complex observation (known phase) and lower-bounds
the proposed (linear) detector only: it is zero forcing, and on the almost
lossless magnitude readout the exhaustive maximum-likelihood search beats
zero forcing even with known phase.

The exhaustive detector searches all Q^K symbol vectors against the exact
magnitude model in blocks of prefix x suffix candidates, so its memory is
bounded by one block rather than by Q^K.  Each field is a prefix base
H_hi s_hi + b plus a suffix field H_lo s_lo, scored by one GEMM that folds
in the squared norm.  That sum rounds differently from one H_eq s + b
product: scores may differ from it in the last bits, and decisions only
where two candidates tie to within rounding.

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
# bounds one block's complex fields, magnitudes, squared magnitudes and
# observation-major scores, 8 (4M + 1 + n) bytes per candidate for n
# observations.  Calls at M = 16 and n = 100 (K = 6 and 8 at Q = 4, K = 10
# at Q = 2) ran equally fast from 384 to 640 KiB.  From 768 KiB the scoring
# GEMM of such a call reaches 2^19 multiply-adds, the size from which
# OpenBLAS splits a GEMM over two threads, and a K = 8 call took twice as
# long on two cores.
_BLOCK_BYTES = 512 << 10

# ``ls_estimate`` refuses a Gram matrix H^H H of larger condition number.
_COND_LIMIT = 1e12


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


def ls_estimate(h_eq: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pre-slicing least-squares estimate (H^H H)^-1 H^H rhs, solved from
    the normal equations after a condition check, and refused if not finite."""
    h_eq = np.asarray(h_eq, dtype=complex)
    m, k = h_eq.shape
    if k > m:
        raise ValueError(f"more users ({k}) than cells ({m}); least squares undefined")
    gram = h_eq.conj().T @ h_eq
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            f"H^H H is numerically singular (condition number {cond:.3e})"
        )
    s_hat = np.linalg.solve(gram, h_eq.conj().T @ np.asarray(rhs, dtype=complex))
    if not np.isfinite(s_hat).all():  # e.g. a Gram matrix that underflows
        raise SingularMatrixError(f"H^H H gives a non-finite estimate (condition {cond:.3e})")
    return s_hat


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
    lexicographic symbol order (first user most significant); K = 0 gives
    the single empty vector, a (0, 1) matrix."""
    return np.indices((c.order,) * num_users).reshape(num_users, c.order**num_users)


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

    Candidate j is the prefix j // Q^k_lo of the leading users and the
    suffix j % Q^k_lo of the trailing k_lo users, where Q^k_lo is the
    largest power that fits one block of ``_BLOCK_BYTES``.  The suffix
    fields H_lo s_lo and the prefix bases H_hi s_hi + b are computed once;
    a block is a run of prefixes times every suffix, and its fields are one
    broadcast sum of the two tables.  Its (n, block) scores are one GEMM,
    [-2 z^T, 1] [|field|; sum |field|^2], with the ||z||^2 term (constant
    per observation) dropped.  A block's first minimum replaces the running
    best only when strictly smaller, so ties keep the lexicographic order.
    The decisions are the base-Q digits of the winning index.
    """
    z = np.asarray(z, dtype=float)
    h_eq = np.asarray(h_eq, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m, k = h_eq.shape
    if z.ndim != 2 or z.shape[0] != m or b.shape != (m,):
        raise ValueError(
            f"shape mismatch: z {z.shape}, b {b.shape}, channel ({m}, {k})"
        )
    q, n_obs = c.order, z.shape[1]
    if q**k > budget:
        raise BudgetExceededError(
            f"exhaustive search needs Q^K = {q}^{k} = {q**k} candidates "
            f"(budget {budget})"
        )
    block = _BLOCK_BYTES // (8 * (4 * m + 1 + n_obs))
    k_lo = 0
    while k_lo < k and q ** (k_lo + 1) <= block:
        k_lo += 1
    k_hi = k - k_lo
    suffix = h_eq[:, k_hi:] @ c.points[enumerate_symbol_vectors(c, k_lo)]
    prefix = h_eq[:, :k_hi] @ c.points[enumerate_symbol_vectors(c, k_hi)] + b[:, None]
    n_suffix, n_prefix = q**k_lo, q**k_hi
    step = min(max(1, block // n_suffix), n_prefix)  # prefixes per block
    # Scaling z by -2 is exact.
    weights = np.concatenate((-2.0 * z.T, np.ones((n_obs, 1))), axis=1)
    rows = np.arange(n_obs)
    best = np.zeros(n_obs, dtype=np.intp)
    best_score = np.full(n_obs, np.inf)
    for first in range(0, n_prefix, step):
        field = (prefix[:, first:first + step, None] + suffix[:, None, :]).reshape(m, -1)
        mag = np.empty((m + 1, field.shape[1]))
        np.abs(field, out=mag[:m])
        del field
        np.sum(np.square(mag[:m]), axis=0, out=mag[m])
        scores = weights @ mag
        arg = np.argmin(scores, axis=1)
        score = scores[rows, arg]
        better = score < best_score
        best[better] = arg[better] + first * n_suffix
        best_score[better] = score[better]
    return np.array(np.unravel_index(best, (q,) * k))


def detect_zf_batch(
    y: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Genie zero-forcing on complex observations y = H_eq s + b + n."""
    y = np.asarray(y, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s_hat = ls_estimate(h_eq, y - b[:, None]).real
    return slice_to_indices(s_hat, c)
