"""Magnitude-only front end and the three symbol detectors.

The photodetectors report only z = |H_eq s + b + n|.  With the RIS phases
aligned to the LO and a strong LO, z is approximately |b| + H_opt s plus
residual noise, so re-attaching the LO phase and subtracting b yields a
linear system the least-squares detector inverts directly.  The genie ZF
detector consumes the complex observation (known phase) and lower-bounds
the proposed (linear) detector only: it is zero forcing, and on the almost
lossless magnitude readout the exhaustive maximum-likelihood search beats
zero forcing even with known phase.

The exhaustive detector is exact maximum likelihood on the magnitude
model: it returns the candidate of least ||z - |H_eq s + b|||^2, ties
going to the lexicographically first.  When all Q^K candidates fit one
block of ``_BLOCK_BYTES`` it scores them all (the full search).
Otherwise a pruned search scores only the candidates a bound cannot rule
out.  On every cell where |b| exceeds the largest in-phase excursion of
h s, |b + h s| lies within delta of its linearization
(``_magnitude_bound``), so a candidate whose linear-model residual
exceeds the root of a known exact score plus ||delta|| cannot win.  The
bound holds for every candidate and every noise draw, so the search is
exact, not approximate; aligning the RIS drives delta toward zero, which
makes the sphere tight.  The full search decides what the bound cannot:
every observation when fewer than K cells qualify or the linear model is
rank-deficient, and the observations whose search trees outgrow a node
budget the size of one block.

On the detect-heavy grid (K = 8, M = 16, 100 observations per call;
-27, -24, -18 and -15 dB, 32 trials, seeds 1 to 3) a call took 0.95 ms
at the median and 1.25 ms on average, against 17 ms for the full search
(interleaved in one process on a 2-vCPU VM); 7 of its 240 calls handed
95 of their 24 000 observations to the full search.

The full search takes its candidates in blocks of prefix x suffix
candidates, so its memory is bounded by one block rather than by Q^K.
Each field is a prefix base H_hi s_hi + b plus a suffix field H_lo s_lo,
scored by a GEMM that folds in the squared norm.  That sum rounds
differently from one H_eq s + b product, as does the pruned search's
rescoring: scores may differ in the last bits, and decisions only where
two candidates tie to within rounding.

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

# The full search scores its candidates in blocks; this byte budget bounds
# one block's complex fields, magnitudes, squared magnitudes and
# observation-major scores, 8 (4M + 1 + n) bytes per candidate for n
# observations.  Calls at M = 16 and n = 100 (K = 6 and 8 at Q = 4, K = 10
# at Q = 2) ran equally fast from 384 to 640 KiB.
_BLOCK_BYTES = 512 << 10

# The pruned search holds at most this many 8-byte words of tree state, so
# it stays within the full search's block budget; an expansion to c
# children takes about c (K + 6) words.
_NODE_WORDS = _BLOCK_BYTES // 8

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
    the normal equations after a condition check, and refused if not finite.

    The solve runs on H scaled by the power of two 2^-e that brings its
    largest real or imaginary part into [1/2, 1), so its Gram matrix
    cannot underflow, and the estimate is scaled back by 2^-e.  Scaling by
    a power of two is exact, so in the normal range it changes no bit.
    """
    h_eq = np.ascontiguousarray(h_eq, dtype=complex)
    m, k = h_eq.shape
    if k > m:
        raise ValueError(f"more users ({k}) than cells ({m}); least squares undefined")
    _, exp = math.frexp(np.abs(h_eq.view(float)).max(initial=0.0))
    h_eq = np.ldexp(h_eq.view(float), -exp).view(complex)
    gram = h_eq.conj().T @ h_eq
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            f"H^H H is numerically singular (condition number {cond:.3e})"
        )
    # A huge rhs can take H^H rhs or the estimate beyond the float range: refused next.
    with np.errstate(over="ignore", invalid="ignore"):
        s_hat = np.linalg.solve(gram, h_eq.conj().T @ np.asarray(rhs, dtype=complex))
        s_hat = np.ldexp(s_hat.view(float), -exp).view(complex)
    if not np.isfinite(s_hat).all():
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
    """Maximum-likelihood detection of a batch of magnitude observations.

    Minimizes ||z - |H_eq s + b|||_2^2 over all Q^K candidates; ties break
    toward the lexicographically smallest candidate.  Refuses Q^K beyond
    ``budget`` with a cost estimate.  When Q^K fits one block the full
    search scores every candidate; otherwise the pruned search decides
    every observation it can and the full search the rest.
    """
    z = np.asarray(z, dtype=float)
    h_eq = np.asarray(h_eq, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m, k = h_eq.shape
    if z.ndim != 2 or z.shape[0] != m or b.shape != (m,):
        raise ValueError(
            f"shape mismatch: z {z.shape}, b {b.shape}, channel ({m}, {k})"
        )
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    q = c.order
    if q**k > budget:
        raise BudgetExceededError(
            f"exhaustive search needs Q^K = {q}^{k} = {q**k} candidates "
            f"(budget {budget})"
        )
    best = np.full(z.shape[1], -1, dtype=np.intp)
    if q**k > _block_size(m, z.shape[1]):
        best = _pruned_search(z, h_eq, b, c)
    if (rest := best < 0).any():
        best[rest] = _full_search(z[:, rest], h_eq, b, c)
    return np.array(np.unravel_index(best, (q,) * k))


def _block_size(m: int, n_obs: int) -> int:
    """Candidates per block of the full search: as many as fit
    ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (8 * (4 * m + 1 + n_obs)))


def _full_search(z: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation) -> np.ndarray:
    """Lexicographic index of each observation's best candidate among all
    Q^K.

    Candidate j is the prefix j // Q^k_lo of the leading users and the
    suffix j % Q^k_lo of the trailing k_lo users, where Q^k_lo is the
    largest power that fits one block.  The suffix fields H_lo s_lo and
    the prefix bases H_hi s_hi + b are computed once; a block is a run of
    prefixes times every suffix, and its fields are one broadcast sum of
    the two tables.  Its (n, block) scores are
    [-2 z^T, 1] [|field|; sum |field|^2], with the ||z||^2 term (constant
    per observation) dropped, one GEMM per block.  A block's first
    minimum replaces the running best only when strictly smaller, so ties
    keep the lexicographic order.
    """
    m, k = h_eq.shape
    q, n_obs = c.order, z.shape[1]
    block = _block_size(m, n_obs)
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
    return best


def _magnitude_bound(
    h_eq: np.ndarray, b: np.ndarray, p_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells where |b + h s| is bounded by its linearization for every
    real s with entries in [-p_max, p_max], as a mask; on those cells,
    G = Re(conj(u) h) with u = b / |b|, and the width delta, so that
    |b| + G s <= |b + h s| <= |b| + G s + delta.

    With g = conj(u) h and g s = a + j c, |b + h s| = sqrt((|b| + a)^2 + c^2).
    |a| <= A = p_max sum |Re g| and |c| <= C = p_max sum |Im g|, so on a
    cell with |b| > A the root lies between |b| + a and
    |b| + a + C^2 / (2 (|b| - A)).
    """
    mag_b = np.abs(b)
    g = h_eq * np.exp(-1j * np.angle(b))[:, None]
    spread = p_max * np.abs(g.real).sum(axis=1)
    cells = mag_b > spread
    leak = p_max * np.abs(g.imag[cells]).sum(axis=1)
    return cells, g.real[cells], leak**2 / (2.0 * (mag_b[cells] - spread[cells]))


def _pruned_search(
    z: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Lexicographic index of each observation's best candidate, found by
    scoring only the candidates the bound of ``_magnitude_bound`` cannot
    rule out; -1 where an observation's tree outgrew ``_NODE_WORDS``, and
    everywhere when the bound gives no search: fewer than K usable cells
    or a rank-deficient G.

    A candidate with ||z' - G s|| > sqrt(T) + ||delta||, z' = z - |b| on
    the usable cells, scores worse than T, the exact score of the Babai
    point of the linear model.  With G = Q R the rest are the leaves of a
    K-level tree whose partial distances ||y - R s||^2, y = Q^T z', stay
    within that radius less the part of z' outside the span of G.  The
    tree grows breadth first for all observations at once, its root at
    the user of largest column norm; the leaves are rescored with the
    exact model, and the lowest score, then the lowest index, wins.
    """
    points, q, n_obs = c.points, c.order, z.shape[1]
    k = h_eq.shape[1]
    cells, model, width = _magnitude_bound(h_eq, b, np.abs(points).max())
    best = np.full(n_obs, -1, dtype=np.intp)
    if model.shape[0] < k:
        return best
    slack = np.linalg.norm(width)
    order = np.argsort(np.linalg.norm(model, axis=0), kind="stable")
    basis, r = np.linalg.qr(model[:, order])
    diag = np.abs(np.diag(r))
    if not diag.min() > 1e-12 * diag.max():  # also refuses nan
        return best
    z_lin = z[cells] - np.abs(b[cells])[:, None]
    y = basis.T @ z_lin
    outside = np.sum(np.square(z_lin - basis @ y), axis=0)

    # Babai point: slice the levels from the root down, cancelling each.
    babai = np.empty((k, n_obs), dtype=np.intp)
    resid = y.copy()
    for lvl in range(k - 1, -1, -1):
        babai[lvl] = slice_to_indices(resid[lvl] / r[lvl, lvl], c)
        resid[:lvl] -= np.outer(r[:lvl, lvl], points[babai[lvl]])
    sym = np.empty_like(babai)
    sym[order] = babai
    field = h_eq @ points[sym] + b[:, None]
    # A margin far above rounding keeps every candidate the bound admits.
    radius = (np.sqrt(np.sum(np.square(z - np.abs(field)), axis=0)) + slack
              + 1e-8 * np.linalg.norm(z, axis=0))
    bound = np.square(radius) - outside

    owner = np.arange(n_obs)
    resid = np.ascontiguousarray(y.T)  # one row per node
    dist = np.zeros(n_obs)
    path = np.zeros(n_obs, dtype=np.intp)  # digits from the root, base Q
    spilled = np.zeros(n_obs, dtype=bool)
    most = _NODE_WORDS // (k + 6)
    for lvl in range(k - 1, -1, -1):
        children = q * np.bincount(owner, minlength=n_obs)
        over = children.sum() - most
        if over > 0:  # spill the observations with the most children
            heavy = np.argsort(-children, kind="stable")
            spilled[heavy[:np.searchsorted(np.cumsum(children[heavy]), over) + 1]] = True
            keep = ~spilled[owner]
            owner, resid, dist, path = owner[keep], resid[keep], dist[keep], path[keep]
        step = resid[:, lvl, None] - r[lvl, lvl] * points
        reach = dist[:, None] + step * step
        parent, digit = np.nonzero(reach <= bound[owner, None])
        owner, dist = owner[parent], reach[parent, digit]
        path = path[parent] * q + digit
        resid = resid[parent, :lvl] - np.outer(points[digit], r[:lvl, lvl])

    sym = np.empty((k, owner.size), dtype=np.intp)
    sym[order[::-1]] = np.unravel_index(path, (q,) * k)
    mag = np.abs(h_eq @ points[sym] + b[:, None])
    score = np.sum(mag * mag, axis=0) - 2.0 * np.sum(z[:, owner] * mag, axis=0)
    index = np.ravel_multi_index(tuple(sym), (q,) * k)
    pick = np.lexsort((index, score, owner))
    first = np.ones(pick.size, dtype=bool)
    first[1:] = owner[pick[1:]] != owner[pick[:-1]]
    best[owner[pick[first]]] = index[pick[first]]
    return best


def detect_zf_batch(
    y: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Genie zero-forcing on complex observations y = H_eq s + b + n."""
    y = np.asarray(y, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s_hat = ls_estimate(h_eq, y - b[:, None]).real
    return slice_to_indices(s_hat, c)
