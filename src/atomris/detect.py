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
makes the sphere tight.  When the search trees of some observations
outgrow a node budget the size of one block, a second pruned search over
just those gives them the whole budget.  The full search decides what
that leaves, and every observation when fewer than K cells qualify or the
linear model is rank-deficient.

A campaign detects a batch of trials in one call.  The pruned search
keeps each trial's bound, QR and node budget apart (a trial spills only
against its own budget) and grows the trees of all trials' observations
at once, so its tree state is up to one budget per trial; the second
pass and the full search run trial by trial.

On the detect-heavy grid (K = 8, M = 16, 100 observations per call;
-27, -24, -18 and -15 dB, 32 trials, seeds 1 to 3) a call took 0.95 ms
at the median and 1.25 ms on average, against 17 ms for the full search
(interleaved in one process on a 2-vCPU VM).  The first pass spilled 95
of the 24 000 observations in 7 of the 240 calls; the second pass
decided 53 of them, and 4 calls still reached the full search.  On the
-27 and -24 dB points without an error target (192 calls) 20 calls
spilled 92 observations, the second pass decided 70, and 9 calls reached
the full search.

The full search takes its candidates in blocks of prefix x suffix
candidates, so its memory is bounded by one block rather than by Q^K.
Each field is a prefix base H_hi s_hi + b plus a suffix field H_lo s_lo,
scored by a GEMM that folds in the squared norm.  That sum rounds
differently from one H_eq s + b product, as does the pruned search's
rescoring: scores may differ in the last bits, and decisions only where
two candidates tie to within rounding.

All kernels are batched: columns of ``s``, ``y`` and ``z`` are symbol
vectors, and every kernel returns one column per observation.  Every
kernel also takes leading trial axes, one channel and LO per trial; each
trial's result is, bit for bit, that of a call on the trial alone.  No
kernel reads a random generator: ``front_end`` adds the noise draw it is
given.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError
from .modem import Constellation, slice_to_indices

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


def front_end(h_eq: np.ndarray, s: np.ndarray, b: np.ndarray, awgn: np.ndarray) -> np.ndarray:
    """Complex observations y = H_eq s + b + n of symbol vectors ``s``
    (..., K, n) under the noise draw ``awgn`` (..., M, n); the
    photodetectors report z = |y|.  ``h_eq`` (..., M, K) and ``b`` (..., M)
    carry the same leading trial axes, and each trial's rows are those of
    a call on the trial alone.
    """
    h_eq, s, b = np.asarray(h_eq), np.asarray(s), np.asarray(b)
    *lead, m, k = h_eq.shape
    if (s.shape[:-1] != (*lead, k) or b.shape != (*lead, m)
            or np.shape(awgn) != (*lead, m, s.shape[-1])):
        raise ValueError(f"s {s.shape}, b {b.shape} and noise {np.shape(awgn)} "
                         f"do not fit a {h_eq.shape} channel")
    y = np.matmul(h_eq, s, dtype=complex)
    y += b[..., None]
    y += awgn
    return y


def ls_estimate(h_eq: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pre-slicing least-squares estimate (H^H H)^-1 H^H rhs, solved from
    the normal equations after a condition check, and refused if not finite.

    ``h_eq`` (..., M, K) and ``rhs`` (..., M, n) may carry the same leading
    trial axes; the estimate is (..., K, n), each trial's the one a call on
    that trial alone returns.  A refusal is the first refused trial's, with
    its own condition number.

    The solve runs on each H scaled by the power of two 2^-e that brings
    its largest real or imaginary part into [1/2, 1), so its Gram matrix
    cannot underflow, and the estimate is scaled back by 2^-e.  Scaling by
    a power of two is exact, so in the normal range it changes no bit.
    """
    h_eq = np.ascontiguousarray(h_eq, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    *lead, m, k = h_eq.shape
    if k > m:
        raise ValueError(f"more users ({k}) than cells ({m}); least squares undefined")
    if rhs.shape[:-1] != (*lead, m):
        raise ValueError(f"rhs {rhs.shape} does not fit a {h_eq.shape} channel")
    trials = math.prod(lead)
    h_eq = h_eq.reshape(trials, m, k)
    rhs = rhs.reshape(trials, m, rhs.shape[-1])
    _, exp = np.frexp(np.abs(h_eq.view(float)).max(axis=(1, 2), initial=0.0))
    exp = -exp[:, None, None]
    h_eq = np.ldexp(h_eq.view(float), exp).view(complex)
    h_adj = h_eq.conj().transpose(0, 2, 1)
    gram = h_adj @ h_eq
    cond = np.linalg.cond(gram)
    # Trials before the first refused one are solved; a non-finite estimate
    # among them is the earlier refusal.
    refused = ~(cond <= _COND_LIMIT)  # nan too
    solved = int(np.argmax(refused)) if refused.any() else trials
    # A huge rhs can take H^H rhs or the estimate beyond the float range: refused next.
    with np.errstate(over="ignore", invalid="ignore"):
        s_hat = np.linalg.solve(gram[:solved], h_adj[:solved] @ rhs[:solved])
        s_hat = np.ldexp(s_hat.view(float), exp[:solved]).view(complex)
    if (lost := ~np.isfinite(s_hat).all(axis=(1, 2))).any():
        raise SingularMatrixError(
            f"H^H H gives a non-finite estimate (condition {cond[np.argmax(lost)]:.3e})")
    if solved < trials:
        raise SingularMatrixError(
            f"H^H H is numerically singular (condition number {cond[solved]:.3e})"
        )
    return s_hat.reshape(*lead, k, rhs.shape[-1])


def detect_proposed_batch(
    z: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Least-squares detection of a batch of magnitude observations.

    ``z`` has shape (..., M, n), with a channel (..., M, K) and LO
    (..., M) per trial; returns constellation indices (..., K, n).  The LO
    phase is re-attached to z, the complex LO subtracted, and the real
    part of the LS estimate sliced per user.
    """
    z = np.asarray(z, dtype=float)
    h_eq = np.asarray(h_eq, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rhs = z * np.exp(1j * np.angle(b))[..., None]
    rhs -= b[..., None]
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
    every observation it can, a second pruned search the ones the first
    spilled, and the full search the rest.  Shapes are those of
    ``detect_proposed_batch``; with leading trial axes the first pruned
    search takes all trials in one call, and the second pass and the full
    search run trial by trial.
    """
    z = np.asarray(z, dtype=float)
    h_eq = np.asarray(h_eq, dtype=complex)
    b = np.asarray(b, dtype=complex)
    *lead, m, k = h_eq.shape
    if z.shape[:-1] != (*lead, m) or b.shape != (*lead, m):
        raise ValueError(
            f"shape mismatch: z {z.shape}, b {b.shape}, channel {h_eq.shape}"
        )
    for name, arr in (("z", z), ("h_eq", h_eq), ("b", b)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    q, n_obs = c.order, z.shape[-1]
    if q**k > budget:
        raise BudgetExceededError(
            f"exhaustive search needs Q^K = {q}^{k} = {q**k} candidates "
            f"(budget {budget})"
        )
    best = np.full((*lead, n_obs), -1, dtype=np.intp)
    if q**k > _block_size(m, n_obs):
        best = _pruned_search(z, h_eq, b, c)
    trials = math.prod(lead)
    for row, z_t, h_t, b_t in zip(best.reshape(trials, n_obs), z.reshape(trials, m, n_obs),
                                  h_eq.reshape(trials, m, k), b.reshape(trials, m)):
        if 0 < (rest := row < 0).sum() < rest.size:  # spills get the whole node budget
            row[rest] = _pruned_search(z_t[:, rest], h_t, b_t, c)
        if (rest := row < 0).any():
            row[rest] = _full_search(z_t[:, rest], h_t, b_t, c)
    return np.stack(np.unravel_index(best, (q,) * k), axis=-2)


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
    rule out; -1 where an observation's tree outgrew its trial's
    ``_NODE_WORDS``, and across a trial when its bound gives no search:
    fewer than K usable cells or a rank-deficient G.  ``z`` (..., M, n),
    ``h_eq`` (..., M, K) and ``b`` (..., M) carry the same leading trial
    axes; the result is (..., n).

    A candidate with ||z' - G s|| > sqrt(T) + ||delta||, z' = z - |b| on
    the usable cells, scores worse than T, the exact score of the Babai
    point of the linear model.  With G = Q R the rest are the leaves of a
    K-level tree whose partial distances ||y - R s||^2, y = Q^T z', stay
    within that radius less the part of z' outside the span of G.  The
    tree grows breadth first, its root at the user of largest column
    norm; the leaves are rescored with the exact model, and the lowest
    score, then the lowest index, wins.

    Each trial has its own bound and QR, and its leaves are rescored by
    its own GEMM; the Babai points and the tree run for all observations
    of all trials at once, and a trial whose tree outgrows its budget
    spills its own observations only.  A trial therefore scores exactly
    the candidates a call on it alone scores, and decides as that call
    does, bit for bit; the tree state of a call is up to one budget per
    trial.
    """
    *lead, m, n_obs = z.shape
    k = h_eq.shape[-1]
    trials = math.prod(lead)
    z, h_eq, b = z.reshape(trials, m, n_obs), h_eq.reshape(trials, m, k), b.reshape(trials, m)
    points, q = c.points, c.order
    best = np.full((trials, n_obs), -1, dtype=np.intp)
    p_max = np.abs(points).max()
    searched, slack, order, r, y, outside = [], [], [], [], [], []
    for t in range(trials):
        cells, model, width = _magnitude_bound(h_eq[t], b[t], p_max)
        if model.shape[0] < k:
            continue
        col_order = np.argsort(np.linalg.norm(model, axis=0), kind="stable")
        basis, r_t = np.linalg.qr(model[:, col_order])
        diag = np.abs(np.diag(r_t))
        if not diag.min() > 1e-12 * diag.max():  # also refuses nan
            continue
        z_lin = z[t, cells] - np.abs(b[t, cells])[:, None]
        y_t = basis.T @ z_lin
        searched.append(t)
        slack.append(np.linalg.norm(width))
        order.append(col_order)
        r.append(r_t)
        y.append(y_t)
        outside.append(np.sum(np.square(z_lin - basis @ y_t), axis=0))
    if not searched:
        return best.reshape(*lead, n_obs)
    n_sets = len(searched)
    if n_sets < trials:
        z, h_eq, b = z[searched], h_eq[searched], b[searched]
    order, r, y = np.array(order), np.array(r), np.array(y)

    # Babai point: slice the levels from the root down, cancelling each.
    babai = np.empty((n_sets, k, n_obs), dtype=np.intp)
    resid = y.copy()
    for lvl in range(k - 1, -1, -1):
        babai[:, lvl] = slice_to_indices(resid[:, lvl] / r[:, lvl, lvl, None], c)
        resid[:, :lvl] -= r[:, :lvl, lvl, None] * points[babai[:, lvl, None]]
    sym = np.empty_like(babai)
    sym[np.arange(n_sets)[:, None], order] = babai
    dev = np.abs(h_eq @ points[sym] + b[:, :, None])
    np.square(np.subtract(z, dev, out=dev), out=dev)
    # A margin far above rounding keeps every candidate the bound admits.
    radius = (np.sqrt(np.sum(dev, axis=1)) + np.array(slack)[:, None]
              + 1e-8 * np.linalg.norm(z, axis=1))
    bound = (np.square(radius) - np.array(outside)).ravel()

    owner = np.arange(n_sets * n_obs)  # trial-major observation numbers
    resid = np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(-1, k)  # one row per node
    dist = np.zeros(owner.size)
    path = np.zeros(owner.size, dtype=np.intp)  # digits from the root, base Q
    spilled = np.zeros((n_sets, n_obs), dtype=bool)
    most = _NODE_WORDS // (k + 6)
    for lvl in range(k - 1, -1, -1):
        children = q * np.bincount(owner, minlength=spilled.size).reshape(n_sets, n_obs)
        over = children.sum(axis=1) - most
        if (full := np.flatnonzero(over > 0)).size:
            for s in full:  # spill the trial's observations with the most children
                heavy = np.argsort(-children[s], kind="stable")
                spilled[s, heavy[:np.searchsorted(np.cumsum(children[s, heavy]), over[s]) + 1]] = True
            keep = ~spilled.ravel()[owner]
            owner, resid, dist, path = owner[keep], resid[keep], dist[keep], path[keep]
        trial = owner // n_obs
        reach = resid[:, lvl, None] - (r[:, lvl, lvl, None] * points)[trial]
        reach *= reach
        reach += dist[:, None]
        parent, digit = np.nonzero(reach <= bound[owner, None])
        owner, dist = owner[parent], reach[parent, digit]
        path = path[parent] * q + digit
        shift = r[trial[parent], :lvl, lvl]
        shift *= points[digit, None]
        resid = resid[parent, :lvl]
        resid -= shift

    sym = np.empty((k, owner.size), dtype=np.intp)
    sym[order[owner // n_obs, ::-1].T, np.arange(owner.size)] = np.unravel_index(path, (q,) * k)
    index = np.ravel_multi_index(tuple(sym), (q,) * k)
    score = np.empty(owner.size)
    ends = np.searchsorted(owner, n_obs * np.arange(n_sets + 1))
    for s, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        mag = np.abs(h_eq[s] @ points[sym[:, lo:hi]] + b[s, :, None])
        score[lo:hi] = (np.sum(mag * mag, axis=0)
                        - 2.0 * np.sum(z[s][:, owner[lo:hi] - s * n_obs] * mag, axis=0))
    pick = np.lexsort((index, score, owner))
    first = np.ones(pick.size, dtype=bool)
    first[1:] = owner[pick[1:]] != owner[pick[:-1]]
    found = np.full(n_sets * n_obs, -1, dtype=np.intp)
    found[owner[pick[first]]] = index[pick[first]]
    best[searched] = found.reshape(n_sets, n_obs)
    return best.reshape(*lead, n_obs)


def detect_zf_batch(
    y: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Genie zero-forcing on complex observations y = H_eq s + b + n, with
    the leading trial axes of ``detect_proposed_batch``."""
    y = np.asarray(y, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s_hat = ls_estimate(h_eq, y - b[..., None]).real
    return slice_to_indices(s_hat, c)
