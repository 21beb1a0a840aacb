"""Magnitude-only front end and the three symbol detectors.

The photodetectors report only z = |H_eq s + b + n|.  With the RIS phases
aligned to the LO and a strong LO, the observation's phase is close to
the LO's, so the proposed detector is the genie's zero forcing with the
LO's phase in place of the observation's: both slice the least-squares
estimate W (y - b), W = (H^H H)^-1 H^H, the genie on the complex
observation y and the proposed detector on y = z e^{j angle(b)}.  As
z e^{j angle(b)} - b = e^{j angle(b)} (z - |b|), the proposed detector is
a fixed real map of the magnitudes, Re(W diag(e^{j angle(b)})) (z - |b|).
The genie lower-bounds the
proposed detector only: it is zero forcing, and on the almost lossless
magnitude readout the exhaustive maximum-likelihood search beats zero
forcing even with known phase.

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

There are two receivers, each built once per channel: a function of the
channel, the LO and the constellation (``_zero_forcing``, ``_exhaustive``)
that does the work that reads no observation and returns the function of
the observation.  The genie calls ``_zero_forcing`` on y and the proposed
detector on z, so the two share one receiver; each ``detect_*_batch`` is
that composition on one call.  A campaign builds each receiver once per
batch of trials and calls it at every Eb/N0 point, where only the noise
differs.  The least-squares receiver forms the Gram matrix, its
condition number and the pseudo-inverse W once, so a call is one GEMM
per trial: W (y - b) on a complex y, or, through the real map, on the
real z - |b|; the full search,
when Q^K fits one block, forms every trial's candidate table once, so a
call is one scoring GEMM per trial; the pruned search forms each trial's
bound and QR once.  The pruned search grows the trees of all trials'
observations at once, and a trial spills only against its own budget,
so its tree state is up to one budget per trial; the second pass and the
full search over what remains run trial by trial, on each call.

The full search takes its candidates in blocks of prefix x suffix
candidates, so its memory is bounded by one block rather than by Q^K
(``_candidate_blocks``).  Each field is a prefix base H_hi s_hi + b plus
a suffix field H_lo s_lo, scored by a GEMM that folds in the squared
norm.  That sum rounds differently from one H_eq s + b product, as does
the pruned search's rescoring: scores may differ in the last bits, and
decisions only where two candidates tie to within rounding.

All kernels are batched: columns of ``s``, ``y`` and ``z`` are symbol
vectors, and every kernel returns one column per observation.  Every
kernel also takes leading trial axes, one channel and LO per trial; each
trial's result is, bit for bit, that of a call on the trial alone.  No
kernel reads a random generator: ``front_end`` adds the noise draw it is
given.  Every detector first passes its observation, channel and LO
through ``_detector_inputs``, so each refuses a non-finite entry, or
leading axes or an M that disagree, with a ``ValueError`` that names the
input.  The receivers check nothing themselves: a campaign checks its
channel and LO once per batch and each observation once per point.
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
    a call on the trial alone.  It is ``_front_end(h_eq, s, b)(awgn)``.
    """
    h_eq, s, b = np.asarray(h_eq), np.asarray(s), np.asarray(b)
    *lead, m, k = h_eq.shape
    if (s.shape[:-1] != (*lead, k) or b.shape != (*lead, m)
            or np.shape(awgn) != (*lead, m, s.shape[-1])):
        raise ValueError(f"s {s.shape}, b {b.shape} and noise {np.shape(awgn)} "
                         f"do not fit a {h_eq.shape} channel")
    return _front_end(h_eq, s, b)(awgn)


def _front_end(h_eq: np.ndarray, s: np.ndarray, b: np.ndarray):
    """The front end with its noiseless part H_eq s + b formed once: the
    returned function maps a noise draw n to y = (H_eq s + b) + n, written
    into ``out`` when one is given (``out`` may be n itself)."""
    clean = np.matmul(h_eq, s, dtype=complex)
    clean += b[..., None]
    return lambda awgn, out=None: np.add(clean, awgn, out=out)


def ls_estimate(h_eq: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pre-slicing least-squares estimate W rhs, W = (H^H H)^-1 H^H solved
    from the normal equations after a condition check, and refused if not
    finite.

    ``h_eq`` (..., M, K) and ``rhs`` (..., M, n) may carry the same leading
    trial axes; the estimate is (..., K, n), each trial's the one a call on
    that trial alone returns.  A refusal is the first refused trial's, with
    its own condition number.  A non-finite ``h_eq`` is refused by name
    before any Gram matrix is formed.

    W is formed from each H scaled by the power of two 2^-e that brings
    its largest real or imaginary part into [1/2, 1), so its Gram matrix
    cannot underflow, and the estimate is scaled back by 2^-e.  Scaling by
    a power of two is exact, so in the normal range it changes no bit, and
    scaling H and rhs by one power of two leaves the estimate as it is.
    It is ``_least_squares(h_eq)(rhs)``.
    """
    return _least_squares(h_eq)(rhs)


def _least_squares(h_eq: np.ndarray):
    """``ls_estimate`` built once per channel: the checks of ``h_eq``, its
    scaling, the Gram matrix, its condition number and, for each trial
    before the first refused one, the pseudo-inverse W = (H^H H)^-1 H^H of
    the scaled H.  The returned function maps a right-hand side (..., M, n)
    to the estimate, or to the refusal, that ``ls_estimate`` gives: one
    batched GEMM W rhs, scaled back by 2^-e.

    Given ``phase`` (..., M), it maps a real right-hand side x to the real
    estimate Re(W diag(phase)) x instead, with the same scaling and
    refusals; the real map costs K M products, against its GEMM's K M n.
    """
    h_eq = np.ascontiguousarray(h_eq, dtype=complex)
    if not np.isfinite(h_eq).all():
        raise ValueError("h_eq must be finite")
    shape = h_eq.shape
    *lead, m, k = shape
    if k > m:
        raise ValueError(f"more users ({k}) than cells ({m}); least squares undefined")
    trials = math.prod(lead)
    h_eq = h_eq.reshape(trials, m, k)
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
    pinv = np.linalg.solve(gram[:solved], h_adj[:solved])
    exp = exp[:solved]

    def solve(rhs: np.ndarray, phase: np.ndarray | None = None) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=complex if phase is None else float)
        if rhs.shape[:-1] != (*lead, m):
            raise ValueError(f"rhs {rhs.shape} does not fit a {shape} channel")
        n = rhs.shape[-1]
        w = pinv if phase is None else np.ascontiguousarray(
            (pinv * np.reshape(phase, (trials, 1, m))[:solved]).real)
        # A huge rhs can take the estimate beyond the float range: refused next.
        with np.errstate(over="ignore", invalid="ignore"):
            s_hat = w @ rhs.reshape(trials, m, n)[:solved]
            s_hat = np.ldexp(s_hat.view(float), exp).view(s_hat.dtype)
        if (lost := ~np.isfinite(s_hat).all(axis=(1, 2))).any():
            raise SingularMatrixError(
                f"H^H H gives a non-finite estimate (condition {cond[np.argmax(lost)]:.3e})")
        if solved < trials:
            raise SingularMatrixError(
                f"H^H H is numerically singular (condition number {cond[solved]:.3e})"
            )
        return s_hat.reshape(*lead, k, n)

    return solve


def _require_finite(**arrays: np.ndarray) -> None:
    """Refuse the first of ``arrays`` with a non-finite entry, by its name."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")


def _detector_inputs(obs, name: str, dtype: type, h_eq, b) -> tuple[np.ndarray, ...]:
    """The input contract of every detector: the observation ``obs``
    (..., M, n), called ``name``, as ``dtype``, and the channel (..., M, K)
    and LO (..., M) as complex.  Leading trial axes or an M that disagree
    are refused with all three shapes, and a non-finite entry naming its
    array, before any detector reads them."""
    obs, h_eq, b = np.asarray(obs, dtype), np.asarray(h_eq, complex), np.asarray(b, complex)
    if not obs.shape[:-1] == b.shape == h_eq.shape[:-1]:
        raise ValueError(f"shape mismatch: {name} {obs.shape}, b {b.shape}, channel {h_eq.shape}")
    _require_finite(**{name: obs}, h_eq=h_eq, b=b)
    return obs, h_eq, b


def _zero_forcing(h_eq: np.ndarray, b: np.ndarray, c: Constellation):
    """The least-squares receiver, built once per channel: the returned
    function slices, per user, the real part of the LS estimate from
    y - b.  The genie reads it on a complex y, through W; the proposed
    detector on real magnitudes z, as if y were z e^{j angle(b)}:
    W (z e^{j angle(b)} - b) = W diag(e^{j angle(b)}) (z - |b|), read
    through the real map Re(W diag(e^{j angle(b)}))."""
    solve = _least_squares(h_eq)
    phase, mag_b = np.exp(1j * np.angle(b)), np.abs(b)[..., None]

    def receive(obs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(obs):
            return slice_to_indices(solve(obs - b[..., None]).real, c)
        return slice_to_indices(solve(obs - mag_b, phase), c)

    return receive


def detect_proposed_batch(
    z: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation
) -> np.ndarray:
    """Least-squares detection of a batch of magnitude observations.

    ``z`` has shape (..., M, n), with a channel (..., M, K) and LO
    (..., M) per trial; returns constellation indices (..., K, n).  This
    is ``detect_zf_batch`` with the LO's phase in place of the
    observation's: the genie on y = z e^{j angle(b)}, read through a real
    map of z.
    """
    z, h_eq, b = _detector_inputs(z, "z", float, h_eq, b)
    return _zero_forcing(h_eq, b, c)(z)


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
    search over what it leaves run trial by trial.
    """
    z, h_eq, b = _detector_inputs(z, "z", float, h_eq, b)
    return _exhaustive(h_eq, b, c, budget, z.shape[-1])(z)


def _exhaustive(h_eq: np.ndarray, b: np.ndarray, c: Constellation, budget: int, n_obs: int):
    """The exhaustive receiver for observations of ``n_obs`` columns, built
    once per channel.  The full search, when Q^K fits one block, takes its
    candidate table from here; otherwise the pruned search takes its bound
    and QR.  The second pruned pass and the full search over what the
    first leaves run on each call, trial by trial."""
    *lead, m, k = h_eq.shape
    q = c.order
    if q**k > budget:
        raise BudgetExceededError(
            f"exhaustive search needs Q^K = {q}^{k} = {q**k} candidates "
            f"(budget {budget})"
        )

    def decisions(best: np.ndarray) -> np.ndarray:
        return np.stack(np.unravel_index(best, (q,) * k), axis=-2)

    if q**k <= _block_size(m, n_obs):
        ((_, table),) = _candidate_blocks(h_eq, b, c, n_obs)
        return lambda z: decisions(_full_search(z, h_eq, b, c, table))
    tree = _search_tree(h_eq, b, c)
    trials = math.prod(lead)

    def detect(z: np.ndarray) -> np.ndarray:
        best = _pruned_search(z, h_eq, b, c, tree)
        for row, z_t, h_t, b_t in zip(best.reshape(trials, n_obs), z.reshape(trials, m, n_obs),
                                      h_eq.reshape(trials, m, k), b.reshape(trials, m)):
            if 0 < (rest := row < 0).sum() < rest.size:  # spills get the whole node budget
                row[rest] = _pruned_search(z_t[:, rest], h_t, b_t, c)
            if (rest := row < 0).any():
                row[rest] = _full_search(z_t[:, rest], h_t, b_t, c)
        return decisions(best)

    return detect


def _block_size(m: int, n_obs: int) -> int:
    """Candidates per block of the full search: as many as fit
    ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (8 * (4 * m + 1 + n_obs)))


def _candidate_blocks(h_eq: np.ndarray, b: np.ndarray, c: Constellation, n_obs: int):
    """The full search's candidates for observations of ``n_obs`` columns,
    a block at a time: each block's first lexicographic index and its
    table [|field|; sum |field|^2], (..., M + 1, block) for a channel
    (..., M, K) and LO (..., M).

    Candidate j is the prefix j // Q^k_lo of the leading users and the
    suffix j % Q^k_lo of the trailing k_lo users, where Q^k_lo is the
    largest power that fits one block.  The suffix fields H_lo s_lo and
    the prefix bases H_hi s_hi + b are computed once; a block is a run of
    prefixes times every suffix, and its fields are one broadcast sum of
    the two tables.
    """
    *lead, m, k = h_eq.shape
    q = c.order
    block = _block_size(m, n_obs)
    k_lo = 0
    while k_lo < k and q ** (k_lo + 1) <= block:
        k_lo += 1
    k_hi = k - k_lo
    suffix = h_eq[..., k_hi:] @ c.points[enumerate_symbol_vectors(c, k_lo)]
    prefix = h_eq[..., :k_hi] @ c.points[enumerate_symbol_vectors(c, k_hi)] + b[..., None]
    n_suffix, n_prefix = q**k_lo, q**k_hi
    step = min(max(1, block // n_suffix), n_prefix)  # prefixes per block
    for first in range(0, n_prefix, step):
        field = (prefix[..., first:first + step, None]
                 + suffix[..., None, :]).reshape(*lead, m, -1)
        mag = np.empty((*lead, m + 1, field.shape[-1]))
        np.abs(field, out=mag[..., :m, :])
        del field
        np.sum(np.square(mag[..., :m, :]), axis=-2, out=mag[..., m, :])
        yield first * n_suffix, mag


def _full_search(
    z: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation, table=None
) -> np.ndarray:
    """Lexicographic index of each observation's best candidate among all
    Q^K.  ``z`` (..., M, n), ``h_eq`` (..., M, K) and ``b`` (..., M) carry
    the same leading trial axes; the result is (..., n).

    The candidates come from ``_candidate_blocks``, or, when all Q^K fit
    one block, from ``table``, that block's table built once per channel.
    A block's (n, block) scores are [-2 z^T, 1] [|field|; sum |field|^2],
    with the ||z||^2 term (constant per observation) dropped, one GEMM per
    block and trial.  A block's first minimum replaces the running best
    only when strictly smaller, so ties keep the lexicographic order.
    """
    *lead, m, n_obs = z.shape
    # Scaling z by -2 is exact.
    weights = np.concatenate((-2.0 * np.swapaxes(z, -1, -2), np.ones((*lead, n_obs, 1))),
                             axis=-1)
    best = np.zeros((*lead, n_obs), dtype=np.intp)
    best_score = np.full((*lead, n_obs), np.inf)
    for first, mag in _candidate_blocks(h_eq, b, c, n_obs) if table is None else [(0, table)]:
        scores = weights @ mag
        arg = np.argmin(scores, axis=-1)
        score = np.take_along_axis(scores, arg[..., None], axis=-1)[..., 0]
        better = score < best_score
        best[better] = arg[better] + first
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


def _search_tree(h_eq: np.ndarray, b: np.ndarray, c: Constellation) -> tuple:
    """The pruned search's channel half for a channel (..., M, K) and LO
    (..., M): the trials whose bound gives a search (K usable cells and a
    G of full rank), and for each its usable cells, |b| on them, the
    orthonormal basis Q and triangle R of G = Q R with G's columns in
    order of norm, that order, and ||delta||."""
    *lead, m, k = h_eq.shape
    trials = math.prod(lead)
    h_eq, b = h_eq.reshape(trials, m, k), b.reshape(trials, m)
    p_max = np.abs(c.points).max()
    searched, cells, mag_b, basis, r, order, slack = [], [], [], [], [], [], []
    for t in range(trials):
        cells_t, model, width = _magnitude_bound(h_eq[t], b[t], p_max)
        if model.shape[0] < k:
            continue
        col_order = np.argsort(np.linalg.norm(model, axis=0), kind="stable")
        basis_t, r_t = np.linalg.qr(model[:, col_order])
        diag = np.abs(np.diag(r_t))
        if not diag.min() > 1e-12 * diag.max():  # also refuses nan
            continue
        searched.append(t)
        cells.append(cells_t)
        mag_b.append(np.abs(b[t, cells_t]))
        basis.append(basis_t)
        r.append(r_t)
        order.append(col_order)
        slack.append(np.linalg.norm(width))
    return searched, cells, mag_b, basis, np.array(r), np.array(order), np.array(slack)


def _pruned_search(
    z: np.ndarray, h_eq: np.ndarray, b: np.ndarray, c: Constellation, tree=None
) -> np.ndarray:
    """Lexicographic index of each observation's best candidate, found by
    scoring only the candidates the bound of ``_magnitude_bound`` cannot
    rule out; -1 where an observation's tree outgrew its trial's
    ``_NODE_WORDS``, and across a trial when its bound gives no search:
    fewer than K usable cells or a rank-deficient G.  ``z`` (..., M, n),
    ``h_eq`` (..., M, K) and ``b`` (..., M) carry the same leading trial
    axes; the result is (..., n).  ``tree`` is the channel's
    ``_search_tree``, built once per channel (here when not given).

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
    searched, cells, mag_b, bases, r, order, slack = (
        _search_tree(h_eq, b, c) if tree is None else tree)
    z, h_eq, b = z.reshape(trials, m, n_obs), h_eq.reshape(trials, m, k), b.reshape(trials, m)
    points, q = c.points, c.order
    best = np.full((trials, n_obs), -1, dtype=np.intp)
    if not searched:
        return best.reshape(*lead, n_obs)
    y, outside = [], []
    for t, cells_t, mag_t, basis in zip(searched, cells, mag_b, bases):
        z_lin = z[t, cells_t] - mag_t[:, None]
        y_t = basis.T @ z_lin
        y.append(y_t)
        outside.append(np.sum(np.square(z_lin - basis @ y_t), axis=0))
    n_sets = len(searched)
    if n_sets < trials:
        z, h_eq, b = z[searched], h_eq[searched], b[searched]
    y = np.array(y)

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
    radius = (np.sqrt(np.sum(dev, axis=1)) + slack[:, None]
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
    y, h_eq, b = _detector_inputs(y, "y", complex, h_eq, b)
    return _zero_forcing(h_eq, b, c)(y)
