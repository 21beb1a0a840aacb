"""RIS phase-shift optimization.

The optimizer minimizes J(theta) = || Im(H_eq(theta)) ||_F^2 over the RIS
phases, where H_eq = h_rv diag(e^{j theta}) h_ur + h_uv.  Writing
V_n = h_rv[:, n] outer h_ur[n, :], the imaginary residual decomposes as

    Q = Im(h_uv) + sum_n (cos(theta_n) Im(V_n) + sin(theta_n) Re(V_n))

so J = sum(Q^2) and each objective/gradient evaluation costs O(N M K):
one product [cos(theta), sin(theta)] @ [Im V; Re V] for Q and one product
[Im V; Re V] @ Q for the gradient (see ``build_rank_one_cache``).  The
optimizer runs a batch of independent trials through one loop; a single
trial, or the restarts of ``multistart_adam``, is a batch too.  The
analytic gradient is

    dJ/dtheta_n = 2 sum_{m,k} Q_{m,k} (cos(theta_n) Re(V_n) - sin(theta_n) Im(V_n))_{m,k}

which finite differences confirm (see tests); note the bracket is the
derivative of the cos/sin expansion above, i.e. descent steps use
theta <- theta - eta * step.

Minimizing J on channels whose rows have been de-phased by the LO
(multiply h_rv and h_uv by exp(-j angle(b)) row-wise) aligns the effective
channel with the LO instead of making it real; that variant is what the
detection pipeline consumes and what ``signal_domain_objective`` scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, effective_channel
from .errors import BudgetExceededError

__all__ = [
    "AdamConfig",
    "ConvergenceTrace",
    "build_rank_one_cache",
    "objective",
    "gradient",
    "objective_and_gradient",
    "random_phases",
    "adam_optimize_batch",
    "adam_optimize",
    "multistart_adam",
    "brute_force_phases",
    "signal_domain_objective",
    "canonicalize_phases",
    "gradient_op_count",
]


@dataclass(frozen=True)
class AdamConfig:
    """Hyperparameters of the momentum gradient-descent loop.

    Defaults: 100 iterations, step 0.05, beta1 0.9, beta2 0.999,
    epsilon 1e-5.  The loop always runs all ``max_iters`` iterations.
    """

    max_iters: int = 100
    step: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Objective and gradient-norm history, one entry per gradient
    evaluation (the first entry is the initial point)."""

    objective: np.ndarray
    grad_norm: np.ndarray

    def __len__(self) -> int:
        return self.objective.size


def build_rank_one_cache(ch: ChannelSet, out: np.ndarray | None = None) -> np.ndarray:
    """The N rank-one terms V_n = h_rv[:, n] outer h_ur[n, :] as one real
    (2N, M*K) matrix [Im V; Re V]: row n holds Im(V_n) and row N + n holds
    Re(V_n), each flattened row-major.  Every optimizer and oracle reads
    this array.  ``out``, when given, is the array written into (a slot of
    a trial batch's buffer); otherwise one is made.
    """
    outer = ch.h_rv.T[:, :, None] * ch.h_ur[:, None, :]
    n, m, k = outer.shape
    if out is None:
        out = np.empty((2 * n, m * k))
    out[:n] = outer.imag.reshape(n, m * k)
    out[n:] = outer.real.reshape(n, m * k)
    return out


def _evaluate(theta: np.ndarray, stacked: np.ndarray, q0: np.ndarray):
    """J (B,) and dJ/dtheta (B, N) of B trials at once.

    ``theta`` is (B, N), ``stacked`` (B, 2N, MK) and ``q0`` (B, MK).  Every
    product runs per trial (numpy's matmul loops GEMV over the batch axis),
    so row b is bit-identical to evaluating trial b alone.
    """
    n = theta.shape[1]
    trig = np.concatenate((np.cos(theta), np.sin(theta)), axis=1)[:, None, :]
    q = q0[:, None, :] + trig @ stacked  # (B, 1, MK): Im(H_eq) flattened
    q_col = q.transpose(0, 2, 1)
    proj = (stacked @ q_col)[:, :, 0]  # (B, 2N): [Im V; Re V] Q
    grad = 2.0 * (trig[:, 0, :n] * proj[:, n:] - trig[:, 0, n:] * proj[:, :n])
    return (q @ q_col)[:, 0, 0], grad


def _single(theta, stacked: np.ndarray, h_uv):
    """Validated one-trial arguments: theta (1, N), stacked (1, 2N, MK)
    and Im(h_uv) (1, MK), a batch of one."""
    theta = np.asarray(theta, dtype=float)
    h_uv = np.asarray(h_uv, dtype=complex)
    rows, cols = stacked.shape
    if theta.shape != (rows // 2,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({rows // 2},)")
    if h_uv.ndim != 2 or h_uv.size != cols:
        raise ValueError(f"h_uv has shape {h_uv.shape}, expected M x K = {cols} entries")
    return theta[None], stacked[None], h_uv.imag.reshape(1, -1)


def objective(theta: np.ndarray, stacked: np.ndarray, h_uv: np.ndarray) -> float:
    """J(theta) = squared Frobenius norm of Im(H_eq)."""
    return objective_and_gradient(theta, stacked, h_uv)[0]


def gradient(theta: np.ndarray, stacked: np.ndarray, h_uv: np.ndarray) -> np.ndarray:
    """Analytic gradient dJ/dtheta (length N)."""
    return objective_and_gradient(theta, stacked, h_uv)[1]


def objective_and_gradient(
    theta: np.ndarray, stacked: np.ndarray, h_uv: np.ndarray
) -> tuple[float, np.ndarray]:
    """Evaluate J and its gradient in one pass (one gradient evaluation)."""
    j_val, grad = _evaluate(*_single(theta, stacked, h_uv))
    return float(j_val[0]), grad[0]


def gradient_op_count(stacked: np.ndarray) -> int:
    """Multiply-add count of one objective_and_gradient call, read from the
    shape of the (2N, MK) stacked matrix: two GEMVs over it (residual and
    projections, 8 N MK) plus the elementwise trigonometry and combination
    work."""
    n, cols = stacked.shape[0] // 2, stacked.shape[1]
    return 8 * n * cols + 6 * n + 2 * cols


def canonicalize_phases(theta: np.ndarray) -> np.ndarray:
    """Wrap phases into [0, 2pi)."""
    return np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)


def random_phases(num_elements: int, rng: np.random.Generator) -> np.ndarray:
    """The optimizer's default starting point: phases uniform on [0, 2pi)."""
    return rng.uniform(0.0, 2.0 * np.pi, num_elements)


def adam_optimize_batch(
    stacked: np.ndarray, q0: np.ndarray, theta0: np.ndarray, cfg: AdamConfig
) -> tuple[np.ndarray, list[ConvergenceTrace]]:
    """Momentum gradient descent with bias-corrected first/second moments,
    for B independent trials in one loop.

    ``stacked`` (B, 2N, MK) holds each trial's ``build_rank_one_cache``,
    ``q0`` (B, MK) each Im(h_uv) flattened, ``theta0`` (B, N) the starting
    phases.  Exactly ``cfg.max_iters`` gradient evaluations are performed
    per trial, and every row is bit-identical to running that trial alone
    (B = 1).  Returns the final phases (B, N) and one trace per trial
    recording J and ||grad||_2 at each evaluated point.
    """
    theta = np.array(theta0, dtype=float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    obj_hist = np.empty((cfg.max_iters, theta.shape[0]))
    gsq_hist = np.empty_like(obj_hist)
    for it in range(1, cfg.max_iters + 1):
        j_val, g = _evaluate(theta, stacked, q0)
        obj_hist[it - 1] = j_val
        gsq_hist[it - 1] = (g[:, None, :] @ g[:, :, None])[:, 0, 0]
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        m_hat = m / (1.0 - cfg.beta1**it)
        v_hat = v / (1.0 - cfg.beta2**it)
        theta = theta - cfg.step * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return theta, [
        ConvergenceTrace(obj.copy(), np.sqrt(gsq)) for obj, gsq in zip(obj_hist.T, gsq_hist.T)
    ]


def adam_optimize(
    stacked: np.ndarray,
    h_uv: np.ndarray,
    cfg: AdamConfig,
    rng: np.random.Generator,
    theta0: np.ndarray | None = None,
) -> tuple[np.ndarray, ConvergenceTrace]:
    """One trial through ``adam_optimize_batch`` (a batch of one).

    The initial phases are ``random_phases`` from ``rng`` unless
    ``theta0`` is given.
    """
    if theta0 is None:
        theta0 = random_phases(stacked.shape[0] // 2, rng)
    theta0, stacked, q0 = _single(theta0, stacked, h_uv)
    theta, traces = adam_optimize_batch(stacked, q0, theta0, cfg)
    return theta[0], traces[0]


_KRONECKER_PRIMES = (2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0)


def multistart_adam(
    stacked: np.ndarray,
    h_uv: np.ndarray,
    cfg: AdamConfig,
    rng: np.random.Generator,
    restarts: int = 5,
) -> tuple[np.ndarray, float]:
    """Best of several optimizer runs from stratified starting points.

    The objective is multimodal in theta, so i.i.d. uniform restarts can
    miss the best basin.  Restart r starts from the randomly shifted
    Kronecker lattice point 2*pi*frac(shift + r*sqrt(p_d)), which spreads
    the starts evenly over the phase torus.  The restarts run as one batch
    over a broadcast view of ``stacked``, so each row equals that restart
    run alone.  Returns (theta, J(theta)) of the first restart whose final
    J is smallest.
    """
    n = stacked.shape[0] // 2
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if n > len(_KRONECKER_PRIMES):
        raise ValueError(
            f"stratified restarts support up to {len(_KRONECKER_PRIMES)} dimensions"
        )
    shift = rng.uniform(0.0, 1.0, n)
    alpha = np.sqrt(np.array(_KRONECKER_PRIMES[:n]))
    theta0 = 2.0 * np.pi * np.mod(shift + np.arange(restarts)[:, None] * alpha, 1.0)
    _, stacked, q0 = _single(theta0[0], stacked, h_uv)  # checks h_uv against the array
    stacked = np.broadcast_to(stacked, (restarts, *stacked.shape[1:]))
    q0 = np.broadcast_to(q0, (restarts, q0.shape[1]))
    thetas, _ = adam_optimize_batch(stacked, q0, theta0, cfg)
    j_final = _evaluate(thetas, stacked, q0)[0]
    best = int(np.argmin(j_final))
    return thetas[best], float(j_final[best])


# The most objective evaluations one grid search may spend.
_GRID_BUDGET = 50_000_000


def brute_force_phases(
    stacked: np.ndarray, h_uv: np.ndarray, grid_points_per_dim: int
) -> np.ndarray:
    """Grid-search oracle: the grid point minimizing J.

    Only intended for N <= 3; refuses larger problems with a cost estimate.
    """
    n = stacked.shape[0] // 2
    cost = grid_points_per_dim**n
    if n > 3 or cost > _GRID_BUDGET:
        raise BudgetExceededError(
            f"grid search over N={n} needs {grid_points_per_dim}^{n} = {cost} "
            f"objective evaluations (budget {_GRID_BUDGET})"
        )
    axis = np.arange(grid_points_per_dim) * (2.0 * np.pi / grid_points_per_dim)
    # all grid points in row-major (ij) order, one per row; (1, 0) for N = 0
    thetas = axis[np.indices((grid_points_per_dim,) * n).reshape(n, cost).T]
    trig = np.hstack((np.cos(thetas), np.sin(thetas)))
    q = np.asarray(h_uv).imag.reshape(-1) + trig @ stacked
    values = np.sum(q * q, axis=1)
    return thetas[int(np.argmin(values))].copy()


def signal_domain_objective(
    theta: np.ndarray, ch: ChannelSet, s: np.ndarray, b: np.ndarray
) -> float:
    """The pre-reformulation objective
    || Im( (H_eq(theta) s) o exp(-j angle(b)) ) ||_2^2."""
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=complex)
    if s.shape != (ch.num_users,):
        raise ValueError(f"s has shape {s.shape}, expected ({ch.num_users},)")
    if b.shape != (ch.num_cells,):
        raise ValueError(f"b has shape {b.shape}, expected ({ch.num_cells},)")
    h_eq = effective_channel(ch, theta)
    e = (h_eq @ s) * np.exp(-1j * np.angle(b))
    return float(np.sum(e.imag**2))
