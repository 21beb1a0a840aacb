"""RIS phase-shift optimization.

The optimizer minimizes J(theta) = || Im(H_eq(theta)) ||_F^2 over the RIS
phases, where H_eq = A diag(e^{j theta}) h_ur + h_uv and A = h_rv.  With
X = diag(e^{j theta}) h_ur (N x K), Im(A X) = Im(A) Re(X) + Re(A) Im(X),
so the transposed residual is one real product

    Q^T = Im(h_uv)^T + [Re X^T, Im X^T] @ [Im A, Re A]^T

with the column pairs interleaved: ``build_rank_one_cache`` stores R, the
real (M, 2N) view of j conj(A) whose column pairs are (Im A, Re A), and
X^T.view(float) is (K, 2N) with pairs (Re X, Im X).  J = sum(Q^2), and the
gradient is

    dJ/dtheta_n = 2 sum_{m,k} Q_{m,k} Re(A_{m,n} X_{n,k})
                = 2 sum_k Im(conj(X^T) o (Q^T @ R).view(complex))_{k,n}

because (Q^T @ R).view(complex) = Q^T j conj(A).  Finite differences
confirm it (see tests); descent steps use theta <- theta - eta * step.  An
objective/gradient evaluation is two real K x 2N x M products plus 2N
trigonometric calls.  Every entry takes any leading trial axes (none is
one trial) and runs them through one loop, refusing a non-finite phase
or mismatched shapes by name.

The loop forms e^{j theta} with cos and sin of theta once, at its start.
After each step Delta (theta -= Delta, applied to theta as before) it
turns that phasor by e^{-j Delta} instead, because Adam's steps are small
angles, whose cos and sin take libm's fast path.  The phasor then drifts
from e^{j theta} in the last bits, so the phases and traces differ from a
loop taking cos and sin of theta at every step by rounding only, and
deterministically; near J = 0 the steps follow that rounding, so over
thousands of steps the two loops drift further apart.  ``objective`` and
``objective_and_gradient`` take cos and sin of the theta they are given.

Minimizing J on channels whose rows have been de-phased by the LO
(multiply h_rv and h_uv by exp(-j angle(b)) row-wise) aligns the effective
channel with the LO instead of making it real; that variant is what the
detection pipeline consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet

__all__ = [
    "AdamConfig",
    "ConvergenceTrace",
    "build_rank_one_cache",
    "objective",
    "objective_and_gradient",
    "random_phases",
    "adam_optimize_batch",
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
    """Objective and gradient-norm history (..., max_iters), one entry per
    gradient evaluation (the first is the initial point) and trial."""

    objective: np.ndarray
    grad_norm: np.ndarray

    def __len__(self) -> int:
        return self.objective.shape[-1]


def build_rank_one_cache(ch: ChannelSet) -> tuple:
    """The factored operand of J: the pair (R, G), where R is the real
    (M, 2N) view of j conj(h_rv), whose column pairs are (Im h_rv, Re h_rv),
    and G = h_ur^T (K, N), both contiguous.  Every evaluation of J reads
    this pair.  A stack of channel sets gives a stack of pairs,
    (..., M, 2N) and (..., K, N), whose rows are the single-set pairs.
    """
    r = np.empty((*ch.h_rv.shape[:-1], 2 * ch.num_elements))
    r[..., 0::2] = ch.h_rv.imag
    r[..., 1::2] = ch.h_rv.real
    return r, np.ascontiguousarray(np.swapaxes(ch.h_ur, -1, -2))


def _evaluator(op: tuple, q0: np.ndarray):
    """An evaluation of J (B,) and dJ/dtheta (B, N) for B trials at once.

    ``op`` is the batch's (R, G), (B, M, 2N) and (B, K, N); ``q0`` is each
    trial's Im(h_uv), (B, M, K).  The returned function maps the phasors
    e^{j theta} (B, 1, N) to (J, gradient); both live in buffers that the
    next call overwrites.  Every product runs per trial (numpy's matmul
    loops GEMM over the batch axis), and no complex product is written
    over one of its operands (numpy computes a lone in-place element
    without FMA), so row b is bit-identical to evaluating trial b alone.
    """
    r, g = op
    b, k, n = g.shape
    q0t = np.ascontiguousarray(q0.transpose(0, 2, 1))
    r_t = r.transpose(0, 2, 1)
    x = np.empty((b, k, n), dtype=complex)
    u = np.empty_like(x)
    terms = np.empty_like(x)
    q = np.empty_like(q0t)
    q_row, q_col = q.reshape(b, 1, -1), q.reshape(b, -1, 1)
    j_val = np.empty((b, 1, 1))
    grad = np.empty((b, n))

    def evaluate(phasor: np.ndarray):
        np.multiply(phasor, g, out=x)  # X^T
        np.matmul(x.view(float), r_t, out=q)
        np.add(q, q0t, out=q)  # Q^T = Im(H_eq)^T
        np.matmul(q, r, out=u.view(float))
        np.conjugate(x, out=x)
        np.multiply(x, u, out=terms)
        np.sum(terms.imag, axis=1, out=grad)
        np.multiply(grad, 2.0, out=grad)
        np.matmul(q_row, q_col, out=j_val)
        return j_val[:, 0, 0], grad

    return evaluate


def _phasor(theta: np.ndarray) -> np.ndarray:
    """e^{j theta} (B, 1, N) of phases theta (B, N), by cos and sin."""
    phasor = np.empty((theta.shape[0], 1, theta.shape[1]), dtype=complex)
    np.cos(theta, out=phasor.real[:, 0])
    np.sin(theta, out=phasor.imag[:, 0])
    return phasor


def _inputs(theta, op: tuple, h_uv):
    """Every entry's contract: theta (..., N), (R, G) (..., M, 2N) and
    (..., K, N) and h_uv (..., M, K) share their leading axes.  Returns
    theta, (R, G) and Im(h_uv) with those axes flattened, and the axes."""
    theta = np.asarray(theta, dtype=float)
    h_uv = np.asarray(h_uv, dtype=complex)
    r, g = op
    # A size of -1 matches no shape, so a missing axis fails the check below.
    lead, (m, k) = h_uv.shape[:-2], (h_uv.shape[-2:] if h_uv.ndim > 1 else (-1, -1))
    n = theta.shape[-1] if theta.ndim else -1
    if (theta.shape, r.shape, g.shape) != ((*lead, n), (*lead, m, 2 * n), (*lead, k, n)):
        raise ValueError(f"shape mismatch: theta {theta.shape}, R {r.shape}, G {g.shape}, "
                         f"h_uv {h_uv.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    b = math.prod(lead)
    return (theta.reshape(b, n), (r.reshape(b, m, 2 * n), g.reshape(b, k, n)),
            h_uv.imag.reshape(b, m, k), lead)


def objective(theta: np.ndarray, op: tuple, h_uv: np.ndarray):
    """J(theta) (...) = squared Frobenius norm of Im(H_eq)."""
    return objective_and_gradient(theta, op, h_uv)[0]


def objective_and_gradient(theta: np.ndarray, op: tuple, h_uv: np.ndarray) -> tuple:
    """J (...) and its gradient (..., N) in one gradient evaluation."""
    theta, op, q0, lead = _inputs(theta, op, h_uv)
    j_val, grad = _evaluator(op, q0)(_phasor(theta))
    return j_val.reshape(lead)[()], grad.reshape(*lead, theta.shape[1])


def gradient_op_count(op: tuple) -> int:
    """Floating-point operation count of one objective_and_gradient call,
    read from the shapes of (R, G): the two real K x 2N x M products
    (residual and projections, 8 N M K), the 2N trigonometric calls, the
    two complex products forming X^T and the gradient terms (12 N K), the
    sum over users with the factor 2 (N K), and the residual's offset and
    squares (3 M K).  A stacked operand counts as one trial."""
    r, g = op
    theta, _, q0, _ = _inputs(np.zeros(g.shape[:-2] + g.shape[-1:]), op,
                              np.zeros(r.shape[:-1] + g.shape[-2:-1]))
    (_, m, k), n = q0.shape, theta.shape[1]
    return 8 * n * m * k + 2 * n + 13 * n * k + 3 * m * k


def random_phases(num_elements: int, rng: np.random.Generator) -> np.ndarray:
    """The optimizer's default starting point: phases uniform on [0, 2pi)."""
    return rng.uniform(0.0, 2.0 * np.pi, num_elements)


def adam_optimize_batch(
    theta0: np.ndarray, op: tuple, h_uv: np.ndarray, cfg: AdamConfig
) -> tuple[np.ndarray, ConvergenceTrace]:
    """Momentum gradient descent with bias-corrected first/second moments,
    for all trials of the objective's arguments in one loop.

    ``theta0`` (..., N) are the starting phases, ``op`` the
    ``build_rank_one_cache`` of the trials' channel sets and ``h_uv``
    (..., M, K) their direct channels.  Exactly ``cfg.max_iters``
    gradient evaluations are performed per trial, and every row is
    bit-identical to running that trial alone.  Each evaluation after the
    first reads e^{j theta} as the previous one turned by the step (see
    the module docstring).  Returns the final phases (..., N) and one
    trace recording J and ||grad||_2 at each evaluated point.
    """
    theta0, op, q0, lead = _inputs(theta0, op, h_uv)
    evaluate = _evaluator(op, q0)
    theta = theta0.copy()
    phasor = _phasor(theta)
    turned = np.empty_like(phasor)
    turn = np.empty_like(phasor)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    m_hat = np.empty_like(theta)
    tmp = np.empty_like(theta)
    obj_hist = np.empty((cfg.max_iters, theta.shape[0]))
    gsq_hist = np.empty_like(obj_hist)
    for it in range(1, cfg.max_iters + 1):
        j_val, g = evaluate(phasor)
        obj_hist[it - 1] = j_val
        np.matmul(g[:, None, :], g[:, :, None], out=gsq_hist[it - 1, :, None, None])
        # The arithmetic of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        # theta -= step m_hat / (sqrt(v_hat) + eps), in place.
        m *= cfg.beta1
        np.multiply(g, 1.0 - cfg.beta1, out=tmp)
        m += tmp
        v *= cfg.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - cfg.beta2
        v += tmp
        np.divide(m, 1.0 - cfg.beta1**it, out=m_hat)
        np.divide(v, 1.0 - cfg.beta2**it, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.epsilon
        m_hat *= cfg.step
        m_hat /= tmp
        theta -= m_hat
        if it < cfg.max_iters:  # turn e^{j theta} by e^{-j m_hat}: cos, sin of small angles
            np.cos(m_hat, out=turn.real[:, 0])
            np.negative(m_hat, out=tmp)
            np.sin(tmp, out=turn.imag[:, 0])
            np.multiply(phasor, turn, out=turned)  # not in place, as in _evaluator
            phasor, turned = turned, phasor
    return theta.reshape(*lead, theta.shape[1]), ConvergenceTrace(
        *(a.T.reshape(*lead, cfg.max_iters) for a in (obj_hist, np.sqrt(gsq_hist))))
