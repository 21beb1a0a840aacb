"""Channel and local-oscillator generation for the RIS-assisted atomic receiver.

Three matrices describe the link from K single-antenna users to M vapor
cells through an N-element RIS:

* ``h_ur`` (N x K): user-to-RIS, i.i.d. circularly-symmetric CN(0, 1),
* ``h_rv`` (M x N): RIS-to-vapor-cell, multipath coupling model,
* ``h_uv`` (M x K): direct user-to-vapor-cell, same multipath model.

The multipath model sums, over ``num_paths`` propagation paths, a Rabi
coupling, a path loss and a phase rotation.  A path couples through the
in-plane part of the atomic dipole, mu_perp . eps / hbar, with the
polarization eps at a uniform angle psi on the circle perpendicular to
the incidence axis.  That is |mu_perp| / hbar * cos(psi - psi0), where
psi0 is the dipole's own angle in the plane; psi is uniform, so this has
the distribution of |mu_perp| / hbar * cos(psi), and the dipole, hbar and
the axis reach the draws only through one scalar, ``coupling_gain``.  By
default the output is normalized to unit per-entry variance, which keeps
desk-scale experiments on the same footing as the CN(0, 1) user-RIS
links.

All randomness flows through an explicit ``numpy.random.Generator``.  The
draws write into arrays they are given (``_fill_user_ris``,
``_fill_physical``); ``sim.draw_channels`` draws one realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalPathParams",
    "LOParams",
    "ChannelSet",
    "gen_lo_vector",
    "effective_channel",
]


@dataclass(frozen=True)
class PhysicalPathParams:
    """Generative parameters of the multipath coupling channel.

    Each path couples as ``coupling_gain * cos(psi)``, psi uniform on
    [0, 2 pi).

    Attributes
    ----------
    num_paths : int
        Number of propagation paths summed per matrix entry (L >= 1).
    coupling_gain : float
        |in-plane part of the dipole moment| / hbar.
    path_loss_span : (float, float)
        Path losses are drawn log-uniformly from this closed interval.
    normalize : bool
        Scale entries so their variance is exactly 1 under the random
        draws.
    """

    num_paths: int = 4
    coupling_gain: float = 1.0
    path_loss_span: tuple[float, float] = (0.1, 1.0)
    normalize: bool = True

    def __post_init__(self):
        if not 1 <= self.num_paths <= np.iinfo(np.intp).max:  # beyond it, no numpy size
            raise ValueError(f"num_paths (paths) must be >= 1 and at most {np.iinfo(np.intp).max}")
        if not math.isfinite(self.coupling_gain):
            raise ValueError(f"coupling_gain must be finite, got {self.coupling_gain}")
        _check_path_loss_span(self.path_loss_span)
        _check_entry_scale(self.num_paths * abs(self.coupling_gain) * self.path_loss_span[1],
                           "coupling_gain, num_paths or path_loss_span")
        if self.normalize:
            var = _normalization_variance(self)
            if not 0.0 < var < math.inf:
                raise ValueError(
                    f"normalization variance is {var}: coupling_gain, num_paths or "
                    "path_loss_span is out of range"
                )
            object.__setattr__(self, "_entry_sd", math.sqrt(var))

    @property
    def entry_variance(self) -> float:
        """Per-entry variance of a drawn matrix: 1 when normalized, else
        the raw variance, which is 0 when the coupling or path loss is 0 or
        underflows."""
        return 1.0 if self.normalize else _normalization_variance(self)


@dataclass(frozen=True)
class LOParams:
    """Generative parameters of the local-oscillator vector.

    Each cell's LO sample is
    ``cos(psi) * sqrt(power) * path_loss * exp(j * phase)``, with one term
    per vapor cell (the LO is locally generated, so there is no multipath
    sum).  The cos(psi) factor is the LO's random polarization: it is what
    leaves some cells with a weak LO.  Any coupling gain or reference
    amplitude is part of ``power``.
    """

    power: float = 1e8
    path_loss_span: tuple[float, float] = (0.5, 1.0)

    def __post_init__(self):
        if not 0.0 <= self.power < math.inf:
            raise ValueError(f"power must be finite and nonnegative, got {self.power}")
        _check_path_loss_span(self.path_loss_span)
        _check_entry_scale(math.sqrt(self.power) * self.path_loss_span[1],
                           "power or path_loss_span")


def _check_path_loss_span(span) -> None:
    lo, hi = span
    if not 0.0 <= lo <= hi < math.inf or (lo == 0.0 < hi):
        raise ValueError(
            "path_loss_span (path_loss_min, path_loss_max) must satisfy "
            f"0 < min <= max < inf, or min = max = 0; got {span}"
        )


def _check_entry_scale(peak: float, names: str) -> None:
    """Reject fields whose worst-case entry magnitude ``peak`` squares to
    an overflow, so no draw overflows."""
    if not math.isfinite(peak * peak):
        raise ValueError(f"the worst-case squared entry overflows; reduce {names}")


@dataclass(frozen=True)
class ChannelSet:
    """The three channel matrices of one realization, or of a stack of them.

    Invariants: ``h_ur`` is N x K, ``h_rv`` is M x N, ``h_uv`` is M x K,
    with consistent inner dimensions.  N = 0 (no RIS) is allowed.  A stack,
    such as a campaign batch, has the same leading axes on all three.
    """

    h_ur: np.ndarray
    h_rv: np.ndarray
    h_uv: np.ndarray

    def __post_init__(self):
        h_ur = np.asarray(self.h_ur, dtype=complex)
        h_rv = np.asarray(self.h_rv, dtype=complex)
        h_uv = np.asarray(self.h_uv, dtype=complex)
        object.__setattr__(self, "h_ur", h_ur)
        object.__setattr__(self, "h_rv", h_rv)
        object.__setattr__(self, "h_uv", h_uv)
        if min(h_ur.ndim, h_rv.ndim, h_uv.ndim) < 2 or not (
                h_ur.shape[:-2] == h_rv.shape[:-2] == h_uv.shape[:-2]):
            raise ValueError("channel matrices must be 2-D, or stacks with equal leading "
                             f"axes; got {h_ur.shape}, {h_rv.shape} and {h_uv.shape}")
        n, k = h_ur.shape[-2:]
        m = h_rv.shape[-2]
        if h_rv.shape[-1] != n:
            raise ValueError(
                f"h_rv has {h_rv.shape[-1]} columns but h_ur has {n} rows"
            )
        if h_uv.shape[-2:] != (m, k):
            raise ValueError(
                f"h_uv shape {h_uv.shape[-2:]} inconsistent with (M={m}, K={k})"
            )
        for name, mat in (("h_ur", h_ur), ("h_rv", h_rv), ("h_uv", h_uv)):
            if mat.size and not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def num_elements(self) -> int:
        return self.h_ur.shape[-2]


def _workspace(terms: int, floats: int = 0) -> tuple:
    """Scratch for draws of up to ``terms`` path terms and ``floats``
    normals: two float arrays and one complex array, each flat.  A drawing
    thread reuses one for every matrix it draws (``_carve`` shapes it)."""
    size = max(terms, floats)
    return np.empty(size), np.empty(size), np.empty(terms, dtype=complex)


def _carve(buf: np.ndarray, shape) -> np.ndarray:
    """The first prod(shape) entries of the flat ``buf``, as ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


def _fill_user_ris(out: np.ndarray, rng: np.random.Generator, work: tuple) -> None:
    """The user-to-RIS draw: i.i.d. CN(0, 1) entries (re + j im) / sqrt(2),
    written into ``out`` (N, K) through the scratch ``work``.  N = 0 (no
    RIS) is an empty draw that leaves ``rng`` untouched."""
    _fill_complex_normal(out, rng, work)
    out /= math.sqrt(2.0)


def _fill_complex_normal(out: np.ndarray, rng: np.random.Generator, work: tuple) -> None:
    """re + j im of standard normals, the real ones drawn first, written
    into the complex ``out`` through the scratch ``work``."""
    re, im = _carve(work[0], out.shape), _carve(work[1], out.shape)
    rng.standard_normal(out=re)
    rng.standard_normal(out=im)
    np.multiply(1j, im, out=out)
    np.add(re, out, out=out)


def _uniform(rng: np.random.Generator, out: np.ndarray, low: float, high: float) -> np.ndarray:
    """``rng.uniform(low, high, out.shape)`` written into ``out``, bit for
    bit: numpy draws low + (high - low) u, and adding a zero ``low`` to the
    nonnegative (high - low) u changes nothing."""
    rng.random(out=out)
    out *= high - low
    if low:
        out += low
    return out


def _draw_path_loss(out: np.ndarray, span, rng: np.random.Generator) -> np.ndarray:
    """Path losses log-uniform on ``span``, written into ``out``; a
    collapsed span is constant and draws nothing."""
    lo, hi = span
    if lo == hi:
        out.fill(lo)
        return out
    return np.exp(_uniform(rng, out, math.log(lo), math.log(hi)), out=out)


# Below this relative width of a path-loss span, (hi^2 - lo^2) / (2 log(hi/lo))
# loses its digits to cancellation, and divides by zero once log(hi) ==
# log(lo); its limit lo * hi is off by (width)^2 / 6 there, under 2e-11.
_NARROW_SPAN = 1e-5


def _log_uniform_second_moment(span) -> float:
    lo, hi = span
    if lo == hi:
        return float(lo) ** 2
    if hi - lo <= _NARROW_SPAN * lo:
        return float(lo) * hi
    return (hi**2 - lo**2) / (2.0 * (math.log(hi) - math.log(lo)))


def _normalization_variance(params: PhysicalPathParams) -> float:
    """Per-entry variance of the un-normalized draw,
    L (gain^2 / 2) E[path_loss^2]; inf where it overflows."""
    try:
        second_moment = _log_uniform_second_moment(params.path_loss_span)
    except OverflowError:
        return math.inf
    gain = params.coupling_gain
    return params.num_paths * (gain * gain / 2.0) * second_moment


def _path_terms(span, rng: np.random.Generator, gain: float, amplitude: np.ndarray,
                phase: np.ndarray) -> None:
    """Draw each path's polarization angle psi, path loss and phase, in that
    order, into the float arrays ``amplitude`` and ``phase`` of one shape:
    ``amplitude`` ends as cos(psi) gain path_loss (the loss is drawn into
    ``phase`` and used before the phases are drawn there)."""
    np.cos(_uniform(rng, amplitude, 0.0, 2.0 * np.pi), out=amplitude)
    amplitude *= gain
    amplitude *= _draw_path_loss(phase, span, rng)
    _uniform(rng, phase, 0.0, 2.0 * np.pi)


def _fill_physical(out: np.ndarray, params: PhysicalPathParams, rng: np.random.Generator,
                   work: tuple) -> None:
    """An M x cols multipath channel matrix, written into ``out`` (M, cols)
    through the scratch ``work``, whose three (M, cols, L) arrays hold the
    path terms.  Entry (m, k) sums over paths l:
    coupling_gain * cos(psi(m, k, l)) * path_loss(m, k, l)
    * exp(j * phase(m, k, l)).  Zero columns (no RIS) is an empty draw
    that leaves ``rng`` untouched."""
    shape = (*out.shape, params.num_paths)
    amplitude, phase, terms = (_carve(buf, shape) for buf in work)
    _path_terms(params.path_loss_span, rng, params.coupling_gain, amplitude, phase)
    np.multiply(1j, phase, out=terms)
    np.exp(terms, out=terms)
    np.multiply(amplitude, terms, out=terms)
    _path_sum(terms, out)
    if params.normalize:
        out /= params._entry_sd


def _path_sum(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(terms, axis=-1)`` bit for bit, written into ``out`` when one
    is given; ``terms`` is overwritten.

    At L = 4, the default and the only path count the benchmark's
    workloads draw, numpy sums the four values as (t0 + t1) + (t2 + t3) and adds that to
    0.0; three adds of (M, cols) slices cost a seventh of the reduction.
    Every other L is numpy's own sum.
    """
    if terms.shape[-1] != 4:
        return np.sum(terms, axis=-1, out=out)
    total = np.add(terms[..., 0], terms[..., 1], out=out)
    total += np.add(terms[..., 2], terms[..., 3], out=terms[..., 2])
    total += 0.0  # makes a -0.0 sum 0.0
    return total


def gen_lo_vector(num_cells: int, params: LOParams, rng: np.random.Generator) -> np.ndarray:
    """Generate the length-M local-oscillator vector: one polarization
    factor, path loss and phase per cell, each magnitude scaled by
    sqrt(power)."""
    if num_cells < 1:
        raise ValueError("num_cells must be >= 1")
    amplitude, phase = np.empty(num_cells), np.empty(num_cells)
    _path_terms(params.path_loss_span, rng, math.sqrt(params.power), amplitude, phase)
    return amplitude * np.exp(1j * phase)


def effective_channel(ch: ChannelSet, theta: np.ndarray) -> np.ndarray:
    """Compose the M x K effective channel h_rv @ diag(exp(j theta)) @ h_ur + h_uv;
    a stack of sets takes theta (..., N) and gives (..., M, K), each matrix
    bit for bit its own set's call."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != ch.h_ur.shape[:-1]:
        raise ValueError(
            f"theta has shape {theta.shape}, expected {ch.h_ur.shape[:-1]}"
        )
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return (ch.h_rv * np.exp(1j * theta)[..., None, :]) @ ch.h_ur + ch.h_uv
