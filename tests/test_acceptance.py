"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (the campaign-backed
criteria take about ten seconds).

Criterion 6 asserts the partial order the receivers promise, within
3-sigma bands: BER(zf_genie) <= BER(proposed) (known phase bounds the
magnitude-only readout within the linear detector class) and
BER(exhaustive) <= BER(proposed) (maximum likelihood bounds least squares
on the same readout), plus a proposed-to-genie gap of at most 1 dB at
BER 1e-2.  No order between zf_genie and exhaustive is asserted: with a
strong local oscillator the magnitude readout is nearly lossless, so the
maximum-likelihood search beats linear zero forcing even when the latter
knows the phase.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from atomris.channel import (
    ChannelSet,
    LOParams,
    PhysicalPathParams,
    effective_channel,
    gen_lo_vector,
    gen_physical_channel,
    gen_user_ris_channel,
)
from atomris.detect import detect_proposed_batch, enumerate_symbol_vectors
from atomris.modem import make_pam
from atomris.risopt import (
    AdamConfig,
    adam_optimize_batch,
    build_rank_one_cache,
    gradient_op_count,
    objective,
    objective_and_gradient,
)
from atomris.sim import (
    SimConfig,
    merge_records,
    optimize_aligned_phases,
    records_to_csv,
    run_ber,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_channel_set(m, n, k, rng):
    return ChannelSet(
        h_ur=gen_user_ris_channel(k, n, rng),
        h_rv=gen_user_ris_channel(n, m, rng),
        h_uv=gen_user_ris_channel(k, m, rng),
    )


def snr_at_ber(points, target):
    """Log-linear interpolation of the Eb/N0 where a BER curve crosses
    ``target``; points is a sorted list of (db, ber)."""
    for (d1, b1), (d2, b2) in zip(points, points[1:]):
        if b1 >= target >= b2 and b2 > 0:
            t = (math.log10(target) - math.log10(b1)) / (math.log10(b2) - math.log10(b1))
            return d1 + t * (d2 - d1)
    return None


def test_criterion_1_gradient_correctness():
    """50 random instances, M,K,N <= 8: every gradient component matches
    central finite differences (step 1e-6) within 1e-5 relative error.

    Components whose magnitude is below 1e-4 are compared against the
    finite-difference roundoff scale (eps * J / step ~ 1e-10 * J) instead
    of relatively, since there the quotient measures roundoff, not the
    derivative.
    """
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(50):
        m, n, k = rng.integers(1, 9, 3)
        ch = random_channel_set(m, n, k, rng)
        cache = build_rank_one_cache(ch)
        theta = rng.uniform(0, 2 * np.pi, n)
        g = objective_and_gradient(theta, cache, ch.h_uv)[1]
        step = 1e-6
        fd = np.empty(n)
        for i in range(n):
            tp = theta.copy()
            tp[i] += step
            tm = theta.copy()
            tm[i] -= step
            fd[i] = (objective(tp, cache, ch.h_uv) - objective(tm, cache, ch.h_uv)) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    ok = worst < 1e-5
    report(1, "gradient-correctness", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_2_alignment_equivalence():
    """Aligned instances with Frobenius objective < 1e-20 keep the
    signal-domain objective below 1e-18 * ||s||^2 for 100 random real s,
    for real LO vectors and for complex LO vectors with phased rows.

    The signal-domain objective is the pre-reformulation residual
    || Im((H_eq(theta) s) o exp(-j angle(b))) ||^2 on the original (not
    de-phased) channels."""
    rng = np.random.default_rng(212)

    def cgauss(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

    worst_obj = 0.0
    worst_sdo = 0.0
    for case in range(10):
        m, n, k = rng.integers(2, 7, 3)
        a = cgauss((m, n))
        b_mat = cgauss((n, k))
        theta = rng.uniform(0, 2 * np.pi, n)
        bridge = (a * np.exp(1j * theta)) @ b_mat
        real_target = rng.standard_normal((m, k))
        complex_lo = case % 2 == 1
        if complex_lo:
            lo = cgauss(m)
        else:
            lo = np.abs(rng.standard_normal(m)) + 0.5
        rot = np.exp(1j * np.angle(lo))
        h_uv = rot[:, None] * real_target - bridge
        ch = ChannelSet(b_mat, a, h_uv)
        dephased = ChannelSet(
            b_mat, np.conj(rot)[:, None] * a, np.conj(rot)[:, None] * h_uv
        )
        j_val = objective(theta, build_rank_one_cache(dephased), dephased.h_uv)
        worst_obj = max(worst_obj, j_val)
        h_eq = effective_channel(ch, theta)
        derotate = np.exp(-1j * np.angle(lo))
        for _ in range(100):
            s = rng.standard_normal(k)
            v = np.sum(((h_eq @ s) * derotate).imag ** 2) / (s @ s)
            worst_sdo = max(worst_sdo, v)
    ok = worst_obj < 1e-20 and worst_sdo < 1e-18
    report(2, "alignment-equivalence", ok,
           f"worst objective {worst_obj:.2e}, worst signal residual {worst_sdo:.2e}")
    assert ok


def test_criterion_3_convergence_reproduction():
    """Reference configuration (M=36, N=150, K=3; eta=0.05, beta1=0.9,
    beta2=0.999, eps=1e-5, 100 iterations): the running minimum at the
    last iteration is below 20% of the initial objective in >= 90% of 20
    seeded runs."""
    params = PhysicalPathParams()
    hits = 0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ch = ChannelSet(
            gen_user_ris_channel(3, 150, rng),
            gen_physical_channel(36, 150, params, rng),
            gen_physical_channel(36, 3, params, rng),
        )
        _, trace = optimize_aligned_phases(ch, np.ones(36), AdamConfig(), rng)
        assert len(trace) == 100
        ratio = float(np.min(trace.objective) / trace.objective[0])
        worst = max(worst, ratio)
        hits += ratio < 0.20
    ok = hits >= 18
    report(3, "convergence-reproduction", ok,
           f"{hits}/20 runs below 20% of initial; worst ratio {worst:.3f}")
    assert ok


def test_criterion_4_oracle_equivalence():
    """N <= 2, M <= 3, K <= 2: best of 5 stratified optimizer restarts is
    within 1e-3 of a 360-points-per-dimension grid search on 20 random
    instances.

    The grid search scores the physical objective
    sum Im(h_rv diag(e^{j theta}) h_ur + h_uv)^2 straight from the channel
    matrices, not through the optimizer's factored operand.  Restart r
    starts from the randomly shifted Kronecker lattice point
    2 pi frac(shift + r sqrt(p_d)), p = (2, 3), which spreads the starts
    evenly over the phase torus; the restarts run as one batch over
    broadcast views of the instance's operand."""
    rng = np.random.default_rng(404)
    cfg = AdamConfig(max_iters=2000, step=0.005)
    restarts, points = 5, 360
    axis = np.arange(points) * (2.0 * np.pi / points)
    worst = -np.inf
    for _ in range(20):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        ch = random_channel_set(m, n, k, rng)
        cache = build_rank_one_cache(ch)
        grid = axis[np.indices((points,) * n).reshape(n, -1).T]  # one grid point per row
        h_eq = np.einsum("mn,pn,nk->pmk", ch.h_rv, np.exp(1j * grid), ch.h_ur) + ch.h_uv
        grid_theta = grid[np.argmin(np.sum(h_eq.imag**2, axis=(1, 2)))]
        grid_j = objective(grid_theta, cache, ch.h_uv)
        shift = rng.uniform(0.0, 1.0, n)
        alpha = np.sqrt(np.array([2.0, 3.0][:n]))
        theta0 = 2.0 * np.pi * np.mod(shift + np.arange(restarts)[:, None] * alpha, 1.0)
        op = tuple(np.broadcast_to(a, (restarts, *a.shape)) for a in cache)
        h_uv = np.broadcast_to(ch.h_uv, (restarts, m, k))
        thetas, _ = adam_optimize_batch(theta0, op, h_uv, cfg)
        best_j = min(objective(theta, cache, ch.h_uv) for theta in thetas)
        worst = max(worst, best_j - grid_j)
    ok = worst <= 1e-3
    report(4, "oracle-equivalence", ok, f"worst gap to grid minimum {worst:+.2e}")
    assert ok


def test_criterion_5_noiseless_exactness():
    """sigma^2 = 0 on an optimizer-aligned channel: the least-squares
    detector recovers every vector of constellation^K exactly for
    Q in {4, 8, 16}, K = 3.

    This holds on the seed-505 draw used here and on about 99% of default
    draws, not on all of them: in 300 default 4-PAM draws (the trials of a
    seed-2024 campaign point), 3 decoded some of the 64 vectors wrong.
    Each has one LO cell far weaker than the median, where the
    linearization |b + x| ~ |b| + Re(x e^{-j arg b}) fails."""
    rng = np.random.default_rng(505)
    params = PhysicalPathParams()
    ch = ChannelSet(
        gen_user_ris_channel(3, 150, rng),
        gen_physical_channel(36, 150, params, rng),
        gen_physical_channel(36, 3, params, rng),
    )
    b = gen_lo_vector(36, LOParams(), rng)
    theta, _ = optimize_aligned_phases(ch, b, AdamConfig(), rng)
    h_eq = effective_channel(ch, theta)
    failures = []
    for q in (4, 8, 16):
        c = make_pam(q)
        idx = enumerate_symbol_vectors(c, 3)
        z = np.abs(h_eq @ c.points[idx] + b[:, None])
        got = detect_proposed_batch(z, h_eq, b, c)
        wrong = int((got != idx).any(axis=0).sum())
        if wrong:
            failures.append(f"Q={q}: {wrong}/{idx.shape[1]} vectors wrong")
    ok = not failures
    report(5, "noiseless-exactness", ok,
           "all 64+512+4096 vectors exact" if ok else "; ".join(failures))
    assert ok


@pytest.fixture(scope="module")
def ordering_campaign():
    """Criterion 6 campaign: reference configuration, 1e5 symbol vectors per
    SNR point (1000 channel realizations x 100 vectors)."""
    cfg = SimConfig(
        num_cells=36, num_elements=150, num_users=3, mod_order=4,
        eb_n0_grid_db=(-30.0, -28.0, -26.0, -24.0, -22.0),
        trials_per_point=1000, symbols_per_trial=100,
        master_seed=2024, error_target=None,
    )
    records = run_ber(cfg)
    by_det = {}
    for rec in records:
        by_det.setdefault(rec.detector, []).append(rec)
    for det in by_det:
        by_det[det].sort(key=lambda r: r.eb_n0_db)
    return by_det


def test_criterion_6_detector_ordering(ordering_campaign):
    """4-PAM, M=36, K=3, N=150, >= 1e5 vectors per point, three legs:
    BER(zf_genie) <= BER(proposed) and BER(exhaustive) <= BER(proposed)
    within 3-sigma binomial bands at every point, and the proposed
    detector within 1 dB of the genie at BER = 1e-2.

    The genie is compared with the proposed detector, not with the
    exhaustive one: both are linear (zero forcing on the complex
    observation vs least squares on the linearized magnitude), and the
    genie differs only in knowing the phase and needing no linearization.
    Against the exhaustive detector it promises nothing, because maximum
    likelihood on the nearly lossless magnitude readout beats zero
    forcing with known phase.
    """
    by_det = ordering_campaign
    legs = []
    for rec_g, rec_e, rec_p in zip(by_det["zf_genie"], by_det["exhaustive"],
                                   by_det["proposed"]):
        band_gp = rec_g.ci_halfwidth + rec_p.ci_halfwidth
        band_ep = rec_e.ci_halfwidth + rec_p.ci_halfwidth
        legs.append(
            (rec_g.eb_n0_db,
             rec_g.ber <= rec_p.ber + band_gp,
             rec_e.ber <= rec_p.ber + band_ep)
        )
    genie_ok = all(leg[1] for leg in legs)
    exh_ok = all(leg[2] for leg in legs)

    prop_curve = [(r.eb_n0_db, r.ber) for r in by_det["proposed"]]
    genie_curve = [(r.eb_n0_db, r.ber) for r in by_det["zf_genie"]]
    snr_prop = snr_at_ber(prop_curve, 1e-2)
    snr_genie = snr_at_ber(genie_curve, 1e-2)
    gap = None if snr_prop is None or snr_genie is None else snr_prop - snr_genie
    gap_ok = gap is not None and gap <= 1.0

    ok = genie_ok and exh_ok and gap_ok
    genie_bad = [f"{db:+.0f}dB" for db, gp, _ in legs if not gp]
    exh_bad = [f"{db:+.0f}dB" for db, _, ep in legs if not ep]
    gap_text = f"{gap:.2f} dB" if gap is not None else "no 1e-2 crossing"
    report(
        6, "detector-ordering", ok,
        f"genie<=proposed {'holds' if genie_ok else 'violated at ' + ','.join(genie_bad)}; "
        f"exhaustive<=proposed {'holds' if exh_ok else 'violated at ' + ','.join(exh_bad)}; "
        f"proposed-genie gap at 1e-2 = {gap_text}",
    )
    assert genie_ok, (
        "genie worse than proposed beyond 3-sigma bands at " + ", ".join(genie_bad)
    )
    assert exh_ok, (
        "exhaustive worse than proposed beyond 3-sigma bands at " + ", ".join(exh_bad)
    )
    assert gap_ok, f"proposed-to-genie gap {gap} dB exceeds 1 dB"


def test_criterion_6_counts_are_pinned(ordering_campaign):
    """The criterion-6 CSV, every count of its 15 records, is the one the
    campaign has written since its last change of counts: a floating-point
    change that moves any count fails here, not only in a benchmark."""
    records = [rec for recs in ordering_campaign.values() for rec in recs]
    csv = records_to_csv(records)
    assert hashlib.md5(csv.encode()).hexdigest() == "cdbd1c33ea76633007b7a8c3a158711b", csv


def test_criterion_7_multiuser_degradation():
    """M=16, K=8 with 4-PAM shows strictly higher BER than M=36, K=3 at
    equal Eb/N0 for the proposed detector (paired master seeds, 3-sigma
    separation)."""
    grid = (-30.0, -27.0, -24.0)
    base = dict(mod_order=4, eb_n0_grid_db=grid, trials_per_point=200,
                symbols_per_trial=100, master_seed=7, error_target=None,
                detectors=("proposed",))
    few = run_ber(SimConfig(num_cells=36, num_elements=150, num_users=3, **base))
    many = run_ber(SimConfig(num_cells=16, num_elements=150, num_users=8, **base))
    few.sort(key=lambda r: r.eb_n0_db)
    many.sort(key=lambda r: r.eb_n0_db)
    details = []
    ok = True
    for a, b in zip(few, many):
        sep = b.ber - a.ber
        band = a.ci_halfwidth + b.ci_halfwidth
        ok &= sep > band
        details.append(f"{a.eb_n0_db:+.0f}dB: {a.ber:.2e} -> {b.ber:.2e}")
    report(7, "multiuser-degradation", ok, "; ".join(details))
    assert ok


def test_criterion_8_complexity_accounting():
    """The optimizer performs exactly max_iters gradient evaluations, and
    the per-evaluation arithmetic count is linear in N at fixed M, K
    (each point within 15% of the least-squares linear fit over
    N in {50, 100, 200, 400})."""
    rng = np.random.default_rng(808)
    for iters in (1, 17, 100):
        ch = random_channel_set(6, 20, 2, rng)
        _, trace = optimize_aligned_phases(ch, np.ones(6), AdamConfig(max_iters=iters), rng)
        assert len(trace) == iters

    sizes = np.array([50, 100, 200, 400])
    counts = []
    for n in sizes:
        ch = random_channel_set(6, int(n), 2, rng)
        counts.append(gradient_op_count(build_rank_one_cache(ch)))
    counts = np.array(counts, dtype=float)
    slope, intercept = np.polyfit(sizes, counts, 1)
    fit = slope * sizes + intercept
    worst_dev = float(np.max(np.abs(counts - fit) / fit))
    ok = worst_dev <= 0.15
    report(8, "complexity-accounting", ok,
           f"evals == max_iters; linear-fit deviation {worst_dev:.2%}")
    assert ok


def test_criterion_9_determinism_across_partitions():
    """A BER campaign rerun with the same config and seed produces
    byte-identical CSV, and so do its two trial-offset halves and its two
    grid halves, each pair merged with ``merge_records``."""
    cfg = SimConfig(
        num_cells=12, num_elements=32, num_users=2, mod_order=4,
        eb_n0_grid_db=(-28.0, -24.0), trials_per_point=16,
        symbols_per_trial=25, master_seed=31, error_target=None,
    )
    full = records_to_csv(run_ber(cfg))
    rerun = records_to_csv(run_ber(cfg))
    trial_halves = merge_records(
        run_ber(replace(cfg, trials_per_point=8)),
        run_ber(replace(cfg, trials_per_point=8, trial_offset=8)),
    )
    grid_halves = merge_records(
        run_ber(replace(cfg, eb_n0_grid_db=(-28.0,))),
        run_ber(replace(cfg, eb_n0_grid_db=(-24.0,))),
    )
    ok = full == rerun == records_to_csv(trial_halves) == records_to_csv(grid_halves)
    report(9, "determinism", ok,
           "rerun, merged trial-offset halves and merged grid halves byte-identical"
           if ok else "outputs differ")
    assert ok
