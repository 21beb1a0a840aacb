"""Measuring process of the benchmark; ``run.py`` starts it in a fresh
interpreter for each role and reads the JSON object on its last stdout line.

Roles:

* ``setup``   -- time set-up only (imports, config parse + validation,
  warm-up campaign) and exit;
* ``measure`` -- set up, then run campaign slices through
  ``atomris.cli.main(["ber", ...])`` for ``--seconds`` and check them;
* ``trace``   -- set up, then the per-layer run: untraced slices at one and
  two workers, a traced replay of the same trials, the reference-seed
  drift check and the millisecond-scale per-layer timings.
"""

import time

# The set-up clock starts before numpy or atomris is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    BITS,
    DETECTORS,
    ERRORS,
    WORKLOADS,
    Reference,
    Workload,
    check_run,
    halfwidth,
    merge,
    mismatched,
    parse_csv,
    trials_in,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Repetitions of the millisecond-scale per-layer timings in a traced run.
TIMING_REPS = 30
OBJGRAD_SWEEP = (50, 150, 400)


class SliceFailed(RuntimeError):
    pass


def import_atomris():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import atomris
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import atomris from {src}: {exc}") from None
    if not Path(atomris.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: atomris imported from {atomris.__file__}, not {src}")
    return atomris


# The warm-up campaign is one slice far beyond any measured trial range, so
# it computes trials no measured slice repeats.
WARMUP_ROUND = 1000


def set_up(w: Workload, seed: int, workdir: Path) -> float:
    """Everything before the first timed trial: import, config parse and
    validation, and one warm-up slice (a process's first campaign runs
    slower).  Returns seconds since T0, scaled by speed probes taken right
    after."""
    import_atomris()
    from atomris import config, sim

    path = workdir / "campaign.ini"
    path.write_text(w.config_text(seed))
    sim.validate_config(config.load_config(path))
    run_slice(w, seed, WARMUP_ROUND * w.groups, w.threads, workdir)
    elapsed = time.perf_counter() - T0
    return elapsed / SpeedProbe(w.reference, w.threads).speed()


def run_slice(w: Workload, seed: int, index: int, threads: int, workdir: Path):
    """One campaign call through the CLI entry; returns (counts, wall seconds)."""
    from atomris import cli

    ini = workdir / f"slice{index}.ini"
    out = workdir / f"slice{index}-{threads}w.csv"
    ini.write_text(w.config_text(seed, index))
    argv = ["ber", "--config", str(ini), "--out", str(out), "--threads", str(threads)]
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a campaign must not raise; count it as failed cells
        traceback.print_exc()
        raise SliceFailed(f"slice {index} raised {exc!r}") from exc
    wall = time.perf_counter() - t0
    if code != 0:
        raise SliceFailed(f"slice {index} exited with code {code}")
    return parse_csv(out.read_text()), wall


# The shared machines this runs on change effective CPU speed by +-20% within
# seconds (CPU time tracks wall time, so it is not preemption).  Each measured
# round of slices is therefore bracketed by a speed probe: a fixed piece of
# numpy work of the same kind as the workload's, on the benchmark's own
# arrays, so no change to the package can change it.  Rates are scaled to a
# machine on which the probe takes its nominal time (per copy for "ref").
# The probe kind is the workload's reference shape.
PROBE_NOMINAL_S = {"ref": 0.008, "detect-heavy": 0.075}

# The detect-heavy probe enumerates K=6 candidates (4096), not the workload's
# K=8 (65536): its temporaries peak under 10 MiB, far below the detector's
# ~113 MiB, so peak_rss_mb measures the program and not the probe.
PROBE_USERS = 6
PROBE_REPEATS = 16


class SpeedProbe:
    """``ref``: 600 x (150 normal draws, complex exp, 150x108 GEMV), the mix
    of the channel draw and the optimizer (single-threaded in BLAS at this
    size), one copy per worker thread, as the workload's trials run.

    ``detect-heavy``: a frozen copy of the exhaustive detector's arithmetic
    (Python enumeration of the candidates, fresh temporaries and a GEMM
    against 100 observations) at M=16, Q=4 and K=PROBE_USERS, repeated
    PROBE_REPEATS times, as in the package at the commit that added the
    benchmark."""

    def __init__(self, kind: str, threads: int = 1):
        import numpy as np

        self.kind, self.np, self.threads = kind, np, threads
        rng = np.random.default_rng(0)
        if kind == "ref":
            self.rngs = [np.random.default_rng(i) for i in range(threads)]
            self.a = rng.standard_normal((150, 108))
            self.v = np.ones(108)
        else:
            k = PROBE_USERS
            self.h = rng.standard_normal((16, k)) + 1j * rng.standard_normal((16, k))
            self.b = np.ones(16, dtype=complex)
            self.z = np.abs(rng.standard_normal((16, 100)))
            self.points = np.array([-3.0, -1.0, 1.0, 3.0])
        self.last = self.time()

    def _small_ops(self, rng) -> None:
        for _ in range(600):
            self.np.exp(1j * rng.standard_normal(150))
            self.a @ self.v

    def _exhaustive(self) -> None:
        np = self.np
        for _ in range(PROBE_REPEATS):
            idx = np.array(list(itertools.product(range(4), repeat=PROBE_USERS)), dtype=np.intp).T
            mag = np.abs(self.h @ self.points[idx] + self.b[:, None])
            scores = np.sum(mag**2, axis=0)[:, None] - 2.0 * (mag.T @ self.z)
            idx[:, np.argmin(scores, axis=0)]

    def _once(self) -> float:
        t0 = time.perf_counter()
        if self.kind != "ref":
            self._exhaustive()
        elif self.threads == 1:
            self._small_ops(self.rngs[0])
        else:
            with ThreadPoolExecutor(self.threads) as pool:
                list(pool.map(self._small_ops, self.rngs))
        return time.perf_counter() - t0

    def time(self) -> float:
        """Median of three probes: single probes vary by +-10% back to back."""
        return statistics.median(self._once() for _ in range(3))

    def speed(self) -> float:
        """Probe now; the machine's slowdown over the section since the last
        probe, as (mean of the two probes) / nominal."""
        now = self.time()
        copies = self.threads if self.kind == "ref" else 1
        slowdown = (self.last + now) / 2.0 / (PROBE_NOMINAL_S[self.kind] * copies)
        self.last = now
        return slowdown


def run_round(w: Workload, seed: int, first: int, threads: int, workdir: Path):
    """Slices ``first .. first + groups - 1``, one round of the grid;
    returns (their counts, trials, wall seconds)."""
    counts, wall = [], 0.0
    for index in range(first, first + w.groups):
        c, t = run_slice(w, seed, index, threads, workdir)
        counts.append(c)
        wall += t
    return counts, trials_in(merge(counts), w), wall


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its children (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def machine_facts() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {name: {k: deps.get(name, {}).get(k) for k in ("name", "version", "openblas configuration")}
            for name in ("blas", "lapack")}
    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
           "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **blas,
        # Unset means the BLAS library's own default; the benchmark never pins it.
        "blas_thread_env": {k: os.environ.get(k) for k in env},
    }


def measure(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    setup_s = set_up(w, seed, workdir)
    ref = Reference.load(w)
    probe = SpeedProbe(w.reference, w.threads)
    slices, trials, wall, scaled = [], 0, 0.0, 0.0
    deadline = time.perf_counter() + seconds
    while _more(slices, ref, time.perf_counter() < deadline):
        counts, n, t = run_round(w, seed, len(slices), w.threads, workdir)
        slices += counts
        trials, wall, scaled = trials + n, wall + t, scaled + t / probe.speed()
    return {
        "trials_per_s_wall": trials / wall,
        "setup_s": setup_s,
        "metrics": {
            "trials_per_s": {"value": trials / scaled, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        },
        **_outcome(check_run(w, slices, ref)),
    }


def _more(slices: list, ref: Reference, in_time: bool) -> bool:
    """Another round: at least one, then until time is up or the reference
    has no more slices."""
    return len(slices) < len(ref.slices) and (not slices or in_time)


def _outcome(check, extra_cells=(), extra_problems=()) -> dict:
    return {
        "attempted": check.attempted,
        "failed": len(check.failed_cells | set(extra_cells)),
        "problems": check.problems + list(extra_problems),
    }


def _timing(metrics: dict, name: str, unit: str, samples: list[float], scale: float) -> None:
    import numpy as np

    p50, p90 = np.percentile(np.asarray(samples) * scale, [50, 90])
    metrics[f"{name}.p50"] = (float(p50), unit)
    metrics[f"{name}.p90"] = (float(p90), unit)
    metrics[f"{name}.samples"] = (len(samples), "count")


def trace_run(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    set_up(w, seed, workdir)
    import numpy as np

    import replay as tr
    from atomris import config, sim

    ref = Reference.load(w)
    problems: list[str] = []
    failed_cells: set = set()
    half = seconds / 2.0

    # Untraced: the same slices at one and at two workers.
    slices, totals = [], {1: [0, 0.0], 2: [0, 0.0]}  # trials, wall
    start = time.perf_counter()
    while _more(slices, ref, time.perf_counter() - start < half):
        r = len(slices)
        by_threads = {}
        for threads in (2 if w.threads == 1 else 1, w.threads):
            counts, n, t = run_round(w, seed, r, threads, workdir)
            totals[threads] = [totals[threads][0] + n, totals[threads][1] + t]
            by_threads[threads] = merge(counts)
        if by_threads[1] != by_threads[2]:
            problems.append(f"slices from {r}: counts differ between 1 and 2 workers")
            failed_cells |= {k for k in by_threads[1] if by_threads[1][k] != by_threads[2].get(k)}
        slices += counts  # the workload's own worker count ran last
    check = check_run(w, slices, ref)

    # Traced replay of those slices; its counts must equal the campaign's.
    # Each replayed slice is paired with the same slice untraced at one
    # worker just before it, and the overhead is taken from those pairs.
    tracer, stats = tr.Tracer(), tr.ReplayStats()
    replayed, untraced_wall, traced_wall = 0, 0.0, 0.0
    start = time.perf_counter()
    while replayed < len(slices) and (replayed == 0 or time.perf_counter() - start < half):
        untraced_wall += run_slice(w, seed, replayed, 1, workdir)[1]
        cfg = config.parse_config_text(w.config_text(seed, replayed))
        t0 = time.perf_counter()
        got = tr.replay_campaign(cfg, tracer, stats, first_trial_id=len(stats.trials))
        traced_wall += time.perf_counter() - t0
        for key, value in slices[replayed].items():
            if got.get(key) != value:
                failed_cells.add(key)
                problems.append(f"traced replay of slice {replayed} {key}: {got.get(key)} "
                                f"!= campaign {value}; the replay no longer matches sim")
        replayed += 1
    stats.finish()

    # Reference seed, one round of the grid: every point must run exactly the
    # reference's trials; bit_errors that differ are counted as drift.
    drift_counts = merge([run_slice(w, ref.seed, r, w.threads, workdir)[0]
                          for r in range(w.groups)])
    ref_round = merge(ref.slices[:w.groups])
    for key in sorted(mismatched(drift_counts, ref_round, BITS)):
        failed_cells.add(key)
        problems.append(f"reference seed {key}: bits_sent {drift_counts.get(key, (None,))[BITS]} "
                        f"!= {ref_round[key][BITS]}; the campaign ran other trials")
    drift = len(mismatched(drift_counts, ref_round, ERRORS))

    # Millisecond-scale timings: config parse + validation, CSV + manifest write.
    from atomris import __version__

    ini = workdir / "campaign.ini"
    parse_s, write_s = [], []
    records = [sim.BerRecord(db, det, b, e, e / b, halfwidth(b, e))
               for (db, det), (b, e) in sorted(drift_counts.items())]
    cfg0 = config.load_config(ini)
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        sim.validate_config(config.load_config(ini))
        t1 = time.perf_counter()
        out = workdir / "timing.csv"
        sim.write_records_csv(records, out)
        config.write_manifest(cfg0, f"{out}.manifest", [str(out)], __version__)
        t2 = time.perf_counter()
        parse_s.append(t1 - t0)
        write_s.append(t2 - t1)

    m: dict = {}
    for span, metric in (("channel.draw", "channel.draw_ms"), ("channel.lo", "channel.lo_ms"),
                         ("channel.compose", "channel.compose_ms"),
                         ("risopt.align", "risopt.align_ms"),
                         ("detect.front_end", "detect.front_end_ms"),
                         ("detect.proposed", "detect.proposed_ms"),
                         ("detect.exhaustive", "detect.exhaustive_ms"),
                         ("detect.zf", "detect.zf_ms")):
        _timing(m, metric, "ms", tracer.durations(span), 1e3)
    _timing(m, "sim.trial_ms", "ms", tracer.stage_sums_per_trial(), 1e3)
    _timing(m, "risopt.objgrad_us", "us", stats.objgrad_us, 1.0)
    for n in OBJGRAD_SWEEP:
        shape = sim.SimConfig(num_cells=36, num_elements=n, num_users=3, eb_n0_grid_db=w.grid)
        m[f"risopt.objgrad_us.n{n}"] = (statistics.median(tr.objgrad_samples(shape, seed, 5, 40)), "us")
    m["risopt.grad_evals"] = (statistics.median(stats.grad_evals), "count")
    m["risopt.final_j"] = (float(np.median(stats.final_j)), "obj")
    _timing(m, "config.parse_ms", "ms", parse_s, 1e3)
    _timing(m, "cli.write_ms", "ms", write_s, 1e3)
    # The two worker counts ran in alternate rounds, so they saw the same machine.
    (n1, wall1), (n2, wall2) = totals[1], totals[2]
    m["sim.scaling_eff"] = ((n2 / wall2) / (2.0 * n1 / wall1), "ratio")
    m["sim.trials_run"] = (trials_in(drift_counts, w), "count")
    m["sim.count_drift_cells"] = (drift, "count")
    # Both sides replayed the same trials, so the rate ratio is the time ratio.
    m["trace.overhead_frac"] = (1.0 - untraced_wall / traced_wall, "frac")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{w.name}-seed{seed}.jsonl")
    return {
        **_outcome(check, failed_cells, problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.role}-", dir=OUT_DIR))
    try:
        if args.role == "setup":
            result = {"setup_s": set_up(w, args.seed, workdir)}
        elif args.role == "measure":
            result = measure(w, args.seed, args.seconds, workdir)
        else:
            result = trace_run(w, args.seed, args.seconds, workdir)
    except SliceFailed as exc:
        cells = len(w.grid) * len(DETECTORS)
        result = {"attempted": cells, "failed": cells, "problems": [str(exc)], "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["machine"] = machine_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
