"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench

They run tiny versions of each workload in-process, so they take seconds,
not the minutes of a benchmark run.
"""

from __future__ import annotations

import copy
import json
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import bench
import make_reference
import run
import workloads
from workloads import BITS, REFERENCE_SEED, WORKLOADS, Reference, check_run, merge, mismatched

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY_SEED = 5


def tiny(w: workloads.Workload) -> workloads.Workload:
    """Same shape and worker count, a few small trials per point."""
    return replace(w, grid=w.grid[:2], points_per_slice=min(w.points_per_slice, 2),
                   trials_per_slice=8, symbols_per_trial=10)


@pytest.fixture
def tiny_references(tmp_path, monkeypatch):
    """Reference files for the tiny workloads, built at TINY_SEED."""
    bench.import_atomris()
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    for shape in {w.reference for w in WORKLOADS.values()}:
        w = tiny(next(w for w in WORKLOADS.values() if w.reference == shape))
        data = make_reference.build(w, 2 * w.groups, "test", seed=TINY_SEED)
        (tmp_path / f"{shape}.json").write_text(json.dumps(data))
    return tmp_path


def _metric_lines(res: dict, trace: bool) -> dict:
    res["machine"] = bench.machine_facts()
    lines, correct = run.report(res, trace)
    assert correct, res["problems"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-2]}
    return printed, result["metrics"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_prints_every_metric(name, tiny_references, tmp_path):
    w = tiny(WORKLOADS[name])
    res = bench.measure(w, TINY_SEED, 0.1, tmp_path)
    printed, metrics = _metric_lines(res, trace=False)
    for m in BENCHMARK["end_to_end"]:
        assert printed[m["name"]] == m["unit"] == metrics[m["name"]]["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert printed["failed_frac"] == "frac"

    res = bench.trace_run(w, TINY_SEED, 0.1, tmp_path)
    printed, metrics = _metric_lines(res, trace=True)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert printed[m["name"]] == m["unit"] == metrics[m["name"]]["unit"]
    assert metrics["sim.count_drift_cells"]["value"] == 0
    assert metrics["risopt.grad_evals"]["value"] == 100


def test_csv_identical_at_one_and_two_workers(tmp_path):
    bench.import_atomris()
    w = tiny(WORKLOADS["ref-1w"])
    bench.run_slice(w, TINY_SEED, 0, 1, tmp_path)
    bench.run_slice(w, TINY_SEED, 0, 2, tmp_path)
    one = (tmp_path / "slice0-1w.csv").read_bytes()
    assert one == (tmp_path / "slice0-2w.csv").read_bytes()


@pytest.mark.parametrize("name", ["ref-1w", "detect-heavy"])
def test_check_rejects_perturbed_reference(name):
    w = WORKLOADS[name]
    ref = Reference.load(w)
    assert ref.seed == REFERENCE_SEED
    run_slices = ref.slices[:2 * w.groups]
    assert not check_run(w, run_slices, ref).failed_cells

    first = (w.grid[0], "proposed")
    errors = copy.deepcopy(ref)
    for s in errors.slices[:2 * w.groups]:
        if first in s:
            bits, e = s[first]
            s[first] = (bits, e * 3 // 2)
    assert check_run(w, run_slices, errors).failed_cells == {first}

    # A run that stops a trial short where the reference hit the trial cap.
    last = (w.grid[-1], "proposed")
    short = copy.deepcopy(run_slices)
    bits, e = short[w.groups - 1][last]
    assert bits == w.trials_per_slice * w.bits_per_trial, "high point should stop at the trial cap"
    short[w.groups - 1][last] = (bits - w.bits_per_trial, e)
    assert check_run(w, short, ref).failed_cells == {last}


def test_check_rejects_missed_early_stop():
    # detect-heavy's lowest point stops on the error target after the first
    # batch in every reference slice.  A run that goes on to the second
    # batch has the same BER, so only the bits_sent checks can see it.
    w = WORKLOADS["detect-heavy"]
    ref = Reference.load(w)
    run_slices = copy.deepcopy(ref.slices[:2 * w.groups])
    low = {(w.grid[0], det) for det in workloads.DETECTORS}
    for key in low:
        bits, e = run_slices[0][key]
        assert bits < w.trials_per_slice * w.bits_per_trial, "low point should stop early"
        run_slices[0][key] = (2 * bits, 2 * e)
    assert check_run(w, run_slices, ref).failed_cells == low
    # The traced run's exact check at the reference seed.
    got, expected = merge(run_slices[:w.groups]), merge(ref.slices[:w.groups])
    assert mismatched(got, expected, BITS) == low
    assert not mismatched(expected, expected, BITS)


def test_probe_memory_is_small_next_to_the_detector():
    # peak_rss_mb on detect-heavy must be the detector's peak, not the
    # speed probe's, which runs in the same process.
    bench.import_atomris()
    import numpy as np
    from atomris import detect, modem

    w = WORKLOADS["detect-heavy"]
    probe = bench.SpeedProbe(w.reference, w.threads)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((w.cells, w.users)) + 1j * rng.standard_normal((w.cells, w.users))
    z = np.abs(rng.standard_normal((w.cells, w.symbols_per_trial)))
    b = np.ones(w.cells, dtype=complex)
    tracemalloc.start()
    try:
        probe._once()
        probe_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        detect.detect_exhaustive_batch(z, h, b, modem.make_pam(w.pam_order))
        detector_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probe_peak < 0.1 * detector_peak, (probe_peak, detector_peak)


def test_no_workload_asks_for_more_workers_than_cpus():
    # Inspect the configs only; nothing here starts a worker.
    for w in WORKLOADS.values():
        assert 1 <= w.threads <= (os.cpu_count() or 1), w.name
    # The traced run also times the other of the two worker counts.
    assert 2 <= (os.cpu_count() or 1)


