"""Tests for the command-line interface and configuration files."""

import codecs
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import atomris
from atomris.channel import ChannelSet, LOParams, PhysicalPathParams, gen_lo_vector
from atomris import cli, detect, sim
from atomris.cli import main, save_phase_solution
from atomris.config import (
    default_config_text,
    dump_config,
    load_config,
    load_manifest,
    parse_config_text,
    write_manifest,
)
from atomris.errors import ConfigError, SingularMatrixError
from atomris.risopt import AdamConfig, build_rank_one_cache, objective
from atomris.sim import DETECTOR_NAMES, SimConfig, draw_channels, trial_seed, validate_config

BASE_CONFIG = """\
[system]
cells = 8
ris_elements = 16
users = 2
pam_order = 4

[adam]
max_iters = 40

[sim]
eb_n0_grid_db = -26,-22
trials_per_point = 6
symbols_per_trial = 20
master_seed = 3
error_target = none
"""


def read_phase_file(path) -> dict:
    """The phase-solution format: a magic line, five ``key = value`` header
    lines, then ``theta =`` and one phase per line."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# atomris-phase-solution v1" and lines[6] == "theta ="
    header = dict(line.split(" = ") for line in lines[1:6])
    assert list(header) == ["seed", "cells", "ris_elements", "users", "objective"]
    sol = {key: int(val) for key, val in header.items() if key != "objective"}
    sol["objective"] = float(header["objective"])
    sol["theta"] = np.array([float(v) for v in lines[7:]])
    return sol


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def with_field(section, key, value):
    """BASE_CONFIG with one field set, replacing its line if present and
    otherwise adding it to its section.  Further ``key = value`` lines in
    ``value`` are set the same way."""
    text = BASE_CONFIG
    header = f"[{section}]\n"
    for field in f"{key} = {value}".split("\n"):
        line = re.compile(rf"^{field.split(' = ')[0]} = .*$", re.M)
        if line.search(text):
            text = line.sub(field, text)
        elif header in text:
            text = text.replace(header, f"{header}{field}\n")
        else:
            text += f"\n{header}{field}\n"
    return text


def first_trial(cfg):
    """The channels and LO of the campaign's first trial (trial
    ``trial_offset``), drawn through the public functions."""
    rng = np.random.default_rng(
        trial_seed(cfg.master_seed, cfg.eb_n0_grid_db[0], cfg.trial_offset))
    ch = draw_channels(cfg, rng)
    return ch, gen_lo_vector(cfg.num_cells, cfg.lo, rng)


# ``--dump-defaults`` output, pinned: key order and value formatting are
# part of the file format (manifests carry the same body).
DEFAULT_CONFIG_TEXT = """\
[system]
cells = 36
ris_elements = 150
users = 3
pam_order = 4

[channel]
paths = 4
coupling_gain = 1.0
path_loss_min = 0.1
path_loss_max = 1.0
normalize = true

[lo]
power = 100000000.0
path_loss_min = 0.5
path_loss_max = 1.0

[adam]
max_iters = 100
step = 0.05
beta1 = 0.9
beta2 = 0.999
epsilon = 1e-05

[sim]
eb_n0_grid_db = -40.0,-36.0,-32.0,-28.0
trials_per_point = 50
symbols_per_trial = 100
detectors = proposed,exhaustive,zf_genie
master_seed = 0
error_target = 200
trial_offset = 0
exhaustive_budget = 1048576

"""

README = Path(__file__).resolve().parents[1] / "README.md"

# Keys of the former 3-D coupling model, with values it accepted.
REMOVED_KEYS = (
    ("channel", "dipole_moment", "1.0,0.0,0.0"),
    ("channel", "hbar", "1.0"),
    ("channel", "incidence_axis", "0.0,0.0,1.0"),
    ("lo", "reference_symbol", "1.0"),
    ("lo", "coupling_gain", "1.0"),
    ("lo", "dipole_moment", "none"),
    ("lo", "hbar", "1.0"),
    ("lo", "incidence_axis", "0.0,0.0,1.0"),
)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
moderate = st.floats(-1e6, 1e6)


@st.composite
def path_params(draw, cls):
    lo = draw(positive)
    fields = dict(path_loss_span=(lo, lo * draw(st.floats(1.0, 100.0))))
    if cls is PhysicalPathParams:
        fields.update(num_paths=draw(st.integers(1, 64)), coupling_gain=draw(moderate),
                      normalize=draw(st.booleans()))
    else:
        fields.update(power=draw(st.floats(0.0, 1e12)))
    try:
        return cls(**fields)
    except ValueError:  # e.g. a normalized coupling gain of 0
        assume(False)


sim_configs = st.builds(
    SimConfig,
    num_cells=st.integers(1, 1000),
    num_elements=st.integers(0, 1000),
    num_users=st.integers(1, 16),
    mod_order=st.sampled_from((2, 4, 8, 16)),
    eb_n0_grid_db=st.lists(finite, min_size=1, max_size=8).map(tuple),
    trials_per_point=st.integers(1, 10**6),
    symbols_per_trial=st.integers(1, 10**4),
    detectors=st.lists(st.sampled_from(DETECTOR_NAMES), min_size=1, unique=True).map(tuple),
    channel=path_params(PhysicalPathParams),
    lo=path_params(LOParams),
    adam=st.builds(
        AdamConfig,
        max_iters=st.integers(1, 10**4),
        step=positive,
        beta1=st.floats(0.01, 0.99),
        beta2=st.floats(0.01, 0.999),
        epsilon=positive,
    ),
    master_seed=st.integers(0, 2**63),
    error_target=st.none() | st.integers(1, 10**6),
    trial_offset=st.integers(0, 10**6),
    exhaustive_budget=st.integers(1, 2**40),
)


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = SimConfig()
        assert parse_config_text(dump_config(cfg)) == cfg

    @settings(deadline=None)
    @given(sim_configs)
    @example(SimConfig(channel=PhysicalPathParams(path_loss_span=(17.0, 17.000000000000004))))
    def test_any_config_round_trips(self, cfg):
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_dump_defaults_parses(self):
        cfg = parse_config_text(default_config_text())
        assert cfg == SimConfig()

    def test_missing_required_field_named(self):
        text = BASE_CONFIG.replace("cells = 8\n", "")
        with pytest.raises(ConfigError, match="cells"):
            parse_config_text(text)

    def test_bad_value_named(self):
        text = BASE_CONFIG.replace("users = 2", "users = two")
        with pytest.raises(ConfigError, match="users"):
            parse_config_text(text)

    def test_malformed_syntax_diagnosed(self):
        with pytest.raises(ConfigError):
            parse_config_text("cells = 8\n")  # option before any section header

    def test_default_text_is_pinned(self, capsys):
        assert default_config_text() == DEFAULT_CONFIG_TEXT
        assert main(["ber", "--dump-defaults"]) == 0
        assert capsys.readouterr().out == DEFAULT_CONFIG_TEXT

    @pytest.mark.parametrize("text, named", [
        (BASE_CONFIG + "\n[channel]\npower = 2\n", "[channel] power"),
        (BASE_CONFIG + "\n[run]\noutputs = x.csv\n", "[run]"),
        ("[DEFAULT]\n" + BASE_CONFIG, "[DEFAULT]"),
    ], ids=["lo-key-under-channel", "run", "empty-DEFAULT"])
    def test_unknown_section_or_key_named(self, text, named):
        """Beyond the CLI cases in TestCommands: a key of another section,
        the manifest's [run] and an empty [DEFAULT] are unknown too."""
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config_text(text)

    def test_one_end_of_path_loss_span(self):
        cfg = parse_config_text(BASE_CONFIG + "\n[channel]\npath_loss_max = 2.5\n")
        assert cfg.channel.path_loss_span == (PhysicalPathParams().path_loss_span[0], 2.5)
        assert cfg.lo == LOParams()

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("Yes", True), ("on", True), ("1", True),
        ("false", False), ("NO", False), ("off", False), ("0", False),
    ])
    def test_bool_spellings(self, raw, value):
        cfg = parse_config_text(BASE_CONFIG + f"\n[channel]\nnormalize = {raw}\n")
        assert cfg.channel.normalize is value

    def test_readme_configs_parse(self):
        """Every ``ini`` block in README.md is a valid config, so the
        documented files cannot drift from the schema."""
        blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
        assert blocks
        for text in blocks:
            validate_config(parse_config_text(text, source="README.md"))

    def test_readme_process_split_matches_one_run(self, tmp_path):
        """README's ``python`` block, run as written next to a small
        ``run.ini``, spreads 1000 trials over two spawned processes and
        merges their records into a ``ber.csv`` byte-identical to the one
        ``atomris ber`` writes for the whole campaign."""
        blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
        (script,) = [text for text in blocks if "merge_records" in text]
        (tmp_path / "split.py").write_text(script)
        ini = tmp_path / "run.ini"
        ini.write_text("[system]\ncells = 4\nris_elements = 3\nusers = 2\npam_order = 4\n\n"
                       "[sim]\neb_n0_grid_db = -20\ntrials_per_point = 1000\n"
                       "symbols_per_trial = 10\nerror_target = none\n")
        src = str(Path(atomris.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "split.py"], cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=path), check=True, timeout=300)
        assert main(["ber", "--config", str(ini), "--out", str(tmp_path / "one.csv")]) == 0
        assert (tmp_path / "ber.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_empty_grid_rejected_downstream(self):
        text = BASE_CONFIG.replace("eb_n0_grid_db = -26,-22", "eb_n0_grid_db =")
        cfg = parse_config_text(text)
        with pytest.raises(ConfigError, match="grid"):
            validate_config(cfg)


class TestManifest:
    def test_round_trip(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG)
        path = tmp_path / "out.csv.manifest"
        write_manifest(cfg, path, ["out.csv"], "0.1.0")
        back, meta = load_manifest(path)
        assert back == cfg
        assert meta["artifact_version"] == "0.1.0"
        assert meta["outputs"] == "out.csv"
        assert "T" in meta["timestamp"]

    def test_body_is_the_config_text(self, tmp_path):
        path = tmp_path / "out.csv.manifest"
        write_manifest(SimConfig(), path, ["out.csv"], "0.1.0")
        body, run = path.read_text().split("[run]\n")
        assert body == DEFAULT_CONFIG_TEXT
        assert run.startswith("artifact_version = 0.1.0\ntimestamp = ")
        assert run.endswith("\noutputs = out.csv\n\n")

    @pytest.mark.parametrize("stray, named", [
        ("[sim]\n", "[sim] trails_per_point"),
        ("[adam]\n", "[adam] trails_per_point"),
    ], ids=["sim", "adam"])
    def test_stray_key_rejected(self, tmp_path, stray, named):
        path = tmp_path / "out.csv.manifest"
        write_manifest(parse_config_text(BASE_CONFIG), path, ["out.csv"], "0.1.0")
        path.write_text(path.read_text().replace(stray, stray + "trails_per_point = 9\n"))
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_manifest(path)

    def test_stray_section_rejected(self, tmp_path):
        path = tmp_path / "out.csv.manifest"
        write_manifest(parse_config_text(BASE_CONFIG), path, ["out.csv"], "0.1.0")
        path.write_text("[DEFAULT]\nmaster_seed = 9\n\n" + path.read_text())
        with pytest.raises(ConfigError, match=re.escape("[DEFAULT]")):
            load_manifest(path)

    def test_byte_order_mark_manifest_loads(self, tmp_path):
        path = tmp_path / "out.csv.manifest"
        write_manifest(parse_config_text(BASE_CONFIG), path, ["out.csv"], "0.1.0")
        plain = load_manifest(path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert load_manifest(path) == plain

    def test_non_utf8_manifest_named(self, tmp_path):
        path = tmp_path / "out.csv.manifest"
        write_manifest(SimConfig(), path, ["out.csv"], "0.1.0")
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(ConfigError, match="cannot read manifest .*out.csv.manifest"):
            load_manifest(path)


class TestCommands:
    def test_dump_defaults(self, capsys):
        assert main(["ber", "--dump-defaults"]) == 0
        out = capsys.readouterr().out
        assert "[system]" in out and "ris_elements" in out

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert main(["ber", "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_field_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.replace("cells = 8\n", ""))
        assert main(["ber", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "cells" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("channel", "paths", "0"),
        ("channel", "path_loss_min", "0"),
        ("lo", "path_loss_min", "0"),
        ("channel", "normalize", "maybe"),
        ("lo", "power", "-1"),
        ("channel", "coupling_gain", "1e200"),
        pytest.param("channel", "coupling_gain", "1e200\nnormalize = false",
                     id="channel-coupling_gain-1e200-unnormalized"),
        pytest.param("channel", "coupling_gain", "0.0\nnormalize = false",
                     id="channel-coupling_gain-0-unnormalized"),
        pytest.param("channel", "coupling_gain", "1e-170\nnormalize = false",
                     id="channel-coupling_gain-1e-170-unnormalized"),
        pytest.param("channel", "coupling_gain", "1e-160\nnormalize = false",
                     id="channel-coupling_gain-1e-160-unnormalized"),
        pytest.param("channel", "coupling_gain", "1e-155\nnormalize = false",
                     id="channel-coupling_gain-1e-155-unnormalized"),
        pytest.param("channel", "path_loss_min", "0.0\npath_loss_max = 0.0\nnormalize = false",
                     id="channel-path_loss-0-unnormalized"),
        ("sim", "eb_n0_grid_db", "nan"),
        ("sim", "eb_n0_grid_db", "1,1"),
        ("sim", "eb_n0_grid_db", "-0.0,0.0"),
        ("sim", "eb_n0_grid_db", "-10,4000"),
        ("sim", "eb_n0_grid_db", "-10,-4000"),
        ("sim", "eb_n0_grid_db", "-10,-3200"),
        ("sim", "trials_per_point", "6%"),
        ("sim", "detectors", "proposed,proposed,zf_genie"),
        ("sim", "master_seed", "-1"),
        ("sim", "exhaustive_budget", "0"),
        ("sim", "exhaustive_budget", "-3"),
        # 4^32 candidates: more than numpy can index, though the budget admits them.
        pytest.param("sim", "exhaustive_budget", "1" + "0" * 31 + "\ncells = 32\nusers = 32",
                     id="sim-exhaustive_budget-beyond-index-range"),
        # Sizes numpy cannot shape; it refuses them before allocating.
        ("system", "cells", "1" + "0" * 20),
        ("system", "ris_elements", "1" + "0" * 20),
        ("channel", "paths", "1" + "0" * 20),
        pytest.param("channel", "paths", "1" + "0" * 400, id="channel-paths-1e400"),
        ("sim", "symbols_per_trial", "1" + "0" * 20),
        # A (4, 2^56) observation fits numpy's index range; the batch's
        # (6, 4, 2^56) complex observations do not.
        pytest.param("sim", "symbols_per_trial", f"{2**56}\ncells = 4",
                     id="sim-symbols_per_trial-2^56-batch-observations"),
        ("adam", "max_iters", "1" + "0" * 20),
        # [system] checks of the campaign, named by the file's keys.
        ("system", "pam_order", "3"),
        ("system", "cells", "0"),
        ("system", "users", "0"),
        ("system", "ris_elements", "-1"),
        pytest.param("system", "users", "99\ncells = 4", id="system-users-99-above-cells-4"),
    ])
    def test_invalid_field_is_exit_2(self, tmp_path, capsys, section, key, value):
        """Rejected before any trial runs, with the field named by its key,
        a whole word (``paths``, not the ``num_paths`` it sets)."""
        path = write_config(tmp_path, with_field(section, key, value))
        assert main(["ber", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err), err
        if section != "sim":
            assert f"[{section}]" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("system, gain", [
        ("cells = 4\nris_elements = 3\nusers = 2", "1e-160"),
        ("cells = 3\nris_elements = 0\nusers = 3", "1e-154"),
    ], ids=["M4-N3-K2", "M3-N0-K3"])
    def test_singular_channel_is_exit_2(self, tmp_path, capsys, system, gain):
        """An unnormalized channel with a variance just above 0, whose Gram
        matrix underflows, used to end in a traceback from the slicer.  A
        variance below the smallest normal float (gains 1e-160 and 1e-154
        here) is refused before the first trial."""
        text = BASE_CONFIG.replace("cells = 8\nris_elements = 16\nusers = 2", system)
        text += f"\n[channel]\ncoupling_gain = {gain}\nnormalize = false\n"
        out = tmp_path / "x.csv"
        code = main(["ber", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert code == 2 and "coupling_gain" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system, gain", [
        ("cells = 8\nris_elements = 16\nusers = 2", "1e-150"),
        ("cells = 3\nris_elements = 0\nusers = 3", "3e-154"),
    ], ids=["M8-N16-K2", "M3-N0-K3"])
    def test_smallest_normal_variance_runs(self, tmp_path, system, gain):
        """Unnormalized gains just above the smallest normal variance pass
        validation and run: 1e-150 (variance about 4.3e-301), and 3e-154
        (variance 3.9e-308) at three cells with no RIS, where the
        least-squares solve works on the channel scaled to unit size, so
        the 3 x 3 Gram matrix cannot underflow."""
        text = BASE_CONFIG.replace("cells = 8\nris_elements = 16\nusers = 2", system)
        text += f"\n[channel]\ncoupling_gain = {gain}\nnormalize = false\n"
        out = tmp_path / "x.csv"
        assert main(["ber", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        assert out.exists()

    OVERFLOW_CONFIG = """\
[system]
cells = 4
ris_elements = 6
users = 2

[channel]
coupling_gain = {gain}
normalize = false

[sim]
eb_n0_grid_db = 0
trials_per_point = 2
"""

    @pytest.mark.parametrize("command", ["ber", "convergence", "optimize"])
    def test_channel_overflowing_the_optimizer_is_exit_2(self, tmp_path, capsys, command):
        """An unnormalized coupling gain of 1e77 at M = 4, N = 6, K = 2
        took the optimizer's ||grad||^2 and Adam's grad^2 past the float
        range, so ``proposed`` read BER 0.49 and ``convergence`` wrote
        grad_norm = inf, with exit 0.  It is refused before any trial, by
        its [channel] fields, and so is 2.4e74, just past the bound."""
        for gain in ("1e77", "2.4e74"):
            path = write_config(tmp_path, self.OVERFLOW_CONFIG.format(gain=gain))
            out = tmp_path / "x.out"
            assert main([command, "--config", path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "[channel]" in err and re.search(r"\bcoupling_gain\b", err), err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["ber", "convergence", "optimize"])
    def test_channel_just_inside_the_optimizer_bound_runs(self, tmp_path, command):
        """A gain of 2.3e74, just inside the bound at that shape, runs with
        RuntimeWarnings as errors and writes finite numbers."""
        path = write_config(tmp_path, self.OVERFLOW_CONFIG.format(gain="2.3e74"))
        out = tmp_path / "x.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", path, "--out", str(out)]) == 0
        assert not re.search(r"\b(inf|nan)\b", out.read_text())

    def test_negative_threads_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["ber", "--config", path, "--out", str(out), "--threads", "-3"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_trial_in_a_batch_is_exit_2(self, tmp_path, capsys, rank_deficient):
        """A rank-deficient channel in trial 3 of a batch ends ``ber`` with
        exit 2 and one error line, that trial's own refusal, writing no
        CSV."""
        composed = rank_deficient(3)
        out = tmp_path / "x.csv"
        assert main(["ber", "--config", write_config(tmp_path), "--out", str(out)]) == 2
        with pytest.raises(SingularMatrixError) as alone:
            detect.ls_estimate(composed[3], np.ones((8, 1)))
        assert capsys.readouterr().err == f"error: {alone.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("module, name", [(sim, "_draw_start"),
                                              (detect, "_full_search")])
    def test_out_of_memory_is_exit_4(self, tmp_path, capsys, monkeypatch, threads,
                                     module, name):
        """A campaign the machine cannot hold, in a trial's draw (on a pool
        worker when ``threads`` is 2) or in the full search, ends with one
        error line naming the sizes and exit 4, writing no CSV or manifest."""
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(module, name, out_of_memory)
        out = tmp_path / "x.csv"
        assert main(["ber", "--config", write_config(tmp_path), "--out", str(out),
                     "--threads", threads]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: out of memory")
        assert "M = 8, N = 16, K = 2, Q^K = 4^2 = 16" in err
        assert not out.exists()
        assert not Path(f"{out}.manifest").exists()

    @pytest.mark.parametrize("command", ["optimize", "convergence"])
    def test_threads_only_for_ber(self, tmp_path, capsys, command):
        """``--threads`` belongs to ``ber`` alone; argparse rejects it elsewhere."""
        path = write_config(tmp_path)
        out = tmp_path / "x.out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(out), "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_capped_at_batch_size(self, tmp_path, monkeypatch):
        """``--threads 1000000`` writes the ``--threads 1`` CSV and draws
        on the calling thread and one worker, as any N >= 2 does; the
        thread count is read while they draw, once per trial for both
        grid points."""
        path = write_config(tmp_path, BASE_CONFIG.replace("trials_per_point = 6",
                                                          "trials_per_point = 20"))
        draw_start = sim._draw_start
        running = []

        def counting_draw_start(*args):
            running.append(threading.active_count())
            return draw_start(*args)

        monkeypatch.setattr(sim, "_draw_start", counting_draw_start)
        outs = []
        for threads, most in (("1", 0), ("1000000", 1)):
            out = tmp_path / f"t{threads}.csv"
            before = threading.active_count()
            running.clear()
            assert main(["ber", "--config", path, "--out", str(out),
                         "--threads", threads]) == 0
            assert len(running) == 20
            assert max(running) - before <= most
            outs.append(out.read_bytes())
        assert max(running) > before  # the last run's workers were drawing
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["ber", "optimize", "convergence"])
    def test_negative_seed_is_exit_2(self, tmp_path, capsys, command):
        """A negative seed, from the config or from --seed, is rejected
        before any draw with both spellings named."""
        out = tmp_path / "x.out"
        path = write_config(tmp_path, with_field("sim", "master_seed", "-7"))
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert "master_seed (--seed)" in capsys.readouterr().err
        path = write_config(tmp_path)
        assert main([command, "--config", path, "--out", str(out), "--seed", "-1"]) == 2
        assert "master_seed (--seed)" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_is_exit_2(self, tmp_path):
        assert main(["ber", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_byte_order_mark_config_runs(self, tmp_path):
        """A config saved with a UTF-8 byte-order mark, as some editors save
        it, loads to the plain file's config, and ``ber`` writes the plain
        file's CSV."""
        plain = write_config(tmp_path)
        path = tmp_path / "bom.ini"
        path.write_bytes(codecs.BOM_UTF8 + BASE_CONFIG.encode())
        assert load_config(path) == load_config(plain)
        outs = []
        for config in (plain, str(path)):
            outs.append(tmp_path / f"{Path(config).stem}.csv")
            assert main(["ber", "--config", config, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_non_utf8_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xff\xfe" + BASE_CONFIG.encode())
        out = tmp_path / "x.csv"
        assert main(["ber", "--config", str(path), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        (BASE_CONFIG.replace("trials_per_point", "trails_per_point"),
         "[sim] trails_per_point"),
        (BASE_CONFIG + "\n[simulation]\ntrials_per_point = 9\n", "[simulation]"),
        ("[DEFAULT]\nmaster_seed = 5\n" + BASE_CONFIG, "[DEFAULT]"),
        *[(BASE_CONFIG + f"\n[{section}]\n{key} = {value}\n", f"[{section}] {key}")
          for section, key, value in REMOVED_KEYS],
    ], ids=["key", "section", "DEFAULT",
            *[f"removed-{section}-{key}" for section, key, _ in REMOVED_KEYS]])
    def test_unknown_name_is_exit_2(self, tmp_path, capsys, text, named):
        """A stray key used to run with the default in its place.  The keys
        of the former 3-D coupling model are unknown too: the dipole, hbar
        and the incidence axis fold into ``[channel] coupling_gain``, and
        the LO's gain and reference symbol into ``[lo] power``."""
        path = write_config(tmp_path, text)
        out = tmp_path / "x.csv"
        assert main(["ber", "--config", path, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_exhaustive_budget_is_exit_4(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("pam_order = 4", "pam_order = 16")
        text = text.replace("users = 2", "users = 8")
        text = text.replace("cells = 8", "cells = 16")
        text += "exhaustive_budget = 1000\n"  # appends inside [sim]
        path = write_config(tmp_path, text)
        assert main(["ber", "--config", path, "--out", str(tmp_path / "x.csv")]) == 4
        assert "16^8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, runner", [
        ("ber", "run_ber"), ("convergence", "run_convergence"), ("optimize", "run_convergence"),
    ])
    def test_unwritable_out_is_exit_3_before_any_trial(
        self, tmp_path, capsys, monkeypatch, command, runner
    ):
        def refuse(*args):
            raise AssertionError(f"{runner} ran before the output was checked")

        monkeypatch.setattr(cli, runner, refuse)
        out = tmp_path / "absent" / "x.csv"
        assert main([command, "--config", write_config(tmp_path), "--out", str(out)]) == 3
        assert str(out) in capsys.readouterr().err

    def test_unwritable_manifest_is_exit_3_and_keeps_the_csv(self, tmp_path, capsys, monkeypatch):
        """The output check appends nothing to, and does not truncate, an
        existing CSV when the manifest next to it cannot be created."""
        monkeypatch.setattr(cli, "run_ber", None)  # a campaign would fail with TypeError
        out = tmp_path / "x.csv"
        out.write_text("earlier results\n")
        (tmp_path / "x.csv.manifest").mkdir()
        assert main(["ber", "--config", write_config(tmp_path), "--out", str(out)]) == 3
        assert "x.csv.manifest" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    def test_span_one_ulp_wide_runs(self, tmp_path):
        """A [channel] path-loss span so narrow that log(max) == log(min)
        used to raise ZeroDivisionError out of main."""
        text = with_field("channel", "path_loss_min", "17.0\npath_loss_max = 17.000000000000004")
        out = tmp_path / "x.csv"
        assert main(["ber", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 3

    def test_ber_writes_csv_and_manifest(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        assert main(["ber", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eb_n0_db,detector,bits_sent,bit_errors,ber,ci_halfwidth"
        assert len(lines) == 1 + 2 * 3  # two points, three detectors
        cfg, meta = load_manifest(f"{out}.manifest")
        assert cfg.num_cells == 8
        assert meta["outputs"] == str(out)

    def test_percent_in_out_path_keeps_the_manifest(self, tmp_path):
        """A "%" in the output path is written into the manifest verbatim
        and read back unchanged, with the config."""
        path = write_config(tmp_path)
        out = tmp_path / "run%1.csv"
        assert main(["ber", "--config", path, "--out", str(out)]) == 0
        cfg, meta = load_manifest(f"{out}.manifest")
        assert meta["outputs"] == str(out)
        assert cfg == parse_config_text(BASE_CONFIG)

    def test_ber_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        first = tmp_path / "first.csv"
        assert main(["ber", "--config", path, "--out", str(first)]) == 0
        # the channel draw's thread count does not move the CSV
        for name, extra in (("rerun", []), ("t0", ["--threads", "0"]), ("t2", ["--threads", "2"])):
            out = tmp_path / f"{name}.csv"
            assert main(["ber", "--config", path, "--out", str(out), *extra]) == 0
            assert out.read_bytes() == first.read_bytes(), name

    def test_ber_independent_of_blas_threads(self, tmp_path):
        """Two campaigns write the same CSV with one BLAS thread and with
        OpenBLAS's default count.  In the first, K = 6 at M = 16 and 1000
        observations, the 4096 candidates exceed a block, so the pruned
        search and its LAPACK QR decide them.  The second is
        ``golden_k4``: its 256 candidates fit one block, and every call's
        scoring GEMM, 100 x 37 x 256, is large enough for OpenBLAS to
        thread."""
        text = (BASE_CONFIG.replace("cells = 8", "cells = 16")
                .replace("users = 2", "users = 6")
                .replace("trials_per_point = 6", "trials_per_point = 2")
                .replace("symbols_per_trial = 20", "symbols_per_trial = 1000"))
        src = str(Path(atomris.__file__).resolve().parents[1])
        thread_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        for path in (write_config(tmp_path, text), TestGoldenCampaigns.DATA / "golden_k4.ini"):
            outs = []
            for name, blas_threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
                env = {k: v for k, v in os.environ.items() if k not in thread_vars}
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
                env.update(blas_threads)
                out = tmp_path / f"{name}.csv"
                subprocess.run(
                    [sys.executable, "-m", "atomris.cli", "ber", "--config", str(path),
                     "--out", str(out)],
                    env=env, check=True, timeout=300,
                )
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], path

    def test_grid_split_concatenates_to_full(self, tmp_path):
        full = write_config(tmp_path, name="full.ini")
        lo = write_config(tmp_path, BASE_CONFIG.replace("-26,-22", "-26"), name="lo.ini")
        hi = write_config(tmp_path, BASE_CONFIG.replace("-26,-22", "-22"), name="hi.ini")
        f_out, l_out, h_out = (tmp_path / n for n in ("f.csv", "l.csv", "h.csv"))
        assert main(["ber", "--config", full, "--out", str(f_out)]) == 0
        assert main(["ber", "--config", lo, "--out", str(l_out)]) == 0
        assert main(["ber", "--config", hi, "--out", str(h_out)]) == 0
        full_rows = f_out.read_text().splitlines()
        split_rows = (l_out.read_text().splitlines()[1:]
                      + h_out.read_text().splitlines()[1:])
        assert sorted(full_rows[1:]) == sorted(split_rows)

    def test_calls_in_one_process_write_what_separate_processes_write(
            self, tmp_path, monkeypatch):
        """``main`` builds its parser once per process: three calls in one
        process write the files that three processes write, byte for byte
        (the manifests but for their timestamps)."""
        config = write_config(tmp_path)
        calls = [["ber", "--threads", "2", "--out", "a.csv"],
                 ["convergence", "--out", "trace.csv"],
                 ["ber", "--seed", "5", "--out", "b.csv"]]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(atomris.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
        together, apart = tmp_path / "together", tmp_path / "apart"
        together.mkdir()
        apart.mkdir()
        monkeypatch.chdir(together)
        for args in calls:
            assert main([*args, "--config", config]) == 0
        for args in calls:
            subprocess.run([sys.executable, "-m", "atomris.cli", *args, "--config", config],
                           cwd=apart, env=env, check=True, timeout=300)
        names = sorted(p.name for p in together.iterdir())
        assert names == sorted(p.name for p in apart.iterdir())
        assert names == ["a.csv", "a.csv.manifest", "b.csv", "b.csv.manifest", "trace.csv"]
        for name in names:
            a, b = ([line for line in (d / name).read_text().splitlines()
                     if not line.startswith("timestamp = ")] for d in (together, apart))
            assert a == b, name
        assert cli._build_parser() is cli._build_parser()

    def test_convergence_csv(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "trace.csv"
        assert main(["convergence", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,objective,grad_norm"
        assert len(lines) - 1 <= 100
        assert len(lines) - 1 == 40  # max_iters from the config

    def test_convergence_rerun_identical(self, tmp_path):
        path = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["convergence", "--config", path, "--out", str(a)])
        main(["convergence", "--config", path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["convergence", "--config", path, "--out", str(a)])
        main(["convergence", "--config", path, "--out", str(b), "--seed", "12345"])
        assert a.read_bytes() != b.read_bytes()


class TestOptimizeCommand:
    def test_save_load_reevaluate(self, tmp_path):
        """The saved phases reproduce the recorded objective on
        re-evaluation from the same config and seed."""
        path = write_config(tmp_path)
        out = tmp_path / "phases.txt"
        assert main(["optimize", "--config", path, "--out", str(out)]) == 0
        sol = read_phase_file(out)
        assert sol["ris_elements"] == 16
        assert sol["theta"].shape == (16,)
        assert np.all((sol["theta"] >= 0) & (sol["theta"] < 2 * np.pi))

        ch, b = first_trial(load_config(path))
        rot = np.exp(-1j * np.angle(b))[:, None]
        dephased = ChannelSet(ch.h_ur, rot * ch.h_rv, rot * ch.h_uv)
        j_again = objective(sol["theta"], build_rank_one_cache(dephased), dephased.h_uv)
        assert j_again == pytest.approx(sol["objective"], abs=1e-12)

    def test_no_ris_writes_direct_objective(self, tmp_path):
        text = BASE_CONFIG.replace("ris_elements = 16", "ris_elements = 0")
        path = write_config(tmp_path, text)
        out = tmp_path / "phases.txt"
        assert main(["optimize", "--config", path, "--out", str(out)]) == 0
        sol = read_phase_file(out)
        assert sol["theta"].size == 0

        ch, b = first_trial(load_config(path))
        dephased_h_uv = np.exp(-1j * np.angle(b))[:, None] * ch.h_uv
        assert sol["objective"] == pytest.approx(np.sum(dephased_h_uv.imag**2))

    def test_final_objective_below_initial(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "phases.txt"
        trace_out = tmp_path / "trace.csv"
        main(["optimize", "--config", path, "--out", str(out)])
        main(["convergence", "--config", path, "--out", str(trace_out)])
        sol = read_phase_file(out)
        initial = float(trace_out.read_text().splitlines()[1].split(",")[1])
        assert sol["objective"] < initial

    @pytest.mark.parametrize("offset", [0, 5])
    def test_first_campaign_trial(self, tmp_path, monkeypatch, offset):
        """``optimize``'s phases and ``convergence``'s trace are row 0 of
        the first batch of 8 trials ``run_ber`` aligns: trial
        ``trial_offset``."""
        text = BASE_CONFIG.replace("trials_per_point = 6",
                                   f"trials_per_point = 8\ntrial_offset = {offset}")
        path = write_config(tmp_path, text)
        aligned = []
        align = sim._align

        def recording_align(*args):
            aligned.append(align(*args))
            return aligned[-1]

        with monkeypatch.context() as patch:
            patch.setattr(sim, "_align", recording_align)
            sim.run_ber(load_config(path))
        thetas, trace = aligned[0]
        assert thetas.shape == (8, 16)

        phases, trace_csv = tmp_path / "phases.txt", tmp_path / "trace.csv"
        assert main(["optimize", "--config", path, "--out", str(phases)]) == 0
        assert main(["convergence", "--config", path, "--out", str(trace_csv)]) == 0
        assert np.array_equal(read_phase_file(phases)["theta"], np.mod(thetas[0], 2.0 * np.pi))
        rows = [line.split(",") for line in trace_csv.read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == trace.objective[0].tolist()
        assert [float(r[2]) for r in rows] == trace.grad_norm[0].tolist()


class TestPhaseFile:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        dims=st.tuples(st.integers(1, 10**4), st.integers(0, 10**4), st.integers(1, 64)),
        objective=finite,
        theta=st.lists(finite, max_size=40),
    )
    def test_round_trip(self, seed, dims, objective, theta):
        cfg = SimConfig(num_cells=dims[0], num_elements=dims[1], num_users=dims[2],
                        master_seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "phases.txt"
            save_phase_solution(path, cfg, np.array(theta), objective)
            sol = read_phase_file(path)
        assert (sol["seed"], sol["cells"], sol["ris_elements"], sol["users"]) == (
            seed, *dims)
        assert sol["objective"] == objective
        assert np.array_equal(sol["theta"], np.array(theta))


class TestGoldenCampaigns:
    """Committed ``ber`` outputs: a change to the trial pipeline that moves
    any count fails here.  Each CSV in tests/data is the output of
    ``atomris ber --config <name>.ini``: the reference shape, K = 8 (the
    pruned search), an unnormalized non-default channel and LO
    (``golden_channel_lo``), K = 4 (every call a full search of one
    block), N = 0 (``golden_no_ris``), and ``golden_early_stop``, whose
    points stop on the error target after different batches or at the
    trial cap.  Each is also run with one and two pool workers drawing the
    next batch while the calling thread aligns and detects; in
    ``golden_early_stop`` the look-ahead a stop makes useless is
    discarded.  ``golden_convergence.csv`` and
    ``golden_convergence_phases.txt`` are the ``convergence`` and
    ``optimize`` outputs of ``golden_convergence.ini`` (M = 36, N = 150,
    K = 3, 20 iterations).  All eight were last written when trial
    streams came to be keyed by the trial index alone, so that every
    grid point reads the same trials; the refactors before that, back to
    the optimizer's (2N, M K) stack of rank-one terms, moved no count."""

    DATA = Path(__file__).resolve().parent / "data"

    @pytest.mark.parametrize("name, threads", [
        pytest.param(name, threads, id=name if threads == 1 else f"{name}-threads{threads}")
        for threads in (1, 2, 3)
        for name in ("golden_ref_k3", "golden_detect_k8", "golden_channel_lo", "golden_k4",
                     "golden_no_ris", "golden_early_stop")
    ])
    def test_ber_csv_byte_identical(self, tmp_path, name, threads):
        out = tmp_path / f"{name}.csv"
        assert main(["ber", "--config", str(self.DATA / f"{name}.ini"), "--out", str(out),
                     "--threads", str(threads)]) == 0
        assert out.read_bytes() == (self.DATA / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("command, golden", [
        ("convergence", "golden_convergence.csv"),
        ("optimize", "golden_convergence_phases.txt"),
    ])
    def test_single_trial_output_byte_identical(self, tmp_path, command, golden):
        out = tmp_path / golden
        assert main([command, "--config", str(self.DATA / "golden_convergence.ini"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (self.DATA / golden).read_bytes()
