"""Command-line entry points: ``optimize``, ``ber``, ``convergence``.

Each command reads an INI configuration file (see ``--dump-defaults``),
runs deterministically from the configured seed, and writes CSV or
structured text.  Exit codes: 0 success, 2 configuration error or a
channel too weak for least squares, 3 I/O failure (an output that cannot
be created is found before any trial runs), 4 cost-budget refusal or a
run that needs more memory than the machine has.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import default_config_text, load_config, write_manifest
from .errors import BudgetExceededError, ConfigError, SingularMatrixError
from .risopt import build_rank_one_cache, objective
from .sim import SimConfig, run_ber, run_convergence, validate_config, write_records_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BUDGET = 4

_PHASE_FILE_MAGIC = "# atomris-phase-solution v1"


# Built once per process, which may call ``main`` many times.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomris",
        description="RIS-assisted atomic MIMO receiver experiments",
    )
    parser.add_argument("--version", action="version", version=f"atomris {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("optimize", "align the campaign's first trial and write its phases"),
        ("ber", "run a Monte-Carlo BER campaign"),
        ("convergence", "record the optimizer's per-iteration objective on that trial"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="configuration file path")
        cmd.add_argument("--out", help="output file path")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument("--dump-defaults", action="store_true",
                         help="print the default configuration and exit")
        if name == "ber":
            cmd.add_argument("--threads", type=int, default=1,
                             help="N >= 2, or 0 on a machine with two or more CPUs, starts one "
                                  "worker that draws the next batch's trials while the calling "
                                  "thread aligns and detects; the CSV does not depend on it.  It "
                                  "gains 1.3-1.4x at M = 36, K = 3 over many batches, and nothing "
                                  "on a call of one batch (8 trials) or at K = 8 (README, the "
                                  "table under 'CLI').  For more cores, see README, 'Spreading a "
                                  "campaign over processes'")
    return parser


def _load(args) -> SimConfig:
    if not args.config:
        raise ConfigError("--config is required")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    validate_config(cfg)
    return cfg


def save_phase_solution(path, cfg: SimConfig, theta: np.ndarray, final_objective: float) -> None:
    """Structured text: seed, dimensions, final objective, one phase per line."""
    lines = [
        _PHASE_FILE_MAGIC,
        f"seed = {cfg.master_seed}",
        f"cells = {cfg.num_cells}",
        f"ris_elements = {cfg.num_elements}",
        f"users = {cfg.num_users}",
        f"objective = {final_objective!r}",
        "theta =",
    ]
    lines.extend(repr(float(t)) for t in theta)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_writable(path) -> None:
    """Raise OSError now if ``path`` cannot be created, rather than after
    the run.  An existing file is opened for appending, so it keeps its
    contents; a file created here is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def cmd_optimize(cfg: SimConfig, out_path: str) -> int:
    dephased, theta, _ = run_convergence(cfg)
    theta = np.mod(theta, 2.0 * np.pi)
    final = float(objective(theta, build_rank_one_cache(dephased), dephased.h_uv))
    save_phase_solution(out_path, cfg, theta, final)
    return EXIT_OK


def cmd_convergence(cfg: SimConfig, out_path: str) -> int:
    _, _, trace = run_convergence(cfg)
    lines = ["iter,objective,grad_norm"]
    for i in range(len(trace)):
        lines.append(f"{i},{float(trace.objective[i])!r},{float(trace.grad_norm[i])!r}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ber(cfg: SimConfig, out_path: str, threads: int) -> int:
    records = run_ber(cfg, threads)
    write_records_csv(records, out_path)
    write_manifest(cfg, f"{out_path}.manifest", [str(out_path)], __version__)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.dump_defaults:
        sys.stdout.write(default_config_text())
        return EXIT_OK
    cfg = None
    try:
        cfg = _load(args)
        if not args.out:
            raise ConfigError("--out is required")
        _check_writable(args.out)
        if args.command == "ber":
            _check_writable(f"{args.out}.manifest")
        if args.command == "optimize":
            return cmd_optimize(cfg, args.out)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.out)
        return cmd_ber(cfg, args.out, args.threads)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # Sizes numpy can shape but the machine cannot hold, such as the
        # full search over every Q^K candidate that exhaustive_budget admits.
        sizes = "" if cfg is None else (
            f" at M = {cfg.num_cells}, N = {cfg.num_elements}, K = {cfg.num_users}, "
            f"Q^K = {cfg.mod_order}^{cfg.num_users} = {cfg.mod_order**cfg.num_users}"
            "; lower the sizes or [sim] exhaustive_budget")
        print(f"error: out of memory{sizes}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
