"""INI-style configuration files and run manifests.

Campaign configuration is a flat ``key = value`` file with sections
(``[system]``, ``[channel]``, ``[lo]``, ``[adam]``, ``[sim]``).  The three
system dimensions are required; everything else has documented defaults.
The run manifest written next to campaign outputs is the same format plus
a ``[run]`` section (artifact version, ISO-8601 timestamp, output paths)
and round-trips losslessly back into a SimConfig.
"""

from __future__ import annotations

import configparser
import io
from datetime import datetime, timezone

from .channel import LOParams, PhysicalPathParams
from .errors import ConfigError
from .risopt import AdamConfig
from .sim import SimConfig

__all__ = [
    "parse_config_text",
    "load_config",
    "dump_config",
    "default_config_text",
    "write_manifest",
    "load_manifest",
]

_REQUIRED = (("system", "cells"), ("system", "ris_elements"), ("system", "users"))


def _get(parser, section, key, conv, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing required field [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"field [{section}] {key} has invalid value {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_float_list(raw: str) -> tuple[float, ...]:
    items = [tok.strip() for tok in raw.split(",") if tok.strip()]
    return tuple(float(tok) for tok in items)


def _parse_axis(raw: str) -> tuple[float, float, float]:
    vals = _parse_float_list(raw)
    if len(vals) != 3:
        raise ValueError(raw)
    return vals


def _parse_name_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _optional(conv):
    """Wrap a converter so that "none" (or an empty value) parses as None."""

    def parse(raw: str):
        return None if raw.strip().lower() in ("none", "") else conv(raw)

    return parse


def _section(name: str, cls, **fields):
    """Build a parameter type, reporting its range checks as ConfigErrors
    that name the section."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"section [{name}]: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> SimConfig:
    """Parse configuration text into a SimConfig, diagnosing bad fields."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    for section, key in _REQUIRED:
        if not parser.has_option(section, key):
            raise ConfigError(f"missing required field [{section}] {key}")

    defaults = SimConfig()
    channel = _section(
        "channel", PhysicalPathParams,
        num_paths=_get(parser, "channel", "paths", int, defaults.channel.num_paths),
        coupling_gain=_get(parser, "channel", "coupling_gain", float, defaults.channel.coupling_gain),
        dipole_moment=_get(parser, "channel", "dipole_moment", _optional(_parse_axis),
                           defaults.channel.dipole_moment),
        hbar=_get(parser, "channel", "hbar", float, defaults.channel.hbar),
        incidence_axis=_get(parser, "channel", "incidence_axis", _parse_axis,
                            defaults.channel.incidence_axis),
        path_loss_span=(
            _get(parser, "channel", "path_loss_min", float, defaults.channel.path_loss_span[0]),
            _get(parser, "channel", "path_loss_max", float, defaults.channel.path_loss_span[1]),
        ),
        normalize=_get(parser, "channel", "normalize", _parse_bool, defaults.channel.normalize),
    )
    lo = _section(
        "lo", LOParams,
        power=_get(parser, "lo", "power", float, defaults.lo.power),
        reference_symbol=_get(parser, "lo", "reference_symbol", float, defaults.lo.reference_symbol),
        coupling_gain=_get(parser, "lo", "coupling_gain", float, defaults.lo.coupling_gain),
        dipole_moment=_get(parser, "lo", "dipole_moment", _optional(_parse_axis),
                           defaults.lo.dipole_moment),
        hbar=_get(parser, "lo", "hbar", float, defaults.lo.hbar),
        incidence_axis=_get(parser, "lo", "incidence_axis", _parse_axis, defaults.lo.incidence_axis),
        path_loss_span=(
            _get(parser, "lo", "path_loss_min", float, defaults.lo.path_loss_span[0]),
            _get(parser, "lo", "path_loss_max", float, defaults.lo.path_loss_span[1]),
        ),
    )
    adam = _section(
        "adam", AdamConfig,
        max_iters=_get(parser, "adam", "max_iters", int, defaults.adam.max_iters),
        step=_get(parser, "adam", "step", float, defaults.adam.step),
        beta1=_get(parser, "adam", "beta1", float, defaults.adam.beta1),
        beta2=_get(parser, "adam", "beta2", float, defaults.adam.beta2),
        epsilon=_get(parser, "adam", "epsilon", float, defaults.adam.epsilon),
        grad_tol=_get(parser, "adam", "grad_tol", _optional(float),
                      defaults.adam.grad_tol),
    )
    return SimConfig(
        num_cells=_get(parser, "system", "cells", int, required=True),
        num_elements=_get(parser, "system", "ris_elements", int, required=True),
        num_users=_get(parser, "system", "users", int, required=True),
        mod_order=_get(parser, "system", "pam_order", int, defaults.mod_order),
        eb_n0_grid_db=_get(parser, "sim", "eb_n0_grid_db", _parse_float_list,
                           defaults.eb_n0_grid_db),
        trials_per_point=_get(parser, "sim", "trials_per_point", int, defaults.trials_per_point),
        symbols_per_trial=_get(parser, "sim", "symbols_per_trial", int, defaults.symbols_per_trial),
        detectors=_get(parser, "sim", "detectors", _parse_name_list, defaults.detectors),
        channel=channel,
        lo=lo,
        adam=adam,
        master_seed=_get(parser, "sim", "master_seed", int, defaults.master_seed),
        error_target=_get(parser, "sim", "error_target", _optional(int),
                          defaults.error_target),
        trial_offset=_get(parser, "sim", "trial_offset", int, defaults.trial_offset),
        exhaustive_budget=_get(parser, "sim", "exhaustive_budget", int,
                               defaults.exhaustive_budget),
    )


def load_config(path) -> SimConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _axis_str(axis) -> str:
    return ",".join(repr(float(x)) for x in axis)


def _config_parser_from(cfg: SimConfig) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser["system"] = {
        "cells": str(cfg.num_cells),
        "ris_elements": str(cfg.num_elements),
        "users": str(cfg.num_users),
        "pam_order": str(cfg.mod_order),
    }
    ch = cfg.channel
    parser["channel"] = {
        "paths": str(ch.num_paths),
        "coupling_gain": repr(ch.coupling_gain),
        "dipole_moment": "none" if ch.dipole_moment is None else _axis_str(ch.dipole_moment),
        "hbar": repr(ch.hbar),
        "incidence_axis": _axis_str(ch.incidence_axis),
        "path_loss_min": repr(ch.path_loss_span[0]),
        "path_loss_max": repr(ch.path_loss_span[1]),
        "normalize": "true" if ch.normalize else "false",
    }
    lo = cfg.lo
    parser["lo"] = {
        "power": repr(lo.power),
        "reference_symbol": repr(lo.reference_symbol),
        "coupling_gain": repr(lo.coupling_gain),
        "dipole_moment": "none" if lo.dipole_moment is None else _axis_str(lo.dipole_moment),
        "hbar": repr(lo.hbar),
        "incidence_axis": _axis_str(lo.incidence_axis),
        "path_loss_min": repr(lo.path_loss_span[0]),
        "path_loss_max": repr(lo.path_loss_span[1]),
    }
    ad = cfg.adam
    parser["adam"] = {
        "max_iters": str(ad.max_iters),
        "step": repr(ad.step),
        "beta1": repr(ad.beta1),
        "beta2": repr(ad.beta2),
        "epsilon": repr(ad.epsilon),
        "grad_tol": "none" if ad.grad_tol is None else repr(ad.grad_tol),
    }
    parser["sim"] = {
        "eb_n0_grid_db": ",".join(repr(x) for x in cfg.eb_n0_grid_db),
        "trials_per_point": str(cfg.trials_per_point),
        "symbols_per_trial": str(cfg.symbols_per_trial),
        "detectors": ",".join(cfg.detectors),
        "master_seed": str(cfg.master_seed),
        "error_target": "none" if cfg.error_target is None else str(cfg.error_target),
        "trial_offset": str(cfg.trial_offset),
        "exhaustive_budget": str(cfg.exhaustive_budget),
    }
    return parser


def dump_config(cfg: SimConfig) -> str:
    """Render a SimConfig to configuration-file text."""
    parser = _config_parser_from(cfg)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def default_config_text() -> str:
    return dump_config(SimConfig())


def write_manifest(cfg: SimConfig, path, outputs: list[str], version: str) -> None:
    """Write the run manifest: the full config plus run metadata."""
    parser = _config_parser_from(cfg)
    parser["run"] = {
        "artifact_version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": ",".join(outputs),
    }
    with open(path, "w") as fh:
        parser.write(fh)


def load_manifest(path) -> tuple[SimConfig, dict]:
    """Read a manifest back into (SimConfig, run metadata)."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from None
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: manifest missing [run] section")
    meta = dict(parser.items("run"))
    parser.remove_section("run")
    buf = io.StringIO()
    parser.write(buf)
    return parse_config_text(buf.getvalue(), source=str(path)), meta
