"""INI-style configuration files and run manifests.

Campaign configuration is a flat ``key = value`` file with sections
(``[system]``, ``[channel]``, ``[lo]``, ``[adam]``, ``[sim]``).  The three
system dimensions are required; everything else has documented defaults.
``_SCHEMA`` lists every legal section and key once: parsing and dumping
both walk it, and any other section or key is a configuration error.
The run manifest written next to campaign outputs is the same format plus
a ``[run]`` section (artifact version, ISO-8601 timestamp, output paths)
and round-trips losslessly back into a SimConfig.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import replace
from datetime import datetime, timezone
from typing import Any, Callable, NamedTuple

from .errors import ConfigError
from .sim import SimConfig

__all__ = [
    "parse_config_text",
    "load_config",
    "dump_config",
    "default_config_text",
    "write_manifest",
    "load_manifest",
]


class _Codec(NamedTuple):
    parse: Callable[[str], Any]
    format: Callable[[Any], str]


def _parse_bool(raw: str) -> bool:
    # true/yes/on/1 and false/no/off/0, in any case; a KeyError otherwise.
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _parse_names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _parse_names(raw))


def _format_floats(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _optional(codec: _Codec) -> _Codec:
    """Extend a codec so that "none" (or an empty value) stands for None."""
    return _Codec(
        lambda raw: None if raw.strip().lower() in ("none", "") else codec.parse(raw),
        lambda value: "none" if value is None else codec.format(value),
    )


_INT = _Codec(int, str)
_FLOAT = _Codec(float, lambda x: repr(float(x)))
_BOOL = _Codec(_parse_bool, lambda b: "true" if b else "false")
_FLOATS = _Codec(_parse_floats, _format_floats)
_NAMES = _Codec(_parse_names, ",".join)


class _Key(NamedTuple):
    """One configuration key: it sets attribute ``attr`` (the key's own name
    when None), or only end ``end`` (0 or 1) of that attribute's pair."""

    name: str
    codec: _Codec
    attr: str | None = None
    end: int | None = None
    required: bool = False

    def get(self, obj):
        value = getattr(obj, self.attr or self.name)
        return value if self.end is None else value[self.end]

    def assign(self, fields: dict, base, value) -> None:
        attr = self.attr or self.name
        if self.end is not None:
            pair = list(fields.get(attr, getattr(base, attr)))
            pair[self.end] = value
            value = tuple(pair)
        fields[attr] = value


# The path-loss keys shared by the channel and LO parameters.
_PATH_LOSS_KEYS = (
    _Key("path_loss_min", _FLOAT, "path_loss_span", 0),
    _Key("path_loss_max", _FLOAT, "path_loss_span", 1),
)

# Every legal section and key, in file order: (section, owner, keys).  The
# owner is the SimConfig field holding the section's parameter object, or
# None when the keys set SimConfig's own fields.
_SCHEMA: tuple[tuple[str, str | None, tuple[_Key, ...]], ...] = (
    ("system", None, (
        _Key("cells", _INT, "num_cells", required=True),
        _Key("ris_elements", _INT, "num_elements", required=True),
        _Key("users", _INT, "num_users", required=True),
        _Key("pam_order", _INT, "mod_order"),
    )),
    ("channel", "channel", (
        _Key("paths", _INT, "num_paths"),
        _Key("coupling_gain", _FLOAT),
        *_PATH_LOSS_KEYS,
        _Key("normalize", _BOOL),
    )),
    ("lo", "lo", (
        _Key("power", _FLOAT),
        *_PATH_LOSS_KEYS,
    )),
    ("adam", "adam", (
        _Key("max_iters", _INT),
        _Key("step", _FLOAT),
        _Key("beta1", _FLOAT),
        _Key("beta2", _FLOAT),
        _Key("epsilon", _FLOAT),
    )),
    ("sim", None, (
        _Key("eb_n0_grid_db", _FLOATS),
        _Key("trials_per_point", _INT),
        _Key("symbols_per_trial", _INT),
        _Key("detectors", _NAMES),
        _Key("master_seed", _INT),
        _Key("error_target", _optional(_INT)),
        _Key("trial_offset", _INT),
        _Key("exhaustive_budget", _INT),
    )),
)


def _read_ini(text: str, source: str) -> configparser.ConfigParser:
    # No section header can name the empty string, so a "[DEFAULT]" in a
    # file is an ordinary (unknown) section rather than keys copied
    # silently into every other section.
    parser = configparser.ConfigParser(default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return parser


def _read_text(path, what: str) -> str:
    try:  # "utf-8-sig" also reads a file that starts with a byte-order mark
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _parse_value(parser, section: str, key: _Key):
    try:
        return key.codec.parse(parser.get(section, key.name))
    except (ValueError, TypeError, KeyError, configparser.Error):
        raw = parser.get(section, key.name, raw=True)
        raise ConfigError(f"field [{section}] {key.name} has invalid value {raw!r}") from None


def _config_from(parser: configparser.ConfigParser, source: str) -> SimConfig:
    known = {section: {key.name for key in keys} for section, _, keys in _SCHEMA}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for name in parser[section]:
            if name not in known[section]:
                raise ConfigError(f"{source}: unknown field [{section}] {name}")

    defaults = SimConfig()
    fields: dict = {}
    for section, owner, keys in _SCHEMA:
        base = defaults if owner is None else getattr(defaults, owner)
        target = fields if owner is None else {}
        for key in keys:
            if parser.has_option(section, key.name):
                key.assign(target, base, _parse_value(parser, section, key))
            elif key.required:
                raise ConfigError(f"missing required field [{section}] {key.name}")
        if owner is not None:
            # The parameter types run their own range checks; name the section.
            try:
                fields[owner] = replace(base, **target)
            except ValueError as exc:
                raise ConfigError(f"section [{section}]: {exc}") from None
    return replace(defaults, **fields)


def parse_config_text(text: str, source: str = "<config>") -> SimConfig:
    """Parse configuration text into a SimConfig, diagnosing bad fields."""
    return _config_from(_read_ini(text, source), source)


def load_config(path) -> SimConfig:
    return parse_config_text(_read_text(path, "config"), source=str(path))


def _config_parser_from(cfg: SimConfig) -> configparser.ConfigParser:
    # Values are written verbatim: an output path may contain "%".
    parser = configparser.ConfigParser(interpolation=None)
    for section, owner, keys in _SCHEMA:
        obj = cfg if owner is None else getattr(cfg, owner)
        parser[section] = {key.name: key.codec.format(key.get(obj)) for key in keys}
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
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_manifest(path) -> tuple[SimConfig, dict]:
    """Read a manifest back into (SimConfig, run metadata)."""
    parser = _read_ini(_read_text(path, "manifest"), str(path))
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: manifest missing [run] section")
    meta = dict(parser.items("run", raw=True))
    parser.remove_section("run")
    return _config_from(parser, str(path)), meta
