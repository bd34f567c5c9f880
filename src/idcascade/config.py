"""Run configuration: INI-style files with a canonical serialization.

Four sections (model, grid, experiment, output) hold flat key = value
pairs; an unknown section or key is an error.  KEYS declares each key's
parser, default and bound once (RunConfig.value, RunConfig.check).
Serialization is canonical -- fixed section order, sorted keys,
single-space separators -- so parse -> serialize is a fixpoint on its own
output and the config hash is stable across cosmetic reformatting.
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict

from .checks import VERIFY
from .levy import AtomicJumps, TabulatedJumps, ZeroJumps, build_model
from .field import GridSpec, truncated_model


class ConfigError(ValueError):
    """Invalid configuration; carries the offending section.key."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


# -- parsers: (section.key, raw string) -> value, else a ConfigError -------


def _floats(name, raw, tokens, what):
    """The tokens as finite floats, else a ConfigError naming the key."""
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(name, f"not {what}: {raw!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(name, f"not finite: {raw!r}")
    return values


def _number(name, raw):
    return _floats(name, raw, [raw], "a number")[0]


def _numbers(name, raw):
    tokens = [tok for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError(name, "needs at least one number")
    return _floats(name, raw, tokens, "a comma list of numbers")


def _integer(name, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(name, f"not an integer: {raw!r}") from None


def _boolean(name, raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(name, f"not a boolean: {raw!r}")


def _string(name, raw):
    return raw


def _bounded(parse, holds, message):
    """parse, then a ConfigError with message unless holds(value)."""
    def parse_bounded(name, raw):
        value = parse(name, raw)
        if not holds(value):
            raise ConfigError(name, message)
        return value
    return parse_bounded


def _at_least(low):
    return _bounded(_integer, lambda n: n >= low, f"must be >= {low}")


def _choice(noun, names):
    def parse_choice(name, raw):
        low = raw.strip().lower()
        if low not in names:
            raise ConfigError(name, f"unknown {noun} {low!r}")
        return low
    return parse_choice


FORMATS = ("csv", "json", "both")
# The estimate experiments, each run by the function of its name in cli:
# _estimate_<kind>(cfg, model, grid) returns the report's (fields,
# columns, rows), which cmd_estimate writes to <kind>.json and
# <kind>.csv.  The verify checks are checks.VERIFY's names: "default"
# selects every check, in that order, and "none" or nothing selects none.
EXPERIMENTS = ("moments", "tail", "scaling", "covariance")


def _checks(name, raw):
    raw = raw.strip()
    if raw == "default":
        return list(VERIFY)
    names = ([] if raw == "none" else
             [tok.strip() for tok in raw.split(",") if tok.strip()])
    for check in names:
        if check not in VERIFY:
            raise ConfigError(name, f"unknown check {check!r}")
    return names


# Every key each section may hold: (parser, default as it would be
# written in the file, or None for unset).  The section order is the
# canonical serialization order.  Rules across keys (a jump kind's
# parameters, the interval's order, a cutoff's use) are build_model's and
# build_grid's; q_values has no default here because its default depends
# on experiment.kind.
KEYS = {
    "model": {
        "sigma2": (_bounded(_number, lambda s: s >= 0, "must be nonnegative"),
                   "0"),
        "jump_kind": (_choice("kind", ("none", "atoms", "tabulated")), "none"),
        "atom_locations": (_numbers, None),
        "atom_masses": (_numbers, None),
        "tabulated_x": (_numbers, None),
        "tabulated_density": (_numbers, None),
        "left_rate": (_number, None),
        "right_rate": (_number, None),
        "small_jump_cutoff": (_number, None),
        "substitute_small": (_boolean, "false"),
    },
    "grid": {
        "levels": (_at_least(1), "8"),
        "oversample": (_at_least(1), "4"),
        "interval_lo": (_number, "0"),
        "interval_hi": (_number, "1"),
    },
    "experiment": {
        "seed": (_bounded(_integer, lambda s: 0 <= s < 2 ** 64,
                          "must be an unsigned 64-bit integer"), "0"),
        "replicas": (_at_least(1), "1"),
        "kind": (_choice("experiment", EXPERIMENTS), "moments"),
        "checks": (_checks, "default"),
        "ks_p_min": (_number, "0.01"),
        "q_values": (_numbers, None),
        "scale_ratios": (_bounded(_numbers, lambda v: len(set(v)) >= 2,
                                  "needs at least two distinct ratios"),
                         "0.5, 0.25, 0.125, 0.0625"),
        "n_intervals": (_at_least(2), "4"),
    },
    "output": {
        "directory": (_string, "out"),
        "formats": (_choice("format", FORMATS), "both"),
    },
}


@dataclass
class RunConfig:
    sections: Dict[str, Dict[str, str]] = dc_field(default_factory=dict)

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def set(self, section, key, value):
        self.sections.setdefault(section, {})[key] = str(value)

    def value(self, section, key):
        """The key parsed by its KEYS parser, from its default when unset;
        None when it is unset and has no default."""
        parse, default = KEYS[section][key]
        raw = self.get(section, key, default)
        return None if raw is None else parse(f"{section}.{key}", raw)

    def check(self):
        """Parse every key, set or default, then build the run's (model,
        grid): a ConfigError names the first bad key."""
        for section, keys in KEYS.items():
            for key in keys:
                self.value(section, key)
        return self.build_model(), self.build_grid()

    def build_model(self):
        """The model every subcommand draws and theorizes: the configured
        one, with its small jumps truncated when small_jump_cutoff is set."""
        def required(key):
            v = self.value("model", key)
            if v is None:
                raise ConfigError(f"model.{key}", "missing required key")
            return tuple(v)

        kind = self.value("model", "jump_kind")
        try:
            if kind == "none":
                nu = ZeroJumps()
            elif kind == "atoms":
                nu = AtomicJumps(required("atom_locations"),
                                 required("atom_masses"))
            else:
                nu = TabulatedJumps(required("tabulated_x"),
                                    required("tabulated_density"),
                                    self.value("model", "left_rate"),
                                    self.value("model", "right_rate"))
            model = build_model(self.value("model", "sigma2"), nu)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("model", str(exc)) from exc
        substitute = self.value("model", "substitute_small")
        cutoff = self.value("model", "small_jump_cutoff")
        if cutoff is None and substitute:
            raise ConfigError("model.substitute_small",
                              "needs model.small_jump_cutoff")
        if cutoff is None:
            return model
        try:
            return truncated_model(model, cutoff, substitute)
        except ValueError as exc:
            raise ConfigError("model.small_jump_cutoff", str(exc)) from exc

    def build_grid(self):
        """The grid's points alone, as every batch draws them."""
        v = {key: self.value("grid", key) for key in KEYS["grid"]}
        if not v["interval_lo"] < v["interval_hi"]:
            raise ConfigError("grid.interval_hi",
                              "must exceed grid.interval_lo")
        return GridSpec((v["interval_lo"], v["interval_hi"]),
                        v["levels"], v["oversample"], 0)


def parse_config(text):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("(file)", f"cannot parse: {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(section, "unknown section")
        for key, value in parser.items(section):
            if key not in KEYS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
            cfg.set(section, key, value.strip())
    return cfg


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg):
    """Canonical text form: fixed section order, sorted keys."""
    out = io.StringIO()
    first = True
    for section in KEYS:
        if section not in cfg.sections or not cfg.sections[section]:
            continue
        if not first:
            out.write("\n")
        first = False
        out.write(f"[{section}]\n")
        for key in sorted(cfg.sections[section]):
            out.write(f"{key} = {cfg.sections[section][key]}\n")
    return out.getvalue()


def config_hash(cfg):
    """Stable 16-hex-digit digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
