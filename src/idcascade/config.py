"""Run configuration: INI-style files with a canonical serialization.

Four sections (model, grid, experiment, output) hold flat key = value
pairs; an unknown section or key is an error.  Serialization is canonical
-- fixed section order, sorted keys, single-space separators -- so parse
-> serialize is a fixpoint on its own output and the config hash is stable
across cosmetic reformatting.
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict

from .levy import AtomicJumps, TabulatedJumps, ZeroJumps, build_model
from .field import GridSpec, truncated_model

# The keys each section may hold, which are the keys the code reads; the
# section order is the canonical serialization order.
_KEYS = {
    "model": ("sigma2", "jump_kind", "atom_locations", "atom_masses",
              "tabulated_x", "tabulated_density", "left_rate", "right_rate",
              "small_jump_cutoff", "substitute_small"),
    "grid": ("levels", "oversample", "cell_levels", "interval_lo",
             "interval_hi"),
    "experiment": ("seed", "replicas", "kind", "chunk", "checks",
                   "normalization_tol", "areas_tol", "areas_count",
                   "star_tol", "ks_p_min", "q_values", "scale_ratios",
                   "n_intervals"),
    "output": ("directory", "formats"),
}
_SECTION_ORDER = tuple(_KEYS)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending section.key."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass
class RunConfig:
    sections: Dict[str, Dict[str, str]] = dc_field(default_factory=dict)

    # -- raw access ---------------------------------------------------------

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def set(self, section, key, value):
        self.sections.setdefault(section, {})[key] = str(value)

    def get_float(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{section}.{key}", "missing required key")
            return default
        return self._floats(section, key, raw, [raw], "a number")[0]

    def get_int(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{section}.{key}", "missing required key")
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}",
                              f"not an integer: {raw!r}") from None

    def get_bool(self, section, key, default=False):
        raw = self.get(section, key)
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key}", f"not a boolean: {raw!r}")

    def get_float_list(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{section}.{key}", "missing required key")
            return list(default)
        return self._floats(section, key, raw,
                            [tok for tok in raw.split(",") if tok.strip()],
                            "a comma list of numbers")

    @staticmethod
    def _floats(section, key, raw, tokens, what):
        """The tokens as finite floats, else a ConfigError naming the key."""
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            raise ConfigError(f"{section}.{key}",
                              f"not {what}: {raw!r}") from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{section}.{key}", f"not finite: {raw!r}")
        return values

    # -- typed views --------------------------------------------------------

    def seed(self):
        s = self.get_int("experiment", "seed", 0)
        if not 0 <= s < 2 ** 64:
            raise ConfigError("experiment.seed",
                              "must be an unsigned 64-bit integer")
        return s

    def _count(self, key, default):
        n = self.get_int("experiment", key, default)
        if n < 1:
            raise ConfigError(f"experiment.{key}", "must be >= 1")
        return n

    def replicas(self):
        return self._count("replicas", 1)

    def chunk(self):
        """Replicas drawn and reduced together."""
        return self._count("chunk", 256)

    def build_model(self):
        """The model every subcommand draws and theorizes: the configured
        one, with its small jumps truncated when small_jump_cutoff is set."""
        sigma2 = self.get_float("model", "sigma2", 0.0)
        if sigma2 < 0:
            raise ConfigError("model.sigma2", "must be nonnegative")
        kind = self.get("model", "jump_kind", "none").strip().lower()
        try:
            if kind in ("none", "zero"):
                nu = ZeroJumps()
            elif kind == "atoms":
                locs = self.get_float_list("model", "atom_locations")
                masses = self.get_float_list("model", "atom_masses")
                nu = AtomicJumps(tuple(locs), tuple(masses))
            elif kind == "tabulated":
                xs = self.get_float_list("model", "tabulated_x")
                ds = self.get_float_list("model", "tabulated_density")
                lr, rr = (None if self.get("model", k) is None
                          else self.get_float("model", k)
                          for k in ("left_rate", "right_rate"))
                nu = TabulatedJumps(tuple(xs), tuple(ds), lr, rr)
            else:
                raise ConfigError("model.jump_kind",
                                  f"unknown kind {kind!r}")
            model = build_model(sigma2, nu)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("model", str(exc)) from exc
        substitute = self.get_bool("model", "substitute_small")
        cutoff = self.small_jump_cutoff()
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
        levels = self.get_int("grid", "levels", 8)
        oversample = self.get_int("grid", "oversample", 4)
        lo = self.get_float("grid", "interval_lo", 0.0)
        hi = self.get_float("grid", "interval_hi", 1.0)
        cl = (None if self.get("grid", "cell_levels") in (None, "all")
              else self.get_int("grid", "cell_levels"))
        try:
            return GridSpec((lo, hi), levels, oversample, cl)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc

    def small_jump_cutoff(self):
        if self.get("model", "small_jump_cutoff") is None:
            return None
        return self.get_float("model", "small_jump_cutoff")

    def output_dir(self):
        return self.get("output", "directory", "out")

    def output_formats(self):
        fmt = self.get("output", "formats", "both").strip().lower()
        if fmt not in ("csv", "json", "both"):
            raise ConfigError("output.formats", f"unknown format {fmt!r}")
        return fmt


def parse_config(text):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("(file)", f"cannot parse: {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTION_ORDER:
            raise ConfigError(section, "unknown section")
        for key, value in parser.items(section):
            if key not in _KEYS[section]:
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
    for section in _SECTION_ORDER:
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
