"""Pipeline configuration: flat ``key = value`` files plus CLI overrides.

Every run echoes its fully-resolved configuration into an
``effective-config.txt`` artifact so any output can be reproduced from the
echo alone.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .corpus import read_text
from .errors import ConfigError, DataError

MODES = ("paper-faithful", "strict-folds")

_COMMENT = re.compile(r"(?:^|\s)#")  # any other '#' is part of the value

# keys whose values are comma-separated lists -> the type of one entry; a
# list of one value is used as it is, a longer one is searched by CV
_LIST_KEYS = {"k": int, "svm_c": float, "svm_gamma": float}


class PipelineConfig(NamedTuple):
    """Every setting of a run. Input only: a run derives no values into it,
    and a changed config is a new one (``_replace``)."""

    association_path: str = ""
    feature_path: str = ""
    dag_path: str = ""
    disease_similarity_path: str = ""
    dataset_name: str = "dataset"
    output_dir: str = "sda_out"
    prepared_dir: str = ""  # reuse MSFS/MDSS/balanced_pairs from this prepare run
    delta: float = 0.5
    gamma_prime_snorna: float = 1.0
    gamma_prime_disease: float = 1.0
    k: tuple = (20,)
    n_trees: int = 10
    learning_rate: float = 0.1
    max_depth: int = 4
    min_samples_leaf: int = 5
    svm_c: tuple = (0.1, 1.0, 10.0, 100.0)
    svm_gamma: tuple = ("1/d", 0.01, 0.1, 1.0)
    svm_tol: float = 1e-3
    svm_max_passes: int = 100
    n_folds: int = 5
    seed: int = 0
    mode: str = "paper-faithful"
    top_k: int = 10
    holdout_fraction: float = 0.1
    strict: bool = False

    def validate(self) -> None:
        for key, value in self._asdict().items():  # the echo must reload each one
            if isinstance(value, str) and (
                _COMMENT.search(value) or value.splitlines() not in ([], [value])
            ):
                raise ConfigError(f"{key}: {value!r} has a line break or '#' after whitespace")
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"delta must be in (0, 1], got {self.delta}")
        gamma_primes = (self.gamma_prime_snorna, self.gamma_prime_disease)
        if not all(map(_finite_positive, gamma_primes)):
            raise ConfigError("gamma_prime values must be positive and finite")
        if not self.k or any(k < 1 for k in self.k):
            raise ConfigError("k entries must be >= 1")
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if not 0 <= self.learning_rate < math.inf:  # also rejects nan
            raise ConfigError("learning_rate must be >= 0 and finite")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        if not self.svm_c or not all(map(_finite_positive, self.svm_c)):
            raise ConfigError("svm_c entries must be positive and finite")
        if not self.svm_gamma:
            raise ConfigError("svm_gamma must be nonempty")
        for g in self.svm_gamma:
            if g == "1/d":
                continue
            if not isinstance(g, float) or not _finite_positive(g):
                raise ConfigError(
                    f"svm_gamma entry must be positive and finite or '1/d', got {g!r}"
                )
        for key in _LIST_KEYS:
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} repeats an entry: {_format_value(values)}")
        if not self.svm_tol > 0:  # also rejects nan
            raise ConfigError("svm_tol must be positive")
        if self.svm_max_passes < 1:
            raise ConfigError("svm_max_passes must be >= 1")
        if self.n_folds < 2:
            raise ConfigError("n_folds must be >= 2")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if not 0.0 < self.holdout_fraction <= 0.5:
            raise ConfigError("holdout_fraction must be in (0, 0.5]")


def _finite_positive(x) -> bool:
    return 0 < x < math.inf  # false for nan


CONFIG_KEYS = PipelineConfig._fields


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _LIST_KEYS:
        entry = _LIST_KEYS[key]
        items = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple("1/d" if key == "svm_gamma" and p == "1/d" else entry(p) for p in items)
    default = PipelineConfig._field_defaults[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got '{raw}'")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; a '#' at the start of a line or
    after whitespace starts a comment."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {exc}") from None
    return values


def load_config(path: str | None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config from an optional file plus override values (flags win)."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            text = read_text(path)
        except DataError as exc:  # the config is usage, not data: exit 1
            raise ConfigError(str(exc)) from None
        values.update(parse_config_text(text, source=path))
    if overrides:
        for key, val in overrides.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key '{key}'")
            try:
                values[key] = _parse_value(key, val) if isinstance(val, str) else val
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}': {exc}") from None
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def effective_config_text(cfg: PipelineConfig) -> str:
    """Every key echoed, defaults included, reloadable as a config file."""
    lines = [f"{key} = {_format_value(getattr(cfg, key))}" for key in CONFIG_KEYS]
    return "\n".join(lines) + "\n"
