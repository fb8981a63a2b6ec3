"""Run configuration: one strict JSON document drives every subcommand.

Each key is a field of its section's dataclass, and each field a key: a
section holds nothing a config document cannot set.  Sections are read and
written by one walk over the fields that casts each value by its type hint.
Unknown keys anywhere in the document are errors so hyperparameter typos
fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from forecast_rl.algorithms import HyperParams
from forecast_rl.data import SyntheticConfig
from forecast_rl.errors import ValidationError
from forecast_rl.files import read_json, write_json
from forecast_rl.reward import PenaltyConfig
from forecast_rl.trainer import BACKENDS, TrainConfig

SCHEMA_VERSION = 1


@dataclass
class DataConfig:
    train_path: str | None = None
    test_path: str | None = None
    oracle_path: str | None = None
    synthetic: SyntheticConfig | None = None
    train_fraction: float = 0.5

    def validate(self) -> None:
        if not (0.0 < self.train_fraction < 1.0):
            raise ValidationError("train_fraction must lie in (0, 1)")
        if self.synthetic is not None:
            self.synthetic.validate()


@dataclass
class EvalConfig:
    n_bins: int = 10
    bootstrap_reps: int = 9999

    def validate(self) -> None:
        if self.n_bins < 1:
            raise ValidationError("n_bins must be >= 1")
        if self.bootstrap_reps < 1:
            raise ValidationError("bootstrap_reps must be >= 1")


@dataclass
class TradingConfig:
    ece_source: str = "calibration_split"
    calibration_fraction: float = 0.5

    def validate(self) -> None:
        if self.ece_source not in ("calibration_split", "in_sample"):
            raise ValidationError(f"unknown ece_source {self.ece_source!r}")
        if not (0.0 < self.calibration_fraction < 1.0):
            raise ValidationError("calibration_fraction must lie in (0, 1)")


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: str = "out"
    ensemble_size: int = 1
    backend: str = "auto"
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    hyperparams: HyperParams = field(default_factory=HyperParams)
    penalties: PenaltyConfig = field(default_factory=PenaltyConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    trading: TradingConfig = field(default_factory=TradingConfig)

    def validate(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.ensemble_size < 1:
            raise ValidationError("ensemble_size must be >= 1")
        if self.backend not in BACKENDS:
            raise ValidationError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        self.data.validate()
        self.train.validate()
        self.hyperparams.validate()
        self.penalties.validate()
        self.evaluation.validate()
        self.trading.validate()

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **_to_json(self)}

    def config_hash(self) -> str:
        """Digest of the semantic config.  The output location is
        excluded so reruns into different directories compare equal."""
        doc = self.to_dict()
        doc.pop("output_dir")
        canonical = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _json_int(value) -> int:
    """A JSON integer as is: no truncated floats, numeric strings or booleans."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_float(value) -> float:
    """A finite JSON number as a float: integers widen; strings, booleans and
    the NaN / Infinity that Python's json reads are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _json_bool(value) -> bool:
    """A JSON boolean as is: the string "false" would otherwise read as True."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _json_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


_CASTERS = {int: _json_int, float: _json_float, bool: _json_bool, str: _json_str}


@functools.cache
def _config_fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, type hint, required) of each field of a config section: its
    config keys."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)
    )


def _to_json(section) -> dict:
    """The section as a JSON object.  A float field holds a float even when
    it was set to an int, so the document, and `config_hash`, are those of
    the config that `parse_config` reads back."""
    doc = {}
    for name, hint, _ in _config_fields(type(section)):
        value = getattr(section, name)
        if is_dataclass(value):
            value = _to_json(value)
        elif value is not None and float in (hint, *typing.get_args(hint)):
            value = float(value)
        doc[name] = value
    return doc


def _from_json(raw, cls, context: str):
    """Build the section `cls` from its JSON object, casting each value by its
    field's type hint; `context` names the section in error messages."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{context} must be a JSON object")
    config_fields = _config_fields(cls)
    unknown = set(raw) - {name for name, _, _ in config_fields}
    if unknown:
        raise ValidationError(f"unknown {context} keys: {sorted(unknown)}")
    values = {}
    for name, hint, required in config_fields:
        key = f"{context}.{name}"
        if name not in raw:
            if required:
                raise ValidationError(f"missing {key}")
            continue
        value = raw[name]
        if type(None) in typing.get_args(hint):
            if value is None:
                values[name] = None
                continue
            (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if is_dataclass(hint):
            # Sections of the root are named bare: "data", not "config.data".
            values[name] = _from_json(value, hint, name if cls is RunConfig else key)
            continue
        try:
            values[name] = _CASTERS[hint](value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad value for {key}: {exc}") from exc
    return cls(**values)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")
    cfg = _from_json({k: v for k, v in raw.items() if k != "schema_version"}, RunConfig, "config")
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return parse_config(read_json(path))
