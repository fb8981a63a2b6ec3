"""Run configuration: one strict JSON document drives every subcommand.

Unknown keys anywhere in the document are errors so hyperparameter typos
fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from forecast_rl import kernels
from forecast_rl.algorithms import HyperParams
from forecast_rl.data import SyntheticConfig
from forecast_rl.errors import ValidationError
from forecast_rl.reward import PenaltyConfig
from forecast_rl.trainer import EarlyStopConfig, TrainConfig

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
        if self.backend not in ("auto", "numba", "numpy"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        if self.backend == "numba" and not kernels.NUMBA_AVAILABLE:
            raise ValidationError(
                'backend "numba" needs numba, which is not importable here; use "auto" or "numpy"'
            )
        self.data.validate()
        self.train.validate()
        self.hyperparams.validate()
        self.penalties.validate()
        self.evaluation.validate()
        self.trading.validate()

    def to_dict(self) -> dict:
        synth = self.data.synthetic
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "ensemble_size": self.ensemble_size,
            "backend": self.backend,
            "data": {
                "train_path": self.data.train_path,
                "test_path": self.data.test_path,
                "oracle_path": self.data.oracle_path,
                "train_fraction": self.data.train_fraction,
                "synthetic": None
                if synth is None
                else {
                    "n_questions": synth.n_questions,
                    "feature_dim": synth.feature_dim,
                    "temporal_drift": synth.temporal_drift,
                    "market_noise": synth.market_noise,
                },
            },
            "train": {
                "algorithm": self.train.algorithm,
                "outer_iteration_len": self.train.outer_iteration_len,
                "guardrails_enabled": self.train.guardrails_enabled,
                "checkpoint_every": self.train.checkpoint_every,
                "content_length": self.train.content_length,
                "early_stop": {
                    "enabled": self.train.early_stop.enabled,
                    "window": self.train.early_stop.window,
                    "gibberish_threshold": self.train.early_stop.gibberish_threshold,
                    "extreme_mass_threshold": self.train.early_stop.extreme_mass_threshold,
                },
            },
            "hyperparams": {
                "actor_lr": self.hyperparams.actor_lr,
                "kl_coeff": self.hyperparams.kl_coeff,
                "clip_eps": self.hyperparams.clip_eps,
                "group_size": self.hyperparams.group_size,
                "entropy_coeff": self.hyperparams.entropy_coeff,
                "adam_beta1": self.hyperparams.adam_beta1,
                "adam_beta2": self.hyperparams.adam_beta2,
                "adam_eps": self.hyperparams.adam_eps,
                "weight_decay": self.hyperparams.weight_decay,
                "grad_clip_norm": self.hyperparams.grad_clip_norm,
                "baseline_lr": self.hyperparams.baseline_lr,
                "baseline_loss_scale": self.hyperparams.baseline_loss_scale,
                "dpo_beta": self.hyperparams.dpo_beta,
                "dpo_lr": self.hyperparams.dpo_lr,
                "dpo_epochs": self.hyperparams.dpo_epochs,
                "dpo_batch": self.hyperparams.dpo_batch,
            },
            "penalties": {
                "lambda_lang": self.penalties.lambda_lang,
                "lambda_gib": self.penalties.lambda_gib,
                "lambda_miss": self.penalties.lambda_miss,
                "lambda_exp": self.penalties.lambda_exp,
                "input_truncation_chars": self.penalties.input_truncation_chars,
            },
            "evaluation": {
                "n_bins": self.evaluation.n_bins,
                "bootstrap_reps": self.evaluation.bootstrap_reps,
            },
            "trading": {
                "ece_source": self.trading.ece_source,
                "calibration_fraction": self.trading.calibration_fraction,
            },
        }

    def config_hash(self) -> str:
        """Digest of the semantic config.  The output location is
        excluded so reruns into different directories compare equal."""
        doc = self.to_dict()
        doc.pop("output_dir")
        canonical = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _check_keys(section: dict, allowed: set[str], context: str) -> None:
    if not isinstance(section, dict):
        raise ValidationError(f"{context} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown {context} keys: {sorted(unknown)}")


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


def _or_null(caster):
    """The caster of a field where null means "unset" or "off"."""
    return lambda value: None if value is None else caster(value)


def _take(section: dict, obj, fields: dict, context: str) -> None:
    """Assign type-checked values from a config section onto obj."""
    _check_keys(section, set(fields), context)
    for key, caster in fields.items():
        if key in section:
            try:
                value = caster(section[key])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad value for {context}.{key}: {exc}") from exc
            setattr(obj, key, value)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    _check_keys(
        raw,
        {
            "schema_version", "seed", "output_dir", "ensemble_size", "backend",
            "data", "train", "hyperparams", "penalties", "evaluation", "trading",
        },
        "config",
    )
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"config schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    cfg = RunConfig()
    top = {"seed": _json_int, "output_dir": _json_str, "ensemble_size": _json_int, "backend": _json_str}
    _take({k: v for k, v in raw.items() if k in top}, cfg, top, "config")

    data_raw = raw.get("data", {})
    cfg.data = DataConfig()
    _check_keys(
        data_raw,
        {"train_path", "test_path", "oracle_path", "train_fraction", "synthetic"},
        "data",
    )
    _take(
        {k: v for k, v in data_raw.items() if k != "synthetic"},
        cfg.data,
        {
            "train_path": _or_null(_json_str),
            "test_path": _or_null(_json_str),
            "oracle_path": _or_null(_json_str),
            "train_fraction": _json_float,
        },
        "data",
    )
    if data_raw.get("synthetic") is not None:
        if not isinstance(data_raw["synthetic"], dict):
            raise ValidationError("data.synthetic must be a JSON object")
        synth_raw = dict(data_raw["synthetic"])
        synth = SyntheticConfig(n_questions=0, feature_dim=1)
        _take(
            synth_raw,
            synth,
            {
                "n_questions": _json_int,
                "feature_dim": _json_int,
                "temporal_drift": _json_float,
                "market_noise": _or_null(_json_float),
            },
            "data.synthetic",
        )
        cfg.data.synthetic = synth

    if not isinstance(raw.get("train", {}), dict):
        raise ValidationError("train must be a JSON object")
    train_raw = dict(raw.get("train", {}))
    es_raw = train_raw.pop("early_stop", {})
    cfg.train = TrainConfig()
    _take(
        train_raw,
        cfg.train,
        {
            "algorithm": _json_str,
            "outer_iteration_len": _json_int,
            "guardrails_enabled": _json_bool,
            "checkpoint_every": _json_int,
            "content_length": _json_int,
        },
        "train",
    )
    cfg.train.early_stop = EarlyStopConfig()
    _take(
        es_raw,
        cfg.train.early_stop,
        {
            "enabled": _json_bool,
            "window": _json_int,
            "gibberish_threshold": _json_float,
            "extreme_mass_threshold": _json_float,
        },
        "train.early_stop",
    )

    cfg.hyperparams = HyperParams()
    _take(
        raw.get("hyperparams", {}),
        cfg.hyperparams,
        {
            "actor_lr": _or_null(_json_float), "kl_coeff": _json_float, "clip_eps": _json_float,
            "group_size": _json_int, "entropy_coeff": _json_float,
            "adam_beta1": _json_float, "adam_beta2": _json_float, "adam_eps": _json_float,
            "weight_decay": _json_float, "grad_clip_norm": _json_float,
            "baseline_lr": _json_float, "baseline_loss_scale": _json_float,
            "dpo_beta": _json_float, "dpo_lr": _json_float, "dpo_epochs": _json_int, "dpo_batch": _json_int,
        },
        "hyperparams",
    )
    cfg.penalties = PenaltyConfig()
    _take(
        raw.get("penalties", {}),
        cfg.penalties,
        {
            "lambda_lang": _json_float, "lambda_gib": _json_float, "lambda_miss": _json_float,
            "lambda_exp": _json_float, "input_truncation_chars": _json_int,
        },
        "penalties",
    )
    cfg.evaluation = EvalConfig()
    _take(raw.get("evaluation", {}), cfg.evaluation, {"n_bins": _json_int, "bootstrap_reps": _json_int}, "evaluation")
    cfg.trading = TradingConfig()
    _take(
        raw.get("trading", {}),
        cfg.trading,
        {"ece_source": _json_str, "calibration_fraction": _json_float},
        "trading",
    )
    cfg.train.seed = cfg.seed
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
