import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forecast_rl.algorithms import ALGORITHMS, HyperParams
from forecast_rl.config import (
    DataConfig,
    RunConfig,
    SCHEMA_VERSION,
    load_config,
    parse_config,
)
from forecast_rl.data import SyntheticConfig
from forecast_rl.errors import ValidationError

FULL_RAW = {
    "schema_version": 1,
    "seed": 7,
    "output_dir": "runs/a",
    "ensemble_size": 3,
    "backend": "numpy",
    "data": {
        "train_fraction": 0.6,
        "synthetic": {"n_questions": 50, "feature_dim": 3, "temporal_drift": 0.01,
                      "market_noise": 0.4},
    },
    "train": {
        "algorithm": "grpo",
        "outer_iteration_len": 100,
        "guardrails_enabled": False,
        "checkpoint_every": 25,
        "content_length": 6,
        "early_stop": {"enabled": True, "window": 50, "gibberish_threshold": 0.4,
                       "extreme_mass_threshold": 0.8},
    },
    "hyperparams": {"actor_lr": 2e-6, "kl_coeff": 0.01, "group_size": 8},
    "penalties": {"lambda_gib": 0.5},
    "evaluation": {"n_bins": 5, "bootstrap_reps": 100},
    "trading": {"ece_source": "in_sample", "calibration_fraction": 0.3},
}


class TestParse:
    def test_minimal_document_gives_defaults(self):
        cfg = parse_config({"schema_version": 1})
        assert cfg.seed == 0
        assert cfg.backend == "auto"
        assert cfg.ensemble_size == 1
        assert cfg.train.algorithm == "remax"
        assert cfg.hyperparams.actor_lr is None
        assert cfg.penalties.lambda_lang == 0.3
        assert cfg.data.synthetic is None
        assert cfg.evaluation.bootstrap_reps == 9999

    def test_full_document(self):
        cfg = parse_config(json.loads(json.dumps(FULL_RAW)))
        assert cfg.seed == 7
        assert cfg.train.algorithm == "grpo"
        assert cfg.train.early_stop.window == 50
        assert cfg.hyperparams.group_size == 8
        assert cfg.hyperparams.kl_coeff == 0.01
        assert cfg.hyperparams.clip_eps == 0.2  # untouched default
        assert cfg.data.synthetic.n_questions == 50
        assert cfg.data.synthetic.market_noise == 0.4
        assert cfg.penalties.lambda_gib == 0.5
        assert cfg.trading.ece_source == "in_sample"

    def test_round_trip_is_stable(self):
        cfg = parse_config(json.loads(json.dumps(FULL_RAW)))
        again = parse_config(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_schema_version_required_and_checked(self):
        with pytest.raises(ValidationError, match="schema_version"):
            parse_config({})
        with pytest.raises(ValidationError, match="schema_version"):
            parse_config({"schema_version": 2})
        with pytest.raises(ValidationError, match="schema_version"):
            parse_config({"schema_version": "1"})
        with pytest.raises(ValidationError, match="schema_version"):
            parse_config({"schema_version": True})
        with pytest.raises(ValidationError, match="schema_version"):
            parse_config({"schema_version": 1.0})

    @pytest.mark.parametrize(
        "raw, context",
        [
            ({"schema_version": 1, "seeed": 3}, "config"),
            ({"schema_version": 1, "data": {"path": "x"}}, "data"),
            ({"schema_version": 1,
              "data": {"synthetic": {"n_questions": 5, "feature_dim": 2, "noise": 1}}},
             "data.synthetic"),
            ({"schema_version": 1, "train": {"algo": "remax"}}, "train"),
            ({"schema_version": 1, "train": {"early_stop": {"windw": 5}}},
             "train.early_stop"),
            ({"schema_version": 1, "hyperparams": {"lr": 1e-6}}, "hyperparams"),
            ({"schema_version": 1, "penalties": {"lambda_tok": 0.1}}, "penalties"),
            ({"schema_version": 1, "evaluation": {"bins": 10}}, "evaluation"),
            ({"schema_version": 1, "trading": {"gate": "x"}}, "trading"),
            # The program passes the seeds and latent weights as arguments; they are not keys.
            ({"schema_version": 1, "data": {"synthetic": {"n_questions": 5, "feature_dim": 2,
                                                          "latent_weights": [1.0, 2.0]}}},
             "data.synthetic"),
            ({"schema_version": 1, "data": {"synthetic": {"n_questions": 5, "feature_dim": 2, "seed": 1}}},
             "data.synthetic"),
            ({"schema_version": 1, "train": {"seed": 1}}, "train"),
            ({"schema_version": 1, "train": {"member": 1}}, "train"),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, raw, context):
        with pytest.raises(ValidationError, match=f"unknown {context} keys"):
            parse_config(raw)

    def test_non_object_sections_rejected(self):
        with pytest.raises(ValidationError, match="JSON object"):
            parse_config([1, 2])
        with pytest.raises(ValidationError, match="train must be a JSON object"):
            parse_config({"schema_version": 1, "train": 3})
        with pytest.raises(ValidationError, match="data.synthetic must be a JSON object"):
            parse_config({"schema_version": 1, "data": {"synthetic": [1]}})
        with pytest.raises(ValidationError, match="train.early_stop must be a JSON object"):
            parse_config({"schema_version": 1, "train": {"early_stop": None}})

    def test_bad_value_reports_the_key(self):
        raw = {"schema_version": 1, "hyperparams": {"group_size": "many"}}
        with pytest.raises(ValidationError, match="hyperparams.group_size"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "patch",
        [
            {"ensemble_size": 0},
            {"backend": "gpu"},
            {"data": {"train_fraction": 1.0}},
            {"train": {"algorithm": "ppo"}},
            {"train": {"early_stop": {"window": 0}}},
            {"evaluation": {"n_bins": 0}},
            {"trading": {"ece_source": "holdout"}},
            {"hyperparams": {"clip_eps": -0.1}},
            {"data": {"synthetic": {"n_questions": 10, "feature_dim": 0}}},
        ],
    )
    def test_semantic_validation_runs_after_parse(self, patch):
        raw = {"schema_version": 1}
        raw.update(patch)
        with pytest.raises(ValidationError):
            parse_config(raw)

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"train": {"guardrails_enabled": "false"}}, "train.guardrails_enabled"),
            ({"train": {"early_stop": {"enabled": 0}}}, "train.early_stop.enabled"),
            ({"train": {"guardrails_enabled": None}}, "train.guardrails_enabled"),
            ({"seed": "abc"}, "config.seed"),
            ({"seed": 7.9}, "config.seed"),
            ({"seed": True}, "config.seed"),
            ({"seed": -3}, "seed"),
            ({"ensemble_size": 2.0}, "config.ensemble_size"),
            ({"data": {"synthetic": {"n_questions": 20.7, "feature_dim": 2}}}, "data.synthetic.n_questions"),
            ({"hyperparams": {"group_size": True}}, "hyperparams.group_size"),
            ({"hyperparams": {"actor_lr": "0.01"}}, "hyperparams.actor_lr"),
            ({"data": {"train_fraction": "0.5"}}, "data.train_fraction"),
            ({"evaluation": {"n_bins": None}}, "evaluation.n_bins"),
            ({"output_dir": 5}, "config.output_dir"),
            ({"data": {"synthetic": {"n_questions": 5, "feature_dim": 2, "temporal_drift": float("nan")}}},
             "data.synthetic.temporal_drift"),
            ({"hyperparams": {"grad_clip_norm": float("inf")}}, "hyperparams.grad_clip_norm"),
        ],
    )
    def test_values_are_not_coerced(self, patch, field):
        raw = {"schema_version": 1}
        raw.update(patch)
        with pytest.raises(ValidationError, match=field.replace(".", r"\.")):
            parse_config(raw)

    def test_none_is_preserved_not_cast(self):
        cfg = parse_config({"schema_version": 1, "hyperparams": {"actor_lr": None}})
        assert cfg.hyperparams.actor_lr is None
        cfg = parse_config({"schema_version": 1, "data": {
            "train_path": None, "synthetic": {"n_questions": 5, "feature_dim": 2, "market_noise": None}}})
        assert cfg.data.train_path is None and cfg.data.synthetic.market_noise is None


class TestHashAndSave:
    def test_hash_ignores_output_dir(self):
        a = parse_config({"schema_version": 1, "output_dir": "x"})
        b = parse_config({"schema_version": 1, "output_dir": "y"})
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_semantic_fields(self):
        base = parse_config({"schema_version": 1})
        assert base.config_hash() == parse_config({"schema_version": 1}).config_hash()
        for patch in ({"seed": 1}, {"hyperparams": {"kl_coeff": 0.1}},
                      {"train": {"algorithm": "grpo"}}):
            raw = {"schema_version": 1}
            raw.update(patch)
            assert parse_config(raw).config_hash() != base.config_hash()

    def test_hash_is_stable_across_releases(self):
        # Digests written by earlier releases, which cast values loosely;
        # integers given for float fields still hash as floats.
        assert parse_config(json.loads(json.dumps(FULL_RAW))).config_hash() == (
            "b84150438f044218e54e7b8ad6f60854860bfaa1812443e32a13463bdc690b62"
        )
        assert parse_config({"schema_version": 1}).config_hash() == (
            "f49c00df0ab76dd6a32499161386ff8ef5113fa57704b1c7672a9bb50fee71c9"
        )
        ints = {"schema_version": 1, "data": {"synthetic": {"n_questions": 9, "feature_dim": 2,
                                                            "temporal_drift": 0, "market_noise": 1}},
                "hyperparams": {"actor_lr": 1, "kl_coeff": 0}}
        assert parse_config(ints).config_hash() == "724ee24e016ee4b3f8569f839b6383ecae46b54a6249674a87775993818d4fe1"

    def test_python_built_config_hashes_like_its_loaded_copy(self, tmp_path):
        """Integers set from Python in float fields are written as floats,
        as `parse_config` reads them back."""
        cfg = RunConfig(data=DataConfig(synthetic=SyntheticConfig(10, 2, temporal_drift=0, market_noise=1)),
                        hyperparams=HyperParams(actor_lr=1, kl_coeff=0))
        cfg.save(tmp_path / "run.json")
        loaded = load_config(tmp_path / "run.json")
        assert loaded == cfg
        assert loaded.config_hash() == cfg.config_hash()
        assert cfg.to_dict()["hyperparams"]["actor_lr"] == 1.0
        assert type(cfg.to_dict()["data"]["synthetic"]["temporal_drift"]) is float

    def test_hash_is_a_sha256_hex_digest(self):
        h = RunConfig().config_hash()
        assert len(h) == 64 and int(h, 16) >= 0

    def test_save_load_round_trip(self, tmp_path):
        cfg = parse_config(json.loads(json.dumps(FULL_RAW)))
        path = tmp_path / "cfg" / "run.json"
        cfg.save(path)
        loaded = load_config(path)
        assert loaded.to_dict() == cfg.to_dict()
        assert loaded.config_hash() == cfg.config_hash()

    def test_saved_document_is_schema_stamped_json(self, tmp_path):
        path = tmp_path / "run.json"
        RunConfig().save(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_config(path)


def test_readme_quickstart_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quickstart = readme[readme.index("## Quickstart"):]
    block = re.search(r"```json\n(.*?)```", quickstart, re.S).group(1)
    cfg = parse_config(json.loads(block))
    assert cfg.data.synthetic is not None and cfg.train.algorithm == "remax"


# Every key a config document may set, with a strategy for its valid values.
# Float fields also draw JSON integers, which parse as floats.
NONNEG = st.floats(0.0, 1e6) | st.integers(0, 10**6)
POSITIVE = st.floats(1e-12, 1e6) | st.integers(1, 10**6)
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
HALF_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True) | st.just(1)
PATH = st.none() | st.text(max_size=8)
SYNTHETIC = {
    "n_questions": st.integers(0, 10**6),
    "feature_dim": st.integers(1, 64),
    "temporal_drift": NONNEG,
    "market_noise": st.none() | st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6),
}
SCHEMA = {
    "seed": st.integers(0, 2**63 - 1),
    "output_dir": st.text(max_size=8),
    "ensemble_size": st.integers(1, 64),
    "backend": st.sampled_from(["auto", "numpy"]),
    "data": {
        "train_path": PATH,
        "test_path": PATH,
        "oracle_path": PATH,
        "train_fraction": OPEN_UNIT,
        "synthetic": st.none() | st.fixed_dictionaries(
            {k: SYNTHETIC[k] for k in ("n_questions", "feature_dim")},
            optional={k: SYNTHETIC[k] for k in ("temporal_drift", "market_noise")},
        ),
    },
    "train": {
        "algorithm": st.sampled_from(ALGORITHMS),
        "outer_iteration_len": st.integers(1, 10**6),
        "guardrails_enabled": st.booleans(),
        "checkpoint_every": st.integers(0, 10**6),
        "content_length": st.integers(1, 64),
        "early_stop": {
            "enabled": st.booleans(),
            "window": st.integers(1, 10**6),
            "gibberish_threshold": HALF_OPEN_UNIT,
            "extreme_mass_threshold": HALF_OPEN_UNIT,
        },
    },
    "hyperparams": {
        "actor_lr": st.none() | NONNEG,
        "kl_coeff": NONNEG,
        "clip_eps": OPEN_UNIT,
        "group_size": st.integers(1, 64),
        "entropy_coeff": NONNEG,
        "adam_beta1": OPEN_UNIT,
        "adam_beta2": OPEN_UNIT,
        "adam_eps": POSITIVE,
        "weight_decay": NONNEG,
        "grad_clip_norm": POSITIVE,
        "baseline_lr": NONNEG,
        "baseline_loss_scale": NONNEG,
        "dpo_beta": POSITIVE,
        "dpo_lr": NONNEG,
        "dpo_epochs": st.integers(1, 64),
        "dpo_batch": st.integers(1, 1024),
    },
    "penalties": {
        "lambda_lang": NONNEG,
        "lambda_gib": NONNEG,
        "lambda_miss": NONNEG,
        "lambda_exp": NONNEG,
        "input_truncation_chars": st.integers(1, 10**6),
    },
    "evaluation": {"n_bins": st.integers(1, 100), "bootstrap_reps": st.integers(1, 10**5)},
    "trading": {
        "ece_source": st.sampled_from(["calibration_split", "in_sample"]),
        "calibration_fraction": OPEN_UNIT,
    },
}


def _documents(schema: dict):
    """Config sections holding any subset of their keys."""
    return st.fixed_dictionaries(
        {}, optional={k: _documents(v) if isinstance(v, dict) else v for k, v in schema.items()}
    )


def _leaves(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _key_paths(doc: dict, prefix: str = "") -> set[str]:
    paths = set()
    for key, value in doc.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
    return paths


class TestRoundTrip:
    @given(_documents(SCHEMA))
    def test_parse_of_to_dict_is_identity(self, raw):
        cfg = parse_config({"schema_version": 1, **raw})
        doc = cfg.to_dict()
        again = parse_config(json.loads(json.dumps(doc)))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()
        assert again.to_dict() == doc

        # Every given value survives, and the document holds exactly the
        # keys a config may set.
        given_leaves = _leaves(raw)
        assert {k: v for k, v in _leaves(doc).items() if k in given_leaves} == given_leaves
        expected = _key_paths(SCHEMA) | {"schema_version"}
        if cfg.data.synthetic is not None:
            expected |= {f"data.synthetic.{k}" for k in SYNTHETIC}
        assert _key_paths(doc) == expected


def _field_paths(section, prefix: str = "") -> set[str]:
    paths = set()
    for f in fields(section):
        paths.add(prefix + f.name)
        value = getattr(section, f.name)
        if is_dataclass(value):
            paths |= _field_paths(value, f"{prefix}{f.name}.")
    return paths


def test_each_section_field_is_a_document_key():
    """A config section holds its document keys and nothing else: every
    dataclass field is written by `to_dict`, and is a key a config may set."""
    cfg = RunConfig(data=DataConfig(synthetic=SyntheticConfig(10, 2)))
    doc = cfg.to_dict()
    assert doc.pop("schema_version") == SCHEMA_VERSION
    keys = _key_paths(SCHEMA) | {f"data.synthetic.{k}" for k in SYNTHETIC}
    assert _field_paths(cfg) == _key_paths(doc) == keys
