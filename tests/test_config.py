"""Unit tests for the run-configuration format."""

import numpy as np
import pytest

from kktgen.config import ConfigError, RunConfig, parse_config_text
from kktgen.models import GeneratorSpec, MlpSpec
from kktgen.training import ClassifierTrainConfig, GeneratorTrainConfig


def test_defaults_complete():
    cfg = RunConfig.defaults()
    assert cfg.get("experiment", "seeds") == (0, 10, 14)
    assert cfg.get("dataset", "kind") == "circle18"
    assert cfg.get("classifier", "widths") == (2, 16, 16, 3)
    assert cfg.get("classifier", "bias") is False
    assert cfg.get("generator_training", "steps") == 20_000


def test_parse_overrides_and_comments():
    cfg = RunConfig.from_text(
        "# top comment\n"
        "[classifier]\n"
        "widths = 2,8,3  # inline comment\n"
        "bias = true\n"
        "\n"
        "[generator_training]\n"
        "beta = 1.5\n")
    assert cfg.get("classifier", "widths") == (2, 8, 3)
    assert cfg.get("classifier", "bias") is True
    assert cfg.get("generator_training", "beta") == 1.5
    # untouched sections keep their defaults
    assert cfg.get("generator", "noise_dim") == 4


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[bogus]\nx = 1\n")


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[classifier]\ntypo_key = 1\n")
    assert err.value.field == "classifier.typo_key"


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[classifier]\nseed = 1\nseed = 2\n")


def test_key_before_section_is_an_error():
    with pytest.raises(ConfigError, match="before any"):
        parse_config_text("seed = 1\n")


def test_malformed_line_is_an_error():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("[classifier]\nnot a pair\n")


def test_bad_value_type_names_the_field():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[classifier]\nbias = maybe\n")
    assert err.value.field == "classifier.bias"


def test_hash_stable_under_reordering():
    a = RunConfig.from_text(
        "[classifier]\nseed = 5\nbias = true\n[generator]\nnoise_dim = 6\n")
    b = RunConfig.from_text(
        "[generator]\nnoise_dim = 6\n[classifier]\nbias = true\nseed = 5\n")
    assert a.hash() == b.hash()
    c = RunConfig.from_text("[classifier]\nseed = 6\n")
    assert a.hash() != c.hash()


def test_canonical_text_roundtrip():
    cfg = RunConfig.from_text("[classifier]\nseed = 7\n")
    again = RunConfig.from_text(cfg.canonical_text())
    assert again.hash() == cfg.hash()
    assert again == cfg


def test_get_and_section_missing_keys():
    cfg = RunConfig.defaults()
    with pytest.raises(KeyError):
        cfg.get("classifier", "nope")
    with pytest.raises(KeyError):
        cfg.section("nope")
    assert cfg.section("lambda")["probes"] == 32


def test_dataset_builder_circle_and_split():
    cfg = RunConfig.defaults()
    (ds,) = cfg.dataset()
    assert ds.size == 18 and ds.num_classes == 3
    split = RunConfig.from_text("[dataset]\nsplit = arc\n")
    a, b = split.dataset()
    assert a.size == b.size == 9
    with pytest.raises(ConfigError, match="unknown split"):
        RunConfig.from_text("[dataset]\nsplit = bogus\n").dataset()


def test_dataset_builder_pattern_and_csv(tmp_path):
    cfg = RunConfig.from_text(
        "[dataset]\nkind = stripes-vs-checks-8x8\npattern_per_class = 5\n")
    (ds,) = cfg.dataset()
    assert ds.size == 10 and ds.dim == 64
    with pytest.raises(ConfigError, match="csv_path"):
        RunConfig.from_text("[dataset]\nkind = csv\n").dataset()
    path = tmp_path / "points.csv"
    path.write_text("x0,x1,y\n0,0,0\n1,1,1\n")
    csv_cfg = RunConfig.from_text(
        f"[dataset]\nkind = csv\ncsv_path = {path}\n")
    (ds2,) = csv_cfg.dataset()
    assert ds2.size == 2
    with pytest.raises(ConfigError, match="unknown kind"):
        RunConfig.from_text("[dataset]\nkind = bogus\n").dataset()


def test_spec_builders():
    cfg = RunConfig.defaults()
    assert cfg.classifier_spec() == MlpSpec((2, 16, 16, 3), False)
    gen = cfg.generator_spec(num_classes=3, out_dim=2)
    assert gen == GeneratorSpec(4, 3, (32, 32), 2)
    two = cfg.generator_spec(3, 2, num_classifiers=2)
    assert two.num_classifiers == 2
    mult = cfg.multiplier_spec(num_classes=3, in_dim=2)
    assert mult.in_dim == 2 and mult.hidden == (32, 32)


def test_train_config_builders_and_seed_override():
    cfg = RunConfig.defaults()
    ct = cfg.classifier_train_config()
    assert isinstance(ct, ClassifierTrainConfig)
    assert ct.seed == 0
    assert cfg.classifier_train_config(seed=9).seed == 9
    gt = cfg.generator_train_config(seed=4)
    assert isinstance(gt, GeneratorTrainConfig)
    assert gt.seed == 4
    # schema defaults must construct a valid GeneratorTrainConfig
    assert gt.margin_band[0] < gt.margin_band[1]
    assert cfg.lambda_options() == (32, 2, 0)


def test_schema_defaults_match_dataclass_defaults():
    """The config schema and the dataclasses must agree on defaults, so a
    blank config file means the same thing as the Python API."""
    cfg = RunConfig.defaults()
    assert cfg.generator_train_config() == GeneratorTrainConfig()
    assert cfg.classifier_train_config() == ClassifierTrainConfig()


# Canonical hashes of the blank config and of the benchmark's three
# workload configs under a fixed [experiment] header: the schema takes the
# train-config defaults from the dataclasses, and their rendering must
# not move.
PINNED = [
    ("", "b896024511d5fa2e69e9caa840de811c83f344200620f8b550fbff0c19e001c7"),
    ("[generator_training]\nsteps = 2000\n",
     "db715cb81d1d157b6d1945740f8c1add87fd5c9a31fc09ae89b6ce818dd0241d"),
    ("[dataset]\nkind = stripes-vs-checks-8x8\n"
     "[classifier]\nwidths = 64,32,32,2\nlearning_rate = 0.001\n"
     "refine_iters = 1000\n"
     "[generator_training]\nsteps = 2000\ntv_weight = 0.01\n"
     "tv_shape = 8,8\n",
     "552203816bae1ac5e5e93204d47d97311cc839c3b6014d71d50c5cded50fde5e"),
    ("[dataset]\nsplit = arc\n[classifier]\nrefine_iters = 2000\n"
     "[generator_training]\nsteps = 1500\nfull_sum = true\n",
     "ed6ada6bbcd9ce9d9a0024bc1089e34dbd9dea63aaaf2a9d096591a219a382c8"),
]


@pytest.mark.parametrize("text,digest", PINNED)
def test_config_hashes_are_pinned(text, digest):
    if text:
        text = "[experiment]\nname = exp\noutput_dir = runs\n" + text
    assert RunConfig.from_text(text).hash() == digest
