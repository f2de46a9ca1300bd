"""Unit tests for the run-configuration format."""

import argparse
import ast
import inspect
import os

import pytest

from kktgen.cli import _run_dir, build_parser
from kktgen.config import SCHEMA, ConfigError, RunConfig, parse_config_text
from kktgen.datasets import BUILTIN_DATASETS, dataset_from_csv, split_dataset
from kktgen.models import GeneratorSpec, MlpSpec
from kktgen.training import ClassifierTrainConfig, GeneratorTrainConfig


def test_defaults_complete():
    cfg = RunConfig.from_text("")
    assert cfg.get("experiment", "output_dir") == "runs"
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
    # experiment.seeds was a key no command read until it left the schema
    for section, key in (("classifier", "typo_key"), ("experiment", "seeds")):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"[{section}]\n{key} = 1\n")
        assert str(err.value).startswith(f"bad config: {section}.{key}: ")


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
    assert str(err.value).startswith("bad config: classifier.bias: ")


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
    cfg = RunConfig.from_text("")
    with pytest.raises(KeyError):
        cfg.get("classifier", "nope")
    with pytest.raises(KeyError):
        cfg.section("nope")
    assert cfg.section("generator")["noise_dim"] == 4


def test_dataset_builder_circle_and_split():
    cfg = RunConfig.from_text("")
    (ds,) = cfg.dataset()
    assert ds.size == 18 and ds.num_classes == 3
    split = RunConfig.from_text("[dataset]\nsplit = arc\n")
    a, b = split.dataset()
    assert a.size == b.size == 9
    for bad in ("bogus", "alternating"):
        with pytest.raises(ConfigError, match="unknown split") as err:
            RunConfig.from_text(f"[dataset]\nsplit = {bad}\n").dataset()
        assert str(err.value).startswith("bad config: dataset.split: ")


def test_dataset_builder_pattern_and_csv(tmp_path):
    cfg = RunConfig.from_text("[dataset]\nkind = stripes-vs-checks-8x8\n")
    (ds,) = cfg.dataset()
    assert ds.size == 100 and ds.dim == 64
    # a built-in dataset is named by its kind
    assert ds.name == "stripes-vs-checks-8x8"
    assert RunConfig.from_text("").dataset()[0].name == "circle18"
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


@pytest.mark.parametrize("line", ["csv_path = /nonexistent.csv",
                                  "num_classes = 5"])
def test_csv_key_under_a_builtin_kind_is_an_error(line):
    """A key only ``kind = csv`` reads is refused, not ignored, under a
    built-in kind."""
    key = line.split()[0]
    with pytest.raises(ConfigError, match="only for kind = csv") as err:
        RunConfig.from_text(f"[dataset]\n{line}\n").dataset()
    assert str(err.value).startswith(f"bad config: dataset.{key}: ")


def test_spec_builders():
    cfg = RunConfig.from_text("")
    assert cfg.classifier_spec() == MlpSpec((2, 16, 16, 3), False)
    gen = cfg.generator_spec(num_classes=3, out_dim=2, num_classifiers=1)
    assert gen == GeneratorSpec(4, 3, (32, 32), 2)
    two = cfg.generator_spec(3, 2, num_classifiers=2)
    assert two.num_classifiers == 2
    mult = cfg.multiplier_spec(num_classes=3, in_dim=2, num_classifiers=1)
    assert mult.in_dim == 2 and mult.hidden == (32, 32)


def test_train_config_builders_and_seed_override():
    cfg = RunConfig.from_text("")
    ct = cfg.classifier_train_config()
    assert isinstance(ct, ClassifierTrainConfig)
    assert ct.seed == 0
    gt = cfg.generator_train_config(seed=4)
    assert isinstance(gt, GeneratorTrainConfig)
    assert gt.seed == 4
    # schema defaults must construct a valid GeneratorTrainConfig
    assert gt.margin_band[0] < gt.margin_band[1]


def test_schema_defaults_match_dataclass_defaults():
    """The config schema and the dataclasses must agree on defaults, so a
    blank config file means the same thing as the Python API."""
    cfg = RunConfig.from_text("")
    assert cfg.generator_train_config() == GeneratorTrainConfig()
    assert cfg.classifier_train_config() == ClassifierTrainConfig()


# The builders RunConfig calls: SCHEMA supplies the arguments of the
# dataset builders (the built-in ones take none), the command the counts
# the two specs take, so a default of their own would declare a value a
# second time.
SCHEMA_BUILDERS = [*BUILTIN_DATASETS.values(), split_dataset,
                   dataset_from_csv, RunConfig.generator_spec,
                   RunConfig.multiplier_spec]


@pytest.mark.parametrize("builder", SCHEMA_BUILDERS,
                         ids=lambda f: f.__name__)
def test_schema_builders_declare_no_defaults(builder):
    params = inspect.signature(builder).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == []


# A changed value for each key whose default a generic change (int and
# float + 1, bool flipped, a tuple's last entry repeated) cannot give.
CHANGED = {("experiment", "name"): "other",
           ("experiment", "output_dir"): "elsewhere",
           ("dataset", "kind"): "stripes-vs-checks-8x8",
           ("dataset", "csv_path"): "{other_csv}",
           ("dataset", "num_classes"): "3",
           ("dataset", "split"): "arc",
           ("generator_training", "tv_shape"): "8,8",
           ("generator_training", "label_distribution"): "0.5,0.5",
           ("generator_training", "margin_band"): "0.5,1"}

# dataset keys read only under another dataset kind
KIND_OF = {"csv_path": "csv", "num_classes": "csv"}

# keys whose changed value is valid only with another key set: a tv
# weight needs a tv shape
NEEDS = {("generator_training", "tv_weight"):
         {("generator_training", "tv_shape"): "8,8"}}


def changed_value(section, key):
    if (section, key) in CHANGED:
        return CHANGED[section, key]
    type_name, default = SCHEMA[section][key]
    if type_name == "bool":
        return "false" if default else "true"
    if type_name in ("int", "float"):
        return str(default + 1)
    assert type_name in ("ints", "floats") and default, (section, key)
    return ",".join(str(v) for v in default + default[-1:])


def built(entries):
    """Everything the builders make of a config of ``entries``, a
    {(section, key): raw value} dict, and the run directory of the
    commands."""
    lines = {}
    for (section, key), raw in entries.items():
        lines.setdefault(section, []).append(f"{key} = {raw}")
    cfg = RunConfig.from_text("".join(
        f"[{section}]\n" + "\n".join(body) + "\n"
        for section, body in lines.items()))
    datasets = [(d.name, d.num_classes, d.x.tobytes(), d.labels.tobytes())
                for d in cfg.dataset()]
    return (datasets, cfg.classifier_spec(), cfg.classifier_train_config(),
            cfg.generator_spec(3, 2, 1), cfg.multiplier_spec(3, 2, 1),
            cfg.generator_train_config(), _run_dir(cfg))


def test_every_key_reaches_a_builder(tmp_path, monkeypatch):
    """A key no builder reads would be accepted and ignored."""
    # the run directories are made under the relative output_dir
    monkeypatch.chdir(tmp_path)
    csv, other_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    csv.write_text("x0,x1,y\n0,0,0\n1,1,1\n")
    other_csv.write_text("x0,x1,y\n0,0,0\n2,1,1\n")
    ignored = []
    for section, keys in SCHEMA.items():
        for key in keys:
            base = dict(NEEDS.get((section, key), {}))
            if section == "dataset" and key in KIND_OF:
                base = {("dataset", "kind"): KIND_OF[key],
                        ("dataset", "csv_path"): str(csv)}
            value = changed_value(section, key).format(other_csv=other_csv)
            if built(base) == built({**base, (section, key): value}):
                ignored.append(f"{section}.{key}")
    assert not ignored


# Canonical hashes of the blank config and of the benchmark's three
# workload configs under a fixed [experiment] header: the schema takes the
# train-config defaults from the dataclasses, and their rendering must
# not move.  The digest of each config moved only by deleting keys: the
# same values plus the keys only the acceptance suite read (TEST_ONLY) at
# their old values must still hash to the digest before they went, plus
# the trainable-alpha rate (ALPHA_RATE) at its old value to the digest
# before it went, plus the keys that
# became module constants (MADE_CONSTANT) at their old values to the
# digest before that, and plus the keys deleted before
# (classifier.refine_margins, generator_training.delta and the [lambda]
# section) to the digest before those went.
PINNED = [
    ("", "b896024511d5fa2e69e9caa840de811c83f344200620f8b550fbff0c19e001c7",
     "4080f22d1553c0128c36646b8ada3e39f745bd618d52a5ad99edf084b00da081",
     "8df0cf78fb60c24cbf3f35ec96e5d8596ca3eba1929f3f51d0d43c03f74fd318",
     "aaab69a6c1b63f806ae9fd1269be3df7dcfe39d62c8360c600afc2c8ebd21f72",
     "d45600c643491844662dcc56bfa9e44c047b9ba57bbaa9a80fd54e85567efe26"),
    ("[generator_training]\nsteps = 2000\n",
     "db715cb81d1d157b6d1945740f8c1add87fd5c9a31fc09ae89b6ce818dd0241d",
     "336ffc398f69d22e52788844a3eeee7e138cc73f0c887ab983a419691b367a17",
     "79cf3d5fe8fdece2e7ecd146752ca338b9592d823e605d46323f9685d8360ad9",
     "8633bb7daa588e6948eee2294989071cd8f03fca72e8403c2d26cc4a63946afd",
     "9e74c5f8f3dd68994539d131be038beaaaf0d1a85300a083fa69dcf13a943024"),
    ("[dataset]\nkind = stripes-vs-checks-8x8\n"
     "[classifier]\nwidths = 64,32,32,2\nlearning_rate = 0.001\n"
     "refine_iters = 1000\n"
     "[generator_training]\nsteps = 2000\ntv_weight = 0.01\n"
     "tv_shape = 8,8\n",
     "552203816bae1ac5e5e93204d47d97311cc839c3b6014d71d50c5cded50fde5e",
     "0ed5521a250f5f9b220e72b0655efcdc964549c0a18d7386880ae9ba5aa34786",
     "bdaf903b06a7ad36a9635a4c99c94a943a3ba8df2afa001302776759f86111f2",
     "8042c3b98195fe8689f1a953fc597b91e14bf5124fb08ca26a0d90f6a72f04cd",
     "3e40b04177f06a942a5ba8a4f6634cefd6e9bd44c9db8425f705a5e6177f9b2b"),
    ("[dataset]\nsplit = arc\n[classifier]\nrefine_iters = 2000\n"
     "[generator_training]\nsteps = 1500\nfull_sum = true\n",
     "ed6ada6bbcd9ce9d9a0024bc1089e34dbd9dea63aaaf2a9d096591a219a382c8",
     "daef36abcac15ce44e4ee36f355ac1bcdeb0b93ac1bd4fb66c3c15a4511db1f6",
     "8154635502ea80cde96f4482fd7c22385951606f39610c78d87aa68f35a4117e",
     "116b38a1a9a49bf50b037a2c034f4b09e073d43af99f34243647f76160dbf785",
     "88889d9759d11930d11064a5c1c4cc775f197383a0986ab1aac799f446f5407d"),
]

TEST_ONLY = {"experiment": {"seeds": (0, 10, 14),
                            "eval_samples_per_class": 200,
                            "eval_seed_offset": 100}}

ALPHA_RATE = {"generator_training": {"lr_alpha": 0.0}}

MADE_CONSTANT = {
    "classifier": {"refine_temperatures": (3.0, 6.0, 12.0, 25.0, 50.0,
                                           100.0, 200.0, 400.0),
                   "refine_lr": 1e-3,
                   "refine_final_lrs": (3e-4, 1e-4, 3e-5, 1e-5, 3e-6)},
    "dataset": {"pattern_per_class": 50, "pattern_jitter": 0.02,
                "pattern_seed": 0},
    "generator_training": {"probe_count": 256, "init_output_scale": 2.0}}

DELETED_KEYS = {"classifier": {"refine_margins": True},
                "generator_training": {"delta": 0.05},
                "lambda": {"max_order": 2, "probes": 32, "seed": 0}}


def with_keys(cfg, keys):
    """``cfg`` with the {section: {key: value}} ``keys`` added."""
    sections = {section: dict(items) for section, items in cfg.values}
    for section, values in keys.items():
        sections.setdefault(section, {}).update(values)
    return RunConfig(tuple((section, tuple(sorted(items.items())))
                           for section, items in sorted(sections.items())))


@pytest.mark.parametrize(
    "text,digest_before_deletions,digest_before_constants,"
    "digest_before_alpha,digest_before_test_keys,digest", PINNED)
def test_config_hashes_are_pinned(text, digest_before_deletions,
                                  digest_before_constants,
                                  digest_before_alpha,
                                  digest_before_test_keys, digest):
    if text:
        text = "[experiment]\nname = exp\noutput_dir = runs\n" + text
    cfg = RunConfig.from_text(text)
    assert cfg.hash() == digest
    cfg = with_keys(cfg, TEST_ONLY)
    assert cfg.hash() == digest_before_test_keys
    cfg = with_keys(cfg, ALPHA_RATE)
    assert cfg.hash() == digest_before_alpha
    cfg = with_keys(cfg, MADE_CONSTANT)
    assert cfg.hash() == digest_before_constants
    assert with_keys(cfg, DELETED_KEYS).hash() == digest_before_deletions


# Keys no workload of the benchmark sets, each with the reason it stays a
# key; a key without one becomes a module constant.
KEPT_KEYS = {
    ("dataset", "csv_path"): "the data of kind = csv",
    ("dataset", "num_classes"): "the class count of kind = csv",
    ("classifier", "bias"): "the architecture",
    ("classifier", "max_epochs"): "the runtime bound",
    ("classifier", "extra_epochs"): "the only margin growth for a "
                                    "classifier with biases",
    ("classifier", "seed"): "a seed",
    ("generator", "noise_dim"): "the architecture",
    ("generator", "hidden"): "the architecture",
    ("generator", "bias"): "the architecture",
    ("multiplier", "hidden"): "the architecture",
    ("multiplier", "bias"): "the architecture",
    ("generator_training", "batch_size"): "the paper's M",
    ("generator_training", "beta"): "the paper's beta",
    ("generator_training", "lr_theta"): "the paper's learning rates",
    ("generator_training", "lr_eta"): "the paper's learning rates",
    ("generator_training", "margin_band"): "ROADMAP item 8 tries bands",
    ("generator_training", "label_distribution"): "the class prior",
    ("generator_training", "seed"): "a seed",
}

BENCH_RUN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pipebench", "run.py")


def workload_keys():
    """(section, key) of every key the benchmark's workload configs set:
    the string literals of ``pipebench/run.py`` that begin with a section
    header, read from its source (importing it sets environment
    variables)."""
    with open(BENCH_RUN, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {(section, key)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.lstrip().startswith("[")
            for section, keys in parse_config_text(node.value).items()
            for key in keys}


def test_every_key_is_set_by_a_workload_or_kept_for_a_reason():
    """A key no run varies is a constant, not an option."""
    set_by_workloads = workload_keys()
    assert ("dataset", "kind") in set_by_workloads
    keys = {(section, key) for section, keys in SCHEMA.items()
            for key in keys}
    assert sorted(keys - set_by_workloads - KEPT_KEYS.keys()) == []
    # a kept key a workload now sets, or that is gone, leaves the table
    assert sorted(KEPT_KEYS.keys() & set_by_workloads) == []
    assert sorted(KEPT_KEYS.keys() - keys) == []


# Command-line flags the benchmark does not pass, each with the reason it
# stays a flag; a flag without one becomes a constant.
KEPT_FLAGS = {
    ("estimate-lambda", "--out"): "a path",
    ("train-generator", "--name"): "an output name",
    ("train-generator", "--resume"): "ROADMAP aim 3: a resumed run is "
                                     "bit-exact",
    ("sample", "--t"): "shard-conditional sampling, which "
                       "test_sharded_generation and the README use",
    ("plot", "--title"): "user text",
}


def parser_flags():
    """(command, flag) of every option of ``cli.build_parser()``."""
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {(command, flag) for command, sub in commands.items()
            for action in sub._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


def benchmark_flags():
    """(command, flag) the benchmark passes: the "--" literals of each
    list literal in ``pipebench/run.py`` that begins with a command name,
    and of each list added (``+=``) to a name bound to one."""
    with open(BENCH_RUN, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    commands = {command for command, _ in parser_flags()}

    def literals(node):
        return [e.value for e in node.elts if isinstance(e, ast.Constant)
                and isinstance(e.value, str)]

    def command_of(node):
        if (isinstance(node, ast.List) and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in commands):
            return node.elts[0].value
        return None

    bound = {target.id: command_of(node.value)
             for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and command_of(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    lists = [(command_of(node), node) for node in ast.walk(tree)
             if command_of(node)]
    lists += [(bound[node.target.id], node.value)
              for node in ast.walk(tree) if isinstance(node, ast.AugAssign)
              and isinstance(node.target, ast.Name)
              and node.target.id in bound
              and isinstance(node.value, ast.List)]
    return {(command, flag) for command, node in lists
            for flag in literals(node) if flag.startswith("--")}


def test_every_flag_is_passed_by_the_benchmark_or_kept_for_a_reason():
    """A flag no run sets is a constant, not an option."""
    flags = parser_flags()
    passed = benchmark_flags()
    assert ("evaluate", "--classifier") in passed
    assert sorted(passed - flags) == []
    assert sorted(flags - passed - KEPT_FLAGS.keys()) == []
    # a kept flag the benchmark now passes, or that is gone, leaves the
    # table
    assert sorted(KEPT_FLAGS.keys() & passed) == []
    assert sorted(KEPT_FLAGS.keys() - flags) == []
