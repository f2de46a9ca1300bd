"""Run configuration: flat key-value text files with one section per module.

The format is deliberately boring::

    [experiment]
    name = circle18
    output_dir = runs/circle18

    [classifier]
    widths = 2,16,16,3
    bias = false

Lines are ``key = value`` under ``[section]`` headers; ``#`` starts a
comment.  Unknown sections or keys are hard errors (configs double as the
experiment record, so typos must not pass silently).  The config hash is
computed from the canonical rendering, so it is stable under reordering
of sections and keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

from .datasets import (circle_dataset, dataset_from_csv, pattern_dataset,
                       split_dataset)
from .models import GeneratorSpec, MlpSpec, MultiplierSpec
from .training import ClassifierTrainConfig, GeneratorTrainConfig


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_ints(raw):
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part) for part in raw.split(","))


def _parse_floats(raw):
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(float(part) for part in raw.split(","))


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda raw: raw.strip(),
    "ints": _parse_ints,
    "floats": _parse_floats,
}

_TYPE_NAMES = {int: "int", float: "float", bool: "bool",
               tuple[int, ...]: "ints", tuple[float, ...]: "floats"}


def _train_keys(cls):
    """Config keys of a train-config dataclass: its fields and defaults."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_TYPE_NAMES[hints[f.name]], f.default)
            for f in dataclasses.fields(cls)}


# section -> key -> (type name, default value)
SCHEMA = {
    "experiment": {
        "name": ("str", "experiment"),
        "output_dir": ("str", "runs"),
        "seeds": ("ints", (0, 10, 14)),
        "eval_samples_per_class": ("int", 200),
        "eval_seed_offset": ("int", 100),
    },
    "dataset": {
        "kind": ("str", "circle18"),
        "csv_path": ("str", ""),
        "num_classes": ("int", 0),
        "split": ("str", "none"),  # none | alternating | arc
        "pattern_per_class": ("int", 50),
        "pattern_jitter": ("float", 0.02),
        "pattern_seed": ("int", 0),
    },
    "classifier": {
        "widths": ("ints", (2, 16, 16, 3)),
        "bias": ("bool", False),
        **_train_keys(ClassifierTrainConfig),
    },
    "lambda": {
        "probes": ("int", 32),
        "max_order": ("int", 2),
        "seed": ("int", 0),
    },
    "generator": {
        "noise_dim": ("int", 4),
        "hidden": ("ints", (32, 32)),
        "bias": ("bool", True),
    },
    "multiplier": {
        "hidden": ("ints", (32, 32)),
        "bias": ("bool", True),
    },
    "generator_training": _train_keys(GeneratorTrainConfig),
}


def parse_config_text(text):
    """Parse to a {section: {key: raw string}} dict, validating names."""
    sections = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in SCHEMA:
                raise ConfigError(current,
                                  f"unknown section (line {lineno})")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}",
                              f"expected 'key = value', got {raw_line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}",
                              "key-value pair before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[current]:
            raise ConfigError(f"{current}.{key}",
                              f"unknown key (line {lineno})")
        if key in sections[current]:
            raise ConfigError(f"{current}.{key}",
                              f"duplicate key (line {lineno})")
        sections[current][key] = value
    return sections


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Typed view over a parsed configuration, with defaults filled in."""

    values: tuple  # ((section, ((key, value), ...)), ...), canonical order

    @staticmethod
    def from_text(text):
        raw = parse_config_text(text)
        typed = {}
        for section, keys in SCHEMA.items():
            typed[section] = {}
            for key, (type_name, default) in keys.items():
                if section in raw and key in raw[section]:
                    try:
                        typed[section][key] = _PARSERS[type_name](
                            raw[section][key])
                    except ValueError as exc:
                        raise ConfigError(f"{section}.{key}", str(exc))
                else:
                    typed[section][key] = default
        values = tuple(
            (section, tuple(sorted(typed[section].items())))
            for section in sorted(typed))
        return RunConfig(values)

    @staticmethod
    def from_file(path):
        with open(path, encoding="utf-8") as fh:
            return RunConfig.from_text(fh.read())

    @staticmethod
    def defaults():
        return RunConfig.from_text("")

    def get(self, section, key):
        for sec, items in self.values:
            if sec == section:
                for k, v in items:
                    if k == key:
                        return v
        raise KeyError(f"{section}.{key}")

    def section(self, name):
        for sec, items in self.values:
            if sec == name:
                return dict(items)
        raise KeyError(name)

    def canonical_text(self):
        lines = []
        for sec, items in self.values:
            lines.append(f"[{sec}]")
            for key, value in items:
                if isinstance(value, tuple):
                    rendered = ",".join(f"{v:.17g}" if isinstance(v, float)
                                        else str(v) for v in value)
                elif isinstance(value, bool):
                    rendered = "true" if value else "false"
                elif isinstance(value, float):
                    rendered = f"{value:.17g}"
                else:
                    rendered = str(value)
                lines.append(f"{key} = {rendered}")
            lines.append("")
        return "\n".join(lines)

    def hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    # ------------------------------------------------------------------
    # object builders

    def dataset(self):
        sec = self.section("dataset")
        kind = sec["kind"]
        if kind == "circle18":
            ds = circle_dataset()
        elif kind == "stripes-vs-checks-8x8":
            ds = pattern_dataset(kind, per_class=sec["pattern_per_class"],
                                 jitter=sec["pattern_jitter"],
                                 seed=sec["pattern_seed"])
        elif kind == "csv":
            if not sec["csv_path"]:
                raise ConfigError("dataset.csv_path",
                                  "required for kind = csv")
            ds = dataset_from_csv(sec["csv_path"], name="csv",
                                  num_classes=sec["num_classes"])
        else:
            raise ConfigError("dataset.kind", f"unknown kind {kind!r}")
        split = sec["split"]
        if split == "none":
            return (ds,)
        if split in ("alternating", "arc"):
            return split_dataset(ds, split)
        raise ConfigError("dataset.split", f"unknown split {split!r}")

    def classifier_spec(self):
        sec = self.section("classifier")
        return MlpSpec(sec["widths"], sec["bias"])

    def classifier_train_config(self, seed=None):
        return self._train_config(ClassifierTrainConfig,
                                  self.section("classifier"), seed)

    def generator_spec(self, num_classes, out_dim, num_classifiers=1):
        sec = self.section("generator")
        return GeneratorSpec(noise_dim=sec["noise_dim"],
                             num_classes=num_classes,
                             hidden=sec["hidden"], out_dim=out_dim,
                             num_classifiers=num_classifiers,
                             bias=sec["bias"])

    def multiplier_spec(self, num_classes, in_dim, num_classifiers=1):
        sec = self.section("multiplier")
        return MultiplierSpec(in_dim=in_dim, num_classes=num_classes,
                              hidden=sec["hidden"],
                              num_classifiers=num_classifiers,
                              bias=sec["bias"])

    def generator_train_config(self, seed=None):
        return self._train_config(GeneratorTrainConfig,
                                  self.section("generator_training"), seed)

    @staticmethod
    def _train_config(cls, section, seed):
        """``cls`` from its keys in ``section``, ``seed`` overriding."""
        values = {f.name: section[f.name] for f in dataclasses.fields(cls)}
        if seed is not None:
            values["seed"] = seed
        return cls(**values)

    def lambda_options(self):
        sec = self.section("lambda")
        return sec["probes"], sec["max_order"], sec["seed"]
