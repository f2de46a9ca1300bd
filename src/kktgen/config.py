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

from .datasets import BUILTIN_DATASETS, dataset_from_csv, split_dataset
from .models import GeneratorSpec, MlpSpec, MultiplierSpec
from .training import ClassifierTrainConfig, GeneratorTrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending entry
    (``section.key``, a section or ``line N``) after ``bad config:``."""

    def __init__(self, field, message):
        super().__init__(f"bad config: {field}: {message}")


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
    },
    "dataset": {
        "kind": ("str", "circle18"),
        "csv_path": ("str", ""),
        "num_classes": ("int", 0),
        "split": ("str", "none"),  # none | arc
    },
    "classifier": {
        "widths": ("ints", (2, 16, 16, 3)),
        "bias": ("bool", False),
        **_train_keys(ClassifierTrainConfig),
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
            try:
                text = fh.read()
            except UnicodeDecodeError:
                raise ValueError(f"{path}: is not UTF-8 text") from None
        return RunConfig.from_text(text)

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

    def replaced(self, section, **values):
        """This config with keys of ``section`` set to ``values``; a value
        of None leaves its key out.  No type check: for hashing."""
        items = {**self.section(section), **values}
        edited = tuple(sorted((k, v) for k, v in items.items()
                              if v is not None))
        return RunConfig(tuple((sec, edited if sec == section else old)
                               for sec, old in self.values))

    # ------------------------------------------------------------------
    # object builders

    def dataset(self):
        sec = self.section("dataset")
        kind = sec["kind"]
        if kind in BUILTIN_DATASETS:
            for key in ("csv_path", "num_classes"):
                if sec[key]:
                    raise ConfigError(f"dataset.{key}",
                                      f"only for kind = csv, not {kind}")
            ds = dataclasses.replace(BUILTIN_DATASETS[kind](), name=kind)
        elif kind == "csv":
            if not sec["csv_path"]:
                raise ConfigError("dataset.csv_path",
                                  "required for kind = csv")
            try:
                ds = dataset_from_csv(sec["csv_path"], "csv",
                                      sec["num_classes"])
            except (OSError, ValueError) as exc:
                raise ConfigError("dataset.csv_path", str(exc)) from None
        else:
            raise ConfigError("dataset.kind", f"unknown kind {kind!r}")
        split = sec["split"]
        if split == "none":
            return (ds,)
        if split == "arc":
            try:
                return split_dataset(ds)
            except ValueError as exc:
                source = sec["csv_path"] if kind == "csv" else kind
                raise ConfigError("dataset.split",
                                  f"arc split of {source}: {exc}") from None
        raise ConfigError("dataset.split", f"unknown split {split!r}")

    def classifier_spec(self):
        sec = self.section("classifier")
        return MlpSpec(sec["widths"], sec["bias"])

    def classifier_train_config(self):
        return self._train_config(ClassifierTrainConfig, "classifier", None)

    def generator_spec(self, num_classes, out_dim, num_classifiers):
        sec = self.section("generator")
        return GeneratorSpec(noise_dim=sec["noise_dim"],
                             num_classes=num_classes,
                             hidden=sec["hidden"], out_dim=out_dim,
                             num_classifiers=num_classifiers,
                             bias=sec["bias"])

    def multiplier_spec(self, num_classes, in_dim, num_classifiers):
        sec = self.section("multiplier")
        return MultiplierSpec(in_dim=in_dim, num_classes=num_classes,
                              hidden=sec["hidden"],
                              num_classifiers=num_classifiers,
                              bias=sec["bias"])

    def generator_train_config(self, seed=None):
        return self._train_config(GeneratorTrainConfig, "generator_training",
                                  seed)

    def _train_config(self, cls, section, seed):
        """``cls`` from its keys in ``section``, ``seed`` overriding.

        A value the dataclass rejects is a :class:`ConfigError` of the
        section.
        """
        keys = self.section(section)
        values = {f.name: keys[f.name] for f in dataclasses.fields(cls)}
        if seed is not None:
            values["seed"] = seed
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(section, str(exc)) from None
