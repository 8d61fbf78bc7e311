"""Run configuration: a strict flat text format with dotted keys.

Each non-comment line reads ``section.key = value``. Unknown or duplicate
keys are errors so typos in experiment sweeps fail loudly. A RunConfig
aggregates everything a search or an eval run needs and knows how to build
the dataset, supernet config, and hyperparameters from itself.

The ``split.*``, ``train.*`` and ``spectral.*`` keys are the fields of
SplitSpec, TrainHyper and SpectralConfig; their defaults live only in those
dataclasses. The ``data.*``, ``net.*`` and ``run.*`` defaults live in SCHEMA
below. Nothing here configures derivation: ``msrnas derive`` reads only a
run's rank tables and metrics.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import CIFAR_CLASSES, Dataset, SplitSpec, load_cifar10, synth_dataset
from .errors import ConfigError
from .optim import TrainHyper
from .spectral import SpectralConfig
from .supernet import SupernetConfig


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got '{text}'")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{text}'")
    return value


def _fields_of(section: str, cls) -> dict[str, tuple]:
    """One schema entry per dataclass field, parsed by its default's type
    (a float must be finite)."""
    parsers = {float: _parse_float}
    return {f"{section}.{f.name}": (parsers.get(type(f.default), type(f.default)), f.default)
            for f in fields(cls)}


# key -> (parser, default), in config-echo order; every key has a default.
SCHEMA: dict[str, tuple] = {
    "data.kind": (str, "synth"),
    "data.cifar_dir": (str, ""),
    "data.classes": (int, 4),
    "data.samples_per_class": (int, 250),
    "data.height": (int, 16),
    "data.width": (int, 16),
    "data.noise": (_parse_float, 0.1),
    "data.seed": (int, 0),
    "data.test_seed": (int, 1),
    "data.test_samples_per_class": (int, 100),
    "data.augment": (_parse_bool, False),
    **_fields_of("split", SplitSpec),
    "net.cells": (int, 8),
    "net.nodes": (int, 7),
    "net.channels": (int, 16),
    **_fields_of("train", TrainHyper),
    **_fields_of("spectral", SpectralConfig),
    "run.seed": (int, 0),
    "run.output_dir": (str, "run"),
    "run.dtype": (str, "float32"),
}


def parse_config_text(text: str) -> dict[str, object]:
    """Strictly parse dotted-key lines into typed values."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
    return values


@dataclass
class RunConfig:
    """Everything one pipeline run needs, with resolved defaults."""

    values: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        resolved = {key: default for key, (_, default) in SCHEMA.items()}
        resolved.update(self.values)
        self.values = resolved
        if self["data.kind"] not in ("synth", "cifar10"):
            raise ConfigError(
                f"data.kind must be 'synth' or 'cifar10', got '{self['data.kind']}'"
            )
        if self["run.dtype"] not in ("float32", "float64"):
            raise ConfigError("run.dtype must be 'float32' or 'float64'")
        if self["data.kind"] == "cifar10" and not self["data.cifar_dir"]:
            raise ConfigError("data.kind=cifar10 requires data.cifar_dir")
        if not self["run.output_dir"]:
            raise ConfigError("run.output_dir must not be empty")

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def dtype(self):
        return np.float32 if self["run.dtype"] == "float32" else np.float64

    @property
    def num_classes(self) -> int:
        return CIFAR_CLASSES if self["data.kind"] == "cifar10" else int(self["data.classes"])

    @property
    def input_hw(self) -> tuple[int, int]:
        if self["data.kind"] == "cifar10":
            return (32, 32)
        return (int(self["data.height"]), int(self["data.width"]))

    def make_datasets(self) -> tuple[Dataset, Dataset]:
        """(train corpus, test corpus) for the configured source."""
        if self["data.kind"] == "cifar10":
            return load_cifar10(self["data.cifar_dir"], dtype=self.dtype)
        shared = dict(
            classes=int(self["data.classes"]),
            height=int(self["data.height"]),
            width=int(self["data.width"]),
            noise=float(self["data.noise"]),
            dtype=self.dtype,
        )
        train = synth_dataset(samples_per_class=int(self["data.samples_per_class"]),
                              seed=int(self["data.seed"]), **shared)
        test = synth_dataset(samples_per_class=int(self["data.test_samples_per_class"]),
                             seed=int(self["data.test_seed"]), **shared)
        # Test images are normalized with the train statistics.
        test.mean, test.std = train.mean, train.std
        return train, test

    def make_supernet_config(self) -> SupernetConfig:
        return SupernetConfig(
            cells=int(self["net.cells"]),
            nodes=int(self["net.nodes"]),
            initial_channels=int(self["net.channels"]),
            num_classes=self.num_classes,
            input_hw=self.input_hw,
        )

    def _make_fields(self, section: str, cls):
        return cls(**{f.name: type(f.default)(self[f"{section}.{f.name}"])
                      for f in fields(cls)})

    def make_train_hyper(self) -> TrainHyper:
        return self._make_fields("train", TrainHyper)

    def make_spectral_config(self) -> SpectralConfig:
        return self._make_fields("spectral", SpectralConfig)

    def make_split_spec(self) -> SplitSpec:
        return self._make_fields("split", SplitSpec)

    def to_text(self) -> str:
        lines = [f"{key} = {self._render(key)}" for key in SCHEMA]
        return "\n".join(lines) + "\n"

    def _render(self, key: str) -> str:
        value = self.values[key]
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig(parse_config_text(text))


def config_from_text(text: str) -> RunConfig:
    return RunConfig(parse_config_text(text))

