"""Strict dotted-key config parsing and RunConfig assembly."""

import numpy as np
import pytest

from msrnas.cli import main
from msrnas.config import RunConfig, config_from_text, parse_config_text
from msrnas.errors import ConfigError


def test_defaults_match_search_protocol():
    cfg = RunConfig()
    hyper = cfg.make_train_hyper()
    assert hyper.initial_lr == 0.025
    assert hyper.momentum == 0.9
    assert hyper.weight_decay == 3e-4
    assert hyper.epochs == 50
    net = cfg.make_supernet_config()
    assert net.cells == 8 and net.nodes == 7 and net.initial_channels == 16
    spectral = cfg.make_spectral_config()
    assert spectral.target_norm == 1.0 and spectral.iterations == 5
    split = cfg.make_split_spec()
    assert split.train_fraction == 0.8


def test_parse_known_keys_and_comments():
    values = parse_config_text(
        """
        # search config
        train.initial_lr = 0.05   # bumped
        net.cells = 4
        data.augment = true
        """
    )
    assert values == {"train.initial_lr": 0.05, "net.cells": 4, "data.augment": True}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("train.initial_lrr = 0.05")


def test_parser_config_error_surfaces_unchanged():
    # A parser's own ConfigError is not a ValueError, so it is not rewrapped
    # as a "bad value" error.
    with pytest.raises(ConfigError) as caught:
        parse_config_text("net.cells = 4\ndata.augment = sometimes")
    assert str(caught.value) == "expected a boolean, got 'sometimes'"


@pytest.mark.parametrize("line", ["derive.mode = max", "derive.epoch_policy = fixed:3"])
def test_derive_keys_rejected(tmp_path, capsys, line):
    # Derivation reads only a run's rank tables and metrics.csv.
    with pytest.raises(ConfigError, match="line 2: unknown key 'derive"):
        parse_config_text("net.cells = 3\n" + line)
    path = tmp_path / "cfg.txt"
    path.write_text(line + "\n")
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]: line 1: unknown key") and err.count("\n") == 1


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("net.cells = 4\nnet.cells = 8")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("net.cells 4")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("net.cells = quattro")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("data.augment = sometimes")


@pytest.mark.parametrize("line", [
    "train.initial_lr = nan",
    "train.weight_decay = nan",
    "spectral.target_norm = inf",
    "split.train_fraction = nan",
    "data.noise = -inf",
])
def test_non_finite_float_rejected(tmp_path, capsys, line):
    text = "net.cells = 3\n" + line + "\n"
    with pytest.raises(ConfigError, match="line 2: bad value .*finite"):
        parse_config_text(text)
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]: line 2: bad value") and err.count("\n") == 1


def test_empty_output_dir_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="run.output_dir"):
        config_from_text("run.output_dir =")
    path = tmp_path / "cfg.txt"
    path.write_text("run.output_dir =\n")
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error[config]: run.output_dir must not be empty\n"


def test_negative_split_seed_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="split seed must be non-negative, got -1"):
        config_from_text("split.seed = -1").make_split_spec()
    assert config_from_text("split.seed = 0").make_split_spec().seed == 0
    path = tmp_path / "cfg.txt"
    path.write_text("data.samples_per_class = 4\ndata.test_samples_per_class = 2\n"
                    "data.height = 8\ndata.width = 8\nsplit.seed = -1\n"
                    f"run.output_dir = {tmp_path / 'run'}\n")
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error[config]: split seed must be non-negative, got -1\n"


def test_cifar_requires_dir():
    with pytest.raises(ConfigError, match="cifar_dir"):
        config_from_text("data.kind = cifar10")


def test_dtype_switch():
    assert config_from_text("run.dtype = float64").dtype == np.float64
    with pytest.raises(ConfigError):
        config_from_text("run.dtype = float16")


def test_num_classes_follows_data():
    assert config_from_text("data.kind = synth\ndata.classes = 6").num_classes == 6


def test_config_echo_roundtrip():
    cfg = config_from_text("net.cells = 3\ntrain.epochs = 2\ndata.augment = true")
    echoed = config_from_text(cfg.to_text())
    assert echoed.values == cfg.values
    assert echoed.to_text() == cfg.to_text()


DEFAULT_ECHO_LINES = (
    "data.kind = synth",
    "data.cifar_dir = ",
    "data.classes = 4",
    "data.samples_per_class = 250",
    "data.height = 16",
    "data.width = 16",
    "data.noise = 0.1",
    "data.seed = 0",
    "data.test_seed = 1",
    "data.test_samples_per_class = 100",
    "data.augment = false",
    "split.train_fraction = 0.8",
    "split.seed = 0",
    "net.cells = 8",
    "net.nodes = 7",
    "net.channels = 16",
    "train.initial_lr = 0.025",
    "train.momentum = 0.9",
    "train.weight_decay = 0.0003",
    "train.epochs = 50",
    "train.batch_size = 64",
    "spectral.target_norm = 1.0",
    "spectral.iterations = 5",
    "spectral.rank_iterations = 18",
    "spectral.seed = 0",
    "run.seed = 0",
    "run.output_dir = run",
    "run.dtype = float32",
)


def test_default_config_echo_is_pinned():
    assert RunConfig().to_text() == "\n".join(DEFAULT_ECHO_LINES) + "\n"


def test_make_datasets_synth_shares_train_stats():
    cfg = config_from_text(
        "data.classes = 3\ndata.samples_per_class = 5\n"
        "data.height = 8\ndata.width = 8"
    )
    train, test = cfg.make_datasets()
    assert len(train) == 15
    np.testing.assert_array_equal(train.mean, test.mean)
