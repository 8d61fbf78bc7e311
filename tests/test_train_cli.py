"""Pipeline harness: run directories, metrics, derivation policy, CLI
subcommands, artifact round-trips, and determinism."""

import json
import math
import os

import numpy as np
import pytest

from msrnas import train
from msrnas.autodiff import Tensor
from msrnas.cli import main
from msrnas.config import RunConfig, config_from_text
from msrnas.derive import Genotype, SelectionMode, derive_genotype, load_rank_table
from msrnas.errors import ArgumentError, FormatError, LockError, NumericsError, StateError
from msrnas.layers import Linear, Module
from msrnas.operators import OPERATOR_NAMES
from msrnas.train import (
    METRICS_HEADER,
    EpochRecord,
    MetricsLog,
    RunDir,
    _diagnose_non_finite,
    choose_epoch,
    load_epoch_table,
    run_eval,
    run_search,
)

TINY = """
data.kind = synth
data.classes = 3
data.samples_per_class = 40
data.test_samples_per_class = 20
data.height = 10
data.width = 10
net.cells = 3
net.nodes = 5
net.channels = 4
train.epochs = 1
train.batch_size = 24
spectral.rank_iterations = 30
run.seed = 11
"""


def tiny_cfg(out_dir, epochs=1, seed=11, extra=""):
    text = TINY + f"run.output_dir = {out_dir}\n"
    text = text.replace("train.epochs = 1", f"train.epochs = {epochs}")
    text = text.replace("run.seed = 11", f"run.seed = {seed}")
    return config_from_text(text + extra)


def test_metrics_log_strictly_increasing():
    log = MetricsLog()
    log.append(EpochRecord(1, 1.0, 1.1, 0.025))
    with pytest.raises(StateError):
        log.append(EpochRecord(1, 0.9, 1.0, 0.02))


def test_metrics_csv_roundtrip_excludes_wall_time():
    log = MetricsLog()
    log.append(EpochRecord(1, 1.0, 1.1, 0.025, wall_time=3.5))
    log.append(EpochRecord(2, 0.5, 0.9, 0.020, wall_time=4.0))
    text = log.to_csv()
    assert "wall" not in text
    back = MetricsLog.from_csv(text)
    assert [r.val_loss for r in back.records] == [1.1, 0.9]
    assert back.to_csv() == text


@pytest.mark.parametrize("row", ["1,abc,0.5,0.1", "one,1.0,0.5,0.1", "1,1.0,0.5,",
                                 "1,1.0,nan,0.1", "1,inf,0.5,0.1", "1,1.0,0.5,-inf"])
def test_metrics_bad_number_is_format_error(tmp_path, capsys, row):
    text = f"{METRICS_HEADER}\n{row}\n"
    with pytest.raises(FormatError, match="bad number in metrics row"):
        MetricsLog.from_csv(text)
    (tmp_path / "config.txt").write_text(RunConfig().to_text())
    (tmp_path / "metrics.csv").write_text(text)
    assert main(["derive", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[format]: bad number") and err.count("\n") == 1


def test_best_epoch_argmin():
    log = MetricsLog()
    for e, v in enumerate([1.0, 0.8, 0.9], start=1):
        log.append(EpochRecord(e, 1.0, v, 0.02))
    assert log.best_epoch() == 2


def test_choose_epoch_policies(tmp_path):
    run = RunDir(str(tmp_path / "r"))
    os.makedirs(run.root)
    log = MetricsLog()
    for e, v in enumerate([1.0, 0.8, 0.9], start=1):
        log.append(EpochRecord(e, 1.0, v, 0.02))
    with open(run.metrics_path, "w") as fh:
        fh.write(log.to_csv())
    assert choose_epoch(run.root, None, "min_val_loss") == 2
    assert choose_epoch(run.root, None, "fixed:3") == 3
    assert choose_epoch(run.root, 1, "min_val_loss") == 1


def test_non_finite_held_out_loss_stops_before_its_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(train, "_held_out_pass", lambda *_args: (math.nan, 1.0))
    rows = [[("sep3", 0), ("sep3", 1)], [("dil3", 0), ("sep5", 2)]]
    geno = Genotype(mode="min", nodes=5, operators=OPERATOR_NAMES,
                    normal=rows, reduce=rows)
    with pytest.raises(NumericsError, match="non-finite test loss at epoch 1"):
        run_eval(tiny_cfg(str(tmp_path / "api")), geno)
    with open(tmp_path / "api" / "metrics.csv") as fh:
        assert fh.read() == METRICS_HEADER + "\n"
    geno_path = tmp_path / "geno.json"
    geno_path.write_text(geno.to_json_str())
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY + f"run.output_dir = {tmp_path / 'cli'}\n")
    assert main(["eval", "--genotype", str(geno_path), "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error[numerics]: non-finite test loss at epoch 1\n"
    assert not os.path.exists(tmp_path / "cli" / "result.txt")


def test_reading_a_run_creates_no_directory(tmp_path, capsys):
    missing = tmp_path / "missing"
    run = RunDir(str(missing))
    assert not missing.exists()
    with pytest.raises(ArgumentError):
        choose_epoch(run.root, None, "min_val_loss")
    with pytest.raises(ArgumentError):
        load_epoch_table(run.root, 0)
    assert main(["derive", "--run", str(missing)]) == 1
    assert capsys.readouterr().err.startswith("error[argument]:")
    assert not missing.exists()
    run.acquire_lock()
    assert os.path.exists(os.path.join(run.root, "lock"))
    run.release_lock()


def test_lock_excludes_concurrent_runs(tmp_path):
    run = RunDir(str(tmp_path / "r"))
    run.acquire_lock()
    other = RunDir(str(tmp_path / "r"))
    with pytest.raises(LockError):
        other.acquire_lock()
    run.release_lock()
    other.acquire_lock()
    other.release_lock()


@pytest.fixture(scope="module")
def one_epoch_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("search"))
    cfg = tiny_cfg(out)
    result = run_search(cfg)
    return out, cfg, result


def test_search_writes_all_artifacts(one_epoch_run):
    out, _, result = one_epoch_run
    assert os.path.exists(os.path.join(out, "config.txt"))
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "log.txt"))
    for epoch in (0, 1):
        assert os.path.exists(os.path.join(out, "checkpoints", f"epoch_{epoch:04d}.msrn"))
        assert os.path.exists(os.path.join(out, "ranks", f"epoch_{epoch:04d}.txt"))
    assert not os.path.exists(os.path.join(out, "lock"))
    assert len(result.metrics.records) == 1


def test_search_rank_tables_roundtrip(one_epoch_run):
    out, _, result = one_epoch_run
    table = load_epoch_table(out, 1)
    assert table.nodes == 5
    assert table.entries == result.final_table.entries


def test_epoch_zero_snapshot_normalized(one_epoch_run):
    out, _, _ = one_epoch_run
    table = load_rank_table(os.path.join(out, "ranks", "epoch_0000.txt"))
    assert all(v is not None and v >= 1.0 for v in table.entries.values())


def test_derive_from_run_and_eval(tmp_path, one_epoch_run):
    out, _, _ = one_epoch_run
    epoch = choose_epoch(out, None, "min_val_loss")
    table = load_epoch_table(out, epoch)
    geno = derive_genotype(table, mode=SelectionMode.MIN_STABLE_RANK)
    eval_cfg = tiny_cfg(str(tmp_path / "eval"), epochs=1)
    result = run_eval(eval_cfg, geno)
    assert 0.0 <= result.test_error <= 1.0
    assert np.isfinite(result.test_loss)
    assert os.path.exists(os.path.join(result.run_dir.root, "result.txt"))
    # The final test metrics come from the last epoch's test pass.
    assert result.test_loss == result.metrics.records[-1].val_loss


def test_eval_run_dir_has_no_search_dirs(tmp_path, one_epoch_run):
    _, _, searched = one_epoch_run
    geno = derive_genotype(searched.final_table, mode=SelectionMode.MIN_STABLE_RANK)
    result = run_eval(tiny_cfg(str(tmp_path / "eval"), epochs=1), geno)
    assert sorted(os.listdir(result.run_dir.root)) == [
        "config.txt", "log.txt", "metrics.csv", "result.txt"]


def test_search_epochs_zero_emits_init_only(tmp_path):
    cfg = tiny_cfg(str(tmp_path / "zero"), epochs=0)
    result = run_search(cfg)
    out = result.run_dir.root
    assert os.path.exists(os.path.join(out, "checkpoints", "epoch_0000.msrn"))
    assert os.path.exists(os.path.join(out, "ranks", "epoch_0000.txt"))
    assert not os.path.exists(os.path.join(out, "checkpoints", "epoch_0001.msrn"))
    with open(os.path.join(out, "metrics.csv")) as fh:
        assert fh.read().strip() == "epoch,train_loss,val_loss,lr"
    with pytest.raises(ArgumentError):
        choose_epoch(out, None, "min_val_loss")

    # A 0-epoch eval shares the loop: a header-only metrics.csv, then the
    # test metrics of the untrained network.
    geno = derive_genotype(result.final_table, mode=SelectionMode.MIN_STABLE_RANK)
    evaluated = run_eval(tiny_cfg(str(tmp_path / "zero_eval"), epochs=0), geno)
    out = evaluated.run_dir.root
    assert evaluated.metrics.records == []
    with open(os.path.join(out, "metrics.csv")) as fh:
        assert fh.read().strip() == "epoch,train_loss,val_loss,lr"
    assert os.path.exists(os.path.join(out, "result.txt"))


def run_dir_bytes(root: str, names: list[str]) -> dict[str, bytes]:
    """Contents of the named files and of every file in the named
    subdirectories, keyed by path relative to ``root``."""
    found = {}
    for name in names:
        path = os.path.join(root, name)
        paths = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        for p in paths:
            with open(p, "rb") as fh:
                found[os.path.relpath(p, root)] = fh.read()
    return found


def test_same_seed_runs_write_identical_run_dirs(tmp_path, one_epoch_run):
    searched = []
    for name in ("a", "b"):
        out = str(tmp_path / f"search_{name}")
        run_search(tiny_cfg(out, epochs=2))
        searched.append(run_dir_bytes(out, ["metrics.csv", "ranks", "checkpoints"]))
    assert len(searched[0]) == 1 + 3 + 3
    assert searched[0] == searched[1]

    _, _, result = one_epoch_run
    geno = derive_genotype(result.final_table, mode=SelectionMode.MIN_STABLE_RANK)
    evaluated = []
    for name in ("a", "b"):
        cfg = tiny_cfg(str(tmp_path / f"eval_{name}"), epochs=2,
                       extra="data.augment = true\n")
        run_eval(cfg, geno)
        evaluated.append(run_dir_bytes(cfg["run.output_dir"],
                                       ["metrics.csv", "result.txt"]))
    assert evaluated[0] == evaluated[1]
    assert evaluated[0]["metrics.csv"].count(b"\n") == 3


def test_cli_full_pipeline(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    search_out = tmp_path / "search"
    cfg_path.write_text(TINY + f"run.output_dir = {search_out}\n")
    assert main(["search", "--config", str(cfg_path)]) == 0

    assert main(["derive", "--run", str(search_out)]) == 0
    geno_path = search_out / "genotype_min.json"
    assert geno_path.exists()
    payload = json.loads(geno_path.read_text())
    assert list(payload.keys()) == ["mode", "nodes", "operators", "normal", "reduce"]
    Genotype.from_json_str(geno_path.read_text()).validate()

    assert main(["derive", "--run", str(search_out), "--mode", "max",
                 "--epoch", "1"]) == 0
    assert (search_out / "genotype_max.json").exists()

    eval_cfg = tmp_path / "eval_cfg.txt"
    eval_cfg.write_text(TINY + f"run.output_dir = {tmp_path / 'eval'}\n")
    assert main(["eval", "--genotype", str(geno_path),
                 "--config", str(eval_cfg)]) == 0

    report_path = tmp_path / "ranks.txt"
    assert main(["ranks", "--checkpoint",
                 str(search_out / "checkpoints" / "epoch_0001.msrn"),
                 "--out", str(report_path)]) == 0
    report = report_path.read_text()
    assert report.startswith("# msrnas conv rank report")
    assert "rbar=" in report and "sigma=" in report

    capsys.readouterr()


def test_cli_error_categories(tmp_path, capsys):
    assert main(["search", "--config", str(tmp_path / "missing.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")

    bad_cfg = tmp_path / "bad.txt"
    bad_cfg.write_text("nonsense.key = 1\n")
    assert main(["search", "--config", str(bad_cfg)]) == 1
    assert capsys.readouterr().err.startswith("error[config]:")

    assert main(["derive", "--run", str(tmp_path / "nope")]) == 1
    assert capsys.readouterr().err.startswith("error[argument]:")

    assert main(["ranks", "--checkpoint", str(tmp_path / "nope.msrn")]) == 1
    assert capsys.readouterr().err.startswith("error[format]:")


def test_cli_eval_rejects_operator_outside_candidates(tmp_path, capsys):
    row = [["conv9", 0], ["sep3", 1]]
    geno = tmp_path / "geno.json"
    geno.write_text(json.dumps({"mode": "min", "nodes": 4,
                                "operators": ["sep3", "sep5", "dil3", "dil5", "conv9"],
                                "normal": [row], "reduce": [row]}))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY + f"run.output_dir = {tmp_path / 'eval'}\n")
    assert main(["eval", "--genotype", str(geno), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[genotype]: unknown operator 'conv9'")
    assert err.count("\n") == 1


def test_derive_is_deterministic_bytes(tmp_path, one_epoch_run):
    out, _, _ = one_epoch_run
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["derive", "--run", out, "--out", str(a)]) == 0
    assert main(["derive", "--run", out, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ranks_report_stable_across_invocations(tmp_path, one_epoch_run, capsys):
    out, _, _ = one_epoch_run
    ck = os.path.join(out, "checkpoints", "epoch_0001.msrn")
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    assert main(["ranks", "--checkpoint", ck, "--out", str(r1)]) == 0
    assert main(["ranks", "--checkpoint", ck, "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    capsys.readouterr()



def test_non_finite_diagnosis_names_layer_without_recording_graph():
    class Net(Module):
        def __init__(self):
            super().__init__()
            rng = np.random.default_rng(0)
            self.fc1 = Linear(3, 3, rng=rng, dtype=np.float64)
            self.fc2 = Linear(3, 2, rng=rng, dtype=np.float64)
            self.assign_paths("net")

        def forward(self, x):
            self.hidden = self.fc1(x)
            return self.fc2(self.hidden)

    net = Net()
    net.fc2.weight.data[0, 0] = np.inf
    images = Tensor(np.ones((4, 3)), requires_grad=True)
    culprit = _diagnose_non_finite(net, images, np.zeros(4, dtype=np.int64))
    assert "net.fc2" in culprit
    assert not net.hidden.requires_grad
