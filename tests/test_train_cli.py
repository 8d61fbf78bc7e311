"""Pipeline harness: run directories, metrics, derivation epoch, CLI
subcommands, artifact round-trips, and determinism."""

import errno
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from msrnas import supernet, train
from msrnas.autodiff import Tensor
from msrnas.cli import main
from msrnas.config import config_from_text
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
    (tmp_path / "metrics.csv").write_text(text)
    assert main(["derive", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[format]: bad number") and err.count("\n") == 1


@pytest.mark.parametrize("rows", [["1,0.5,0.6,0.1", "1,0.5,0.6,0.1"],
                                  ["2,0.5,0.6,0.1", "1,0.5,0.6,0.1"]],
                         ids=["repeated", "decreasing"])
def test_metrics_epoch_out_of_order_is_format_error(tmp_path, capsys, rows):
    text = "\n".join([METRICS_HEADER, *rows]) + "\n"
    with pytest.raises(FormatError, match="bad metrics row '1,0.5,0.6,0.1': epoch 1"):
        MetricsLog.from_csv(text)
    (tmp_path / "metrics.csv").write_text(text)
    assert main(["derive", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[format]: bad metrics row") and err.count("\n") == 1


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
    assert choose_epoch(run.root, None) == 2
    assert choose_epoch(run.root, 3) == 3
    assert choose_epoch(run.root, 1) == 1


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


def test_non_finite_training_loss_names_the_stem_conv(tmp_path, capsys, monkeypatch):
    def one_inf_pixel(ds, batch_size, *, shuffle_seed, augment):
        for imgs, labels in train_batches(ds, batch_size, shuffle_seed=shuffle_seed,
                                          augment=augment):
            if shuffle_seed is not None:  # a training batch
                imgs[0, 0, 0, 0] = np.inf
            yield imgs, labels

    train_batches = train.batches
    monkeypatch.setattr(train, "batches", one_inf_pixel)
    message = ("non-finite loss at epoch 1; first bad tensor: "
               "non-finite output in net.stem.conv")
    out = tmp_path / "api"
    # inf times a zero band entry is nan; a numpy warning would fail the suite.
    with pytest.raises(NumericsError) as caught:
        run_search(tiny_cfg(str(out)))
    assert str(caught.value) == message
    with open(out / "metrics.csv") as fh:
        assert fh.read() == METRICS_HEADER + "\n"
    assert os.listdir(out / "checkpoints") == ["epoch_0000.msrn"]
    assert os.listdir(out / "ranks") == ["epoch_0000.txt"]
    assert not os.path.exists(out / "lock")

    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY + f"run.output_dir = {tmp_path / 'cli'}\n")
    assert main(["search", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error[numerics]: {message}\n"
    assert not os.path.exists(tmp_path / "cli" / "lock")


def test_non_finite_training_loss_names_a_sepconvs_pw1(tmp_path, monkeypatch):
    # The first step's adjust leaves an inf in one SepConv's first 1x1 conv;
    # that conv runs inside its BatchNorm's node, which names it.
    adjust_all = supernet.Supernet.adjust_all

    def poisoning_adjust(net, iterations=None):
        adjust_all(net, iterations)
        if iterations is None:  # a training step's adjust
            net.cells[1].edges[(1, 3)].op_sep5.pw1.weight.data[0, 0] = np.inf

    monkeypatch.setattr(supernet.Supernet, "adjust_all", poisoning_adjust)
    with pytest.raises(NumericsError) as caught:
        run_search(tiny_cfg(str(tmp_path / "api")))
    assert str(caught.value) == (
        "non-finite loss at epoch 1; first bad tensor: "
        "non-finite output in net.cell1.edge_1_3.op_sep5.pw1")


def test_reading_a_run_creates_no_directory(tmp_path, capsys):
    missing = tmp_path / "missing"
    run = RunDir(str(missing))
    assert not missing.exists()
    with pytest.raises(ArgumentError):
        choose_epoch(run.root, None)
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


def dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


def write_lock(root, text: str) -> str:
    os.makedirs(root, exist_ok=True)
    lock = os.path.join(root, "lock")
    with open(lock, "w", encoding="utf-8") as fh:
        fh.write(text)
    return lock


def test_lock_of_a_dead_process_is_taken_over(tmp_path):
    run = RunDir(str(tmp_path / "r"))
    lock = write_lock(run.root, f"pid {dead_pid()}\n")
    run.acquire_lock()
    with open(lock, encoding="utf-8") as fh:
        assert fh.read() == f"pid {os.getpid()}\n"
    assert os.listdir(run.root) == ["lock"]
    run.release_lock()


# Takes the run-dir lock of argv[1], says so, then holds it until killed or
# until its stdin closes.
HOLD_LOCK = """
import sys
from msrnas.train import RunDir
RunDir(sys.argv[1]).acquire_lock()
print("locked", flush=True)
sys.stdin.read()
"""


@contextmanager
def lock_holder(root: str):
    """A child process holding the lock of run directory ``root``; it is
    killed and waited for on exit."""
    src = os.path.dirname(os.path.dirname(train.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen([sys.executable, "-c", HOLD_LOCK, root], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        try:
            assert child.stdout.readline() == b"locked\n"
            yield child
        finally:
            child.kill()


def test_lock_held_by_a_live_process_is_kept_until_it_is_killed(tmp_path):
    run = RunDir(str(tmp_path / "r"))
    with lock_holder(run.root) as child:
        with open(run.lock_path, encoding="utf-8") as fh:
            held = fh.read()
        assert held == f"pid {child.pid}\n"
        with pytest.raises(LockError, match="locked by another run"):
            run.acquire_lock()
        with open(run.lock_path, encoding="utf-8") as fh:
            assert fh.read() == held
        child.kill()
        child.wait()
    # The killed holder left its lock file; no one removes it.
    assert os.listdir(run.root) == ["lock"]
    run.acquire_lock()
    with open(run.lock_path, encoding="utf-8") as fh:
        assert fh.read() == f"pid {os.getpid()}\n"
    run.release_lock()
    assert os.listdir(run.root) == []


@pytest.mark.parametrize("text", ["pid {own}\n", "pid 1\n", "", "lock 12\n",
                                  "pid 4194304 of a run killed long ago\n"])
def test_lock_file_no_process_holds_is_taken_whatever_it_says(tmp_path, text):
    run = RunDir(str(tmp_path / "r"))
    write_lock(run.root, text.format(own=os.getpid()))
    run.acquire_lock()
    with open(run.lock_path, encoding="utf-8") as fh:
        assert fh.read() == f"pid {os.getpid()}\n"
    assert os.listdir(run.root) == ["lock"]
    run.release_lock()


@pytest.mark.parametrize("replaced", [True, False], ids=["replaced", "removed"])
def test_lock_released_between_open_and_flock_is_retried(tmp_path, monkeypatch,
                                                         replaced):
    # A holder releases (unlinks the file, then unlocks) after this run
    # opened the file and before it locks it; another run may already have
    # created a new one. This run must end up holding the file at the path.
    run = RunDir(str(tmp_path / "r"))
    lock = write_lock(run.root, "pid 1\n")
    flock = fcntl.flock
    calls = []

    def released_meanwhile(fd, op):
        calls.append(op)
        if len(calls) == 1:
            os.unlink(lock)
            if replaced:
                write_lock(run.root, "pid 1\n")
        return flock(fd, op)

    monkeypatch.setattr(fcntl, "flock", released_meanwhile)
    run.acquire_lock()
    assert len(calls) == 2
    monkeypatch.undo()
    with open(lock, encoding="utf-8") as fh:
        assert fh.read() == f"pid {os.getpid()}\n"
    with pytest.raises(LockError):
        RunDir(run.root).acquire_lock()
    run.release_lock()
    assert os.listdir(run.root) == []


def test_release_leaves_a_lock_file_it_does_not_hold(tmp_path):
    # The lock file of a live run was removed by hand and another run has
    # locked a new one; the first run's release must not remove it.
    run = RunDir(str(tmp_path / "r"))
    run.acquire_lock()
    os.unlink(run.lock_path)
    other = RunDir(run.root)
    other.acquire_lock()
    run.release_lock()
    assert os.listdir(run.root) == ["lock"]
    other.release_lock()
    assert os.listdir(run.root) == []


def test_lock_is_released_when_writing_its_pid_fails(tmp_path, monkeypatch):
    def disk_full(fd, length):
        raise OSError(errno.ENOSPC, "No space left on device")

    root = str(tmp_path / "r")
    monkeypatch.setattr(os, "ftruncate", disk_full)
    with pytest.raises(OSError, match="No space left"):
        with train._locked_run(tiny_cfg(root), None):
            pass
    monkeypatch.undo()
    assert os.listdir(root) == []
    run = RunDir(root)
    run.acquire_lock()
    run.release_lock()


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
    assert not [name for _, _, names in os.walk(out) for name in names
                if name.endswith(".tmp")]
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
    epoch = choose_epoch(out, None)
    table = load_epoch_table(out, epoch)
    geno = derive_genotype(table, mode=SelectionMode.MIN_STABLE_RANK)
    eval_cfg = tiny_cfg(str(tmp_path / "eval"), epochs=1)
    result = run_eval(eval_cfg, geno)
    assert 0.0 <= result.test_error <= 1.0
    assert np.isfinite(result.test_loss)
    assert os.path.exists(os.path.join(result.run_dir.root, "result.txt"))
    # The final test metrics come from the last epoch's test pass.
    assert result.test_loss == result.metrics.records[-1].val_loss


def test_eval_run_dir_has_no_search_dirs(tmp_path, capsys, one_epoch_run):
    _, _, searched = one_epoch_run
    geno = derive_genotype(searched.final_table, mode=SelectionMode.MIN_STABLE_RANK)
    result = run_eval(tiny_cfg(str(tmp_path / "eval"), epochs=1), geno)
    root = result.run_dir.root
    assert sorted(os.listdir(root)) == [
        "config.txt", "log.txt", "metrics.csv", "result.txt"]
    # Its config echo does not make it a search run to derive from.
    assert main(["derive", "--run", root]) == 1
    err = capsys.readouterr().err
    assert err == (f"error[argument]: no rank table for epoch 1 at "
                   f"{RunDir(root).rank_table_path(1)}\n")


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
        choose_epoch(out, None)

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


def test_cli_error_categories(tmp_path, capsys, one_epoch_run):
    assert main(["search", "--config", str(tmp_path / "missing.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")

    bad_cfg = tmp_path / "bad.txt"
    bad_cfg.write_text("nonsense.key = 1\n")
    assert main(["search", "--config", str(bad_cfg)]) == 1
    assert capsys.readouterr().err.startswith("error[config]:")

    assert main(["derive", "--run", str(tmp_path / "nope")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[argument]: cannot resolve epoch: no metrics at")
    assert err.count("\n") == 1

    assert main(["ranks", "--checkpoint", str(tmp_path / "nope.msrn")]) == 1
    assert capsys.readouterr().err.startswith("error[format]:")

    # An output path under a plain file cannot be written.
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY)
    run = one_epoch_run[0]
    checkpoint = RunDir(run).checkpoint_path(1)
    for argv in (["search", "--config", str(cfg), "--out", str(a_file)],
                 ["derive", "--run", run, "--out", str(a_file / "g.json")],
                 ["ranks", "--checkpoint", checkpoint, "--out", str(a_file / "r.txt")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[io]: ") and err.count("\n") == 1, argv


# Each reader treats a file that is not UTF-8 as it treats a malformed one.
NOT_UTF8 = [("config", "config"), ("genotype", "format"), ("rank table", "format"),
            ("metrics", "format")]


@pytest.mark.parametrize("reader,category", NOT_UTF8, ids=[r for r, _ in NOT_UTF8])
def test_non_utf8_input_is_a_malformed_file(tmp_path, capsys, one_epoch_run,
                                            reader, category):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff not text\n")
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY + f"run.output_dir = {out}\n")
    run = RunDir(str(tmp_path / "search"))
    shutil.copytree(one_epoch_run[0], run.root)
    shutil.copy(bad, run.rank_table_path(1))
    shutil.copy(bad, run.metrics_path)
    argv = {"config": ["search", "--config", str(bad)],
            "genotype": ["eval", "--config", str(cfg), "--genotype", str(bad)],
            "rank table": ["derive", "--run", run.root, "--epoch", "1"],
            "metrics": ["derive", "--run", run.root]}[reader]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[{category}]: ") and err.count("\n") == 1
    assert not out.exists()


def test_a_run_never_writes_into_another_runs_directory(tmp_path, capsys,
                                                        one_epoch_run):
    searched = str(tmp_path / "search")
    shutil.copytree(one_epoch_run[0], searched)
    geno = tmp_path / "geno.json"
    geno.write_text(derive_genotype(one_epoch_run[2].final_table,
                                    mode=SelectionMode.MIN_STABLE_RANK).to_json_str())
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY)
    # A directory that holds only a lock no process holds is taken.
    evaluated = str(tmp_path / "eval")
    write_lock(evaluated, f"pid {dead_pid()}\n")
    assert main(["eval", "--config", str(cfg), "--genotype", str(geno),
                 "--out", evaluated]) == 0
    capsys.readouterr()

    for command, out in (("search", searched), ("eval", searched), ("eval", evaluated)):
        before = run_dir_bytes(out, sorted(os.listdir(out)))
        argv = [command, "--config", str(cfg), "--out", out]
        if command == "eval":
            argv += ["--genotype", str(geno)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error[state]: {out} already holds a run; choose another output "
            "directory\n")
        assert run_dir_bytes(out, sorted(os.listdir(out))) == before


def with_setting(text: str, key: str, value: str) -> str:
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


# (subcommand, key, bad value, error category); eval runs a 5-node genotype.
BAD_RUNS = [
    ("search", "split.seed", "-1", "config"),
    ("search", "net.nodes", "3", "construction"),
    # Every cell is a reduction cell, so the rank table could not be complete.
    ("search", "net.cells", "2", "construction"),
    ("search", "net.cells", "1", "construction"),
    ("search", "data.height", "4", "argument"),
    ("search", "spectral.iterations", "0", "config"),
    ("search", "train.epochs", "-1", "config"),
    ("eval", "net.nodes", "6", "genotype"),
]


@pytest.mark.parametrize("command,key,value,category", BAD_RUNS,
                         ids=[f"{c}-{k}={v}" for c, k, v, _ in BAD_RUNS])
def test_bad_config_leaves_no_run_dir(tmp_path, capsys, command, key, value, category):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(with_setting(TINY, key, value) + f"run.output_dir = {out}\n")
    argv = [command, "--config", str(cfg)]
    if command == "eval":
        rows = [[("sep3", 0), ("sep3", 1)], [("dil3", 0), ("sep5", 2)]]
        geno = tmp_path / "geno.json"
        geno.write_text(Genotype(mode="min", nodes=5, operators=OPERATOR_NAMES,
                                 normal=rows, reduce=rows).to_json_str())
        argv += ["--genotype", str(geno)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[{category}]: ") and err.count("\n") == 1
    assert not out.exists()


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


def test_derive_reads_no_config_echo(tmp_path, one_epoch_run):
    # Derivation reads only ranks/ and metrics.csv, so a config echo that
    # names a key this version does not know does not stop it.
    out = str(tmp_path / "search")
    shutil.copytree(one_epoch_run[0], out)
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert main(["derive", "--run", out, "--out", str(before)]) == 0
    with open(RunDir(out).config_path, "a", encoding="utf-8") as fh:
        fh.write("spectral.frobenius_mode = exact\n")
    assert main(["derive", "--run", out, "--out", str(after)]) == 0
    assert after.read_bytes() == before.read_bytes()


def test_derive_writes_the_run_dirs_genotype_whole(tmp_path, one_epoch_run,
                                                 monkeypatch, capsys):
    out = str(tmp_path / "search")
    shutil.copytree(one_epoch_run[0], out)
    run = RunDir(out)
    assert main(["derive", "--run", out, "--mode", "max"]) == 0
    assert capsys.readouterr().out.endswith(f"-> {run.genotype_path('max')}\n")
    with open(run.genotype_path("max"), encoding="utf-8") as fh:
        written = fh.read()
    Genotype.from_json_str(written).validate()

    # A derive that fails while writing keeps the earlier genotype.
    def failing(self):
        raise OSError("disk full")

    monkeypatch.setattr(Genotype, "to_json_str", failing)
    assert main(["derive", "--run", out, "--mode", "max"]) == 1
    assert capsys.readouterr().err == "error[io]: disk full\n"
    with open(run.genotype_path("max"), encoding="utf-8") as fh:
        assert fh.read() == written
    assert not [name for _, _, names in os.walk(out) for name in names
                if name.endswith(".tmp")]


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
