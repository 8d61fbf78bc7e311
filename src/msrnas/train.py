"""Search-stage and evaluation-stage training with run-dir artifacts.

A run directory owns: a config echo, a lock file, metrics.csv (deterministic
columns only), log.txt (human lines including wall time) and, for a search,
per-epoch checkpoints and rank tables.

Both stages run one epoch loop (``_train_epochs``): shuffle, batches, loss,
backward, momentum SGD, the held-out pass, metrics.csv and the log line. A
stage differs only in its shuffle salt and two hooks. The search stage's
pre-step hook adjusts every registered convolution's spectral norm after the
batch is drawn and before the forward pass; its end-of-epoch hook saves the
rank table and checkpoint, as it does once for epoch 0 before training. The
evaluation stage trains the derived architecture from scratch with no-op
hooks, then reports the last epoch's test loss and error. ``_in_locked_run``
holds the run directory's lock and writes the config echo around either
stage.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import layers
from .autodiff import Tensor, no_grad
from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import Dataset, batches, split_train_val
from .derive import Genotype, RankTable, load_rank_table, save_rank_table
from .errors import ArgumentError, FormatError, LockError, NumericsError, StateError
from .layers import cross_entropy
from .optim import TrainHyper, cosine_lr, sgd_momentum_step
from .supernet import (
    DiscreteNetwork,
    Supernet,
    build_discrete_network,
    build_supernet,
    collect_rank_table,
)

METRICS_HEADER = "epoch,train_loss,val_loss,lr"


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    wall_time: float = 0.0  # informational; excluded from the CSV


@dataclass
class MetricsLog:
    """Append-only per-epoch records with strictly increasing epochs."""

    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        if self.records and record.epoch <= self.records[-1].epoch:
            raise StateError(
                f"epoch {record.epoch} does not increase past "
                f"{self.records[-1].epoch}"
            )
        self.records.append(record)

    def to_csv(self) -> str:
        # Wall time stays out of the CSV so identically seeded runs are
        # byte-identical; it is logged in log.txt instead.
        lines = [METRICS_HEADER]
        for r in self.records:
            lines.append(f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.lr!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "MetricsLog":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != METRICS_HEADER:
            raise FormatError("metrics file missing expected header")
        log = cls()
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 4:
                raise FormatError(f"bad metrics row: {ln!r}")
            try:
                record = EpochRecord(int(parts[0]), *map(float, parts[1:]))
            except ValueError as exc:
                raise FormatError(f"bad number in metrics row {ln!r}: {exc}") from exc
            if not all(map(math.isfinite, (record.train_loss, record.val_loss,
                                           record.lr))):
                raise FormatError(f"bad number in metrics row {ln!r}: not finite")
            log.append(record)
        return log

    def best_epoch(self) -> int:
        """Epoch minimizing validation loss (earliest wins ties)."""
        if not self.records:
            raise ArgumentError("metrics log is empty; nothing to choose from")
        best = min(self.records, key=lambda r: (r.val_loss, r.epoch))
        return best.epoch


class RunDir:
    """Paths and exclusive ownership of one run's output directory."""

    def __init__(self, root: str):
        self.root = root
        self._lock_handle = None

    @property
    def checkpoints(self) -> str:
        return os.path.join(self.root, "checkpoints")

    @property
    def ranks(self) -> str:
        return os.path.join(self.root, "ranks")

    @property
    def metrics_path(self) -> str:
        return os.path.join(self.root, "metrics.csv")

    @property
    def log_path(self) -> str:
        return os.path.join(self.root, "log.txt")

    @property
    def config_path(self) -> str:
        return os.path.join(self.root, "config.txt")

    def checkpoint_path(self, epoch: int) -> str:
        return os.path.join(self.checkpoints, f"epoch_{epoch:04d}.msrn")

    def rank_table_path(self, epoch: int) -> str:
        return os.path.join(self.ranks, f"epoch_{epoch:04d}.txt")

    def acquire_lock(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        lock = os.path.join(self.root, "lock")
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise LockError(
                f"run directory {self.root} is locked by another run "
                f"(remove {lock} if stale)"
            ) from None
        os.write(fd, f"pid {os.getpid()}\n".encode())
        os.close(fd)
        self._lock_handle = lock

    def release_lock(self) -> None:
        if self._lock_handle and os.path.exists(self._lock_handle):
            os.unlink(self._lock_handle)
        self._lock_handle = None

    def log_line(self, text: str) -> None:
        with open(self.log_path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _epoch_shuffle_seed(base_seed: int, epoch: int, salt: int) -> int:
    mix = np.random.Generator(np.random.PCG64([base_seed & 0xFFFFFFFF, salt, epoch]))
    return int(mix.integers(0, 2**31 - 1))


def _diagnose_non_finite(net, images: Tensor, labels: np.ndarray) -> str:
    """Re-run the forward with per-layer checks to name the first bad tensor."""
    layers.check_finite = True
    try:
        with no_grad():
            loss = cross_entropy(net(images), labels)
        if not np.isfinite(loss.data).all():
            return "loss"
    except NumericsError as exc:
        return str(exc)
    finally:
        layers.check_finite = False
    return "unknown tensor"


def _held_out_pass(net, ds: Dataset, batch_size: int) -> tuple[float, float]:
    """Dataset mean cross-entropy and error rate in eval mode, from one pass
    (no augmentation, no graph)."""
    net.eval()
    total = 0.0
    hits = 0
    count = 0
    with no_grad():
        for imgs, labels in batches(ds, batch_size, shuffle_seed=None, augment=False):
            logits = net(Tensor(imgs))
            total += float(cross_entropy(logits, labels).data) * len(labels)
            hits += int((logits.data.argmax(axis=1) == labels).sum())
            count += len(labels)
    net.train()
    return total / max(count, 1), 1.0 - hits / max(count, 1)


def _train_epochs(cfg: RunConfig, hyper: TrainHyper, run: RunDir, net,
                  train_ds: Dataset, held_out: Dataset, held_out_label: str, *,
                  salt: int, before_step, end_epoch
                  ) -> tuple[MetricsLog, tuple[float, float] | None]:
    """The epoch loop both stages share; returns the metrics and the last
    epoch's held-out (loss, error), None when no epoch ran.

    ``before_step()`` runs after each training batch is drawn and before
    its forward pass; ``end_epoch(epoch)`` runs after the held-out pass.
    metrics.csv is rewritten each epoch (header only before the first).
    """
    store = net.param_store()
    metrics = MetricsLog()
    held_out_pass = None
    with open(run.metrics_path, "w", encoding="utf-8") as fh:
        fh.write(metrics.to_csv())
    for epoch in range(1, hyper.epochs + 1):
        t0 = time.time()
        lr = cosine_lr(epoch - 1, hyper.epochs, hyper.initial_lr)
        shuffle_seed = _epoch_shuffle_seed(int(cfg["run.seed"]), epoch, salt)
        total_loss = 0.0
        seen = 0
        for imgs, labels in batches(train_ds, hyper.batch_size,
                                    shuffle_seed=shuffle_seed,
                                    augment=bool(cfg["data.augment"])):
            before_step()
            store.zero_grad()
            images = Tensor(imgs)
            loss = cross_entropy(net(images), labels)
            if not np.isfinite(loss.data).all():
                culprit = _diagnose_non_finite(net, images, labels)
                raise NumericsError(
                    f"non-finite loss at epoch {epoch}; first bad tensor: {culprit}"
                )
            loss.backward()
            sgd_momentum_step(store, lr, hyper)
            total_loss += float(loss.data) * len(labels)
            seen += len(labels)
        train_loss = total_loss / seen
        held_out_pass = _held_out_pass(net, held_out, hyper.batch_size)
        held_out_loss = held_out_pass[0]
        if not math.isfinite(held_out_loss):
            raise NumericsError(f"non-finite {held_out_label} loss at epoch {epoch}")
        record = EpochRecord(epoch=epoch, train_loss=train_loss,
                             val_loss=held_out_loss, lr=lr,
                             wall_time=time.time() - t0)
        metrics.append(record)
        end_epoch(epoch)
        with open(run.metrics_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_csv())
        run.log_line(
            f"epoch {epoch}: train_loss={train_loss:.4f} "
            f"{held_out_label}_loss={held_out_loss:.4f} lr={lr:.5f} "
            f"wall={record.wall_time:.1f}s"
        )
    return metrics, held_out_pass


def _in_locked_run(cfg: RunConfig, out_dir: str | None, stage):
    """Run ``stage(run, hyper)`` holding the run directory's lock, after
    checking the training hyperparameters and writing the config echo."""
    run = RunDir(out_dir or cfg["run.output_dir"])
    run.acquire_lock()
    try:
        hyper = cfg.make_train_hyper()
        with open(run.config_path, "w", encoding="utf-8") as fh:
            fh.write(cfg.to_text())
        return stage(run, hyper)
    finally:
        run.release_lock()


def _no_op(*_args) -> None:
    pass


@dataclass
class SearchResult:
    run_dir: RunDir
    metrics: MetricsLog
    final_table: RankTable
    net: Supernet


def run_search(cfg: RunConfig, out_dir: str | None = None) -> SearchResult:
    """Train the supernet, snapshotting checkpoint + rank table per epoch."""
    return _in_locked_run(cfg, out_dir, partial(_search, cfg))


def _search(cfg: RunConfig, run: RunDir, hyper: TrainHyper) -> SearchResult:
    spectral_cfg = cfg.make_spectral_config()
    os.makedirs(run.checkpoints, exist_ok=True)
    os.makedirs(run.ranks, exist_ok=True)
    corpus, _ = cfg.make_datasets()
    train_ds, val_ds = split_train_val(corpus, cfg.make_split_spec())
    net = build_supernet(cfg.make_supernet_config(), spectral_cfg,
                         dtype=cfg.dtype, seed=int(cfg["run.seed"]))
    run.log_line(
        f"search start: {len(train_ds)} train / {len(val_ds)} val samples, "
        f"{len(net.handles)} spectral handles, {hyper.epochs} epochs"
    )
    table = None

    def snapshot(epoch: int) -> None:
        nonlocal table
        table = collect_rank_table(net, epoch=epoch)
        save_checkpoint(run.checkpoint_path(epoch), net, epoch)
        save_rank_table(run.rank_table_path(epoch), table)

    def adjust() -> None:
        net.begin_step()
        net.adjust_all()

    # Precise initial normalization so training starts on the constraint
    # surface; per-step upkeep then only needs the short warm-started loop.
    net.begin_step()
    net.adjust_all(iterations=spectral_cfg.rank_iterations)
    snapshot(0)
    metrics, _ = _train_epochs(cfg, hyper, run, net, train_ds, val_ds, "val",
                               salt=0xBA7C, before_step=adjust, end_epoch=snapshot)
    return SearchResult(run_dir=run, metrics=metrics, final_table=table, net=net)


def choose_epoch(run_root: str, epoch: int | None, policy: str) -> int:
    """Resolve which epoch's rank table derivation should use."""
    if epoch is not None:
        return epoch
    if policy.startswith("fixed:"):
        return int(policy.split(":", 1)[1])
    metrics_path = RunDir(run_root).metrics_path
    try:
        with open(metrics_path, "r", encoding="utf-8") as fh:
            log = MetricsLog.from_csv(fh.read())
    except OSError as exc:
        raise ArgumentError(
            f"cannot resolve epoch: no metrics at {metrics_path} ({exc})"
        ) from exc
    return log.best_epoch()


def load_epoch_table(run_root: str, epoch: int) -> RankTable:
    path = RunDir(run_root).rank_table_path(epoch)
    if not os.path.exists(path):
        raise ArgumentError(f"no rank table for epoch {epoch} at {path}")
    return load_rank_table(path)


@dataclass
class EvalResult:
    run_dir: RunDir
    metrics: MetricsLog
    test_loss: float
    test_error: float
    net: DiscreteNetwork


def run_eval(cfg: RunConfig, genotype: Genotype,
             out_dir: str | None = None) -> EvalResult:
    """Train the derived architecture from scratch and report test metrics."""
    return _in_locked_run(cfg, out_dir, partial(_eval, cfg, genotype))


def _eval(cfg: RunConfig, genotype: Genotype, run: RunDir,
          hyper: TrainHyper) -> EvalResult:
    train_ds, test_ds = cfg.make_datasets()
    net = build_discrete_network(genotype, cfg.make_supernet_config(),
                                 dtype=cfg.dtype, seed=int(cfg["run.seed"]))
    run.log_line(
        f"eval start: {len(train_ds)} train / {len(test_ds)} test samples, "
        f"genotype mode={genotype.mode}, {hyper.epochs} epochs"
    )
    metrics, last_pass = _train_epochs(cfg, hyper, run, net, train_ds, test_ds, "test",
                                       salt=0xE7A1, before_step=_no_op, end_epoch=_no_op)
    # The last epoch's test pass used the final weights; only a 0-epoch eval
    # needs a pass of its own.
    test_loss, test_error = last_pass or _held_out_pass(net, test_ds, hyper.batch_size)
    run.log_line(f"final: test_loss={test_loss:.4f} test_error={test_error:.4f}")
    with open(os.path.join(run.root, "result.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"test_loss {test_loss!r}\ntest_error {test_error!r}\n")
    return EvalResult(run_dir=run, metrics=metrics, test_loss=test_loss,
                      test_error=test_error, net=net)
