"""Search-stage and evaluation-stage training loops with run-dir artifacts.

A run directory owns: a config echo, a lock file, metrics.csv (deterministic
columns only), log.txt (human lines including wall time), per-epoch
checkpoints, and per-epoch rank tables. The search loop adjusts every
registered convolution's spectral norm before each forward pass; the
evaluation loop trains the derived architecture from scratch with no
spectral machinery.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

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
            log.append(EpochRecord(
                epoch=int(parts[0]),
                train_loss=float(parts[1]),
                val_loss=float(parts[2]),
                lr=float(parts[3]),
            ))
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
        os.makedirs(root, exist_ok=True)
        os.makedirs(self.checkpoints, exist_ok=True)
        os.makedirs(self.ranks, exist_ok=True)
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

    def genotype_path(self, mode: str) -> str:
        return os.path.join(self.root, f"genotype_{mode}.json")

    def acquire_lock(self) -> None:
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


def _mean_loss(net, ds: Dataset, batch_size: int) -> float:
    """Dataset mean cross-entropy in eval mode (no augmentation, no graph)."""
    net.eval()
    total = 0.0
    count = 0
    with no_grad():
        for imgs, labels in batches(ds, batch_size, shuffle_seed=None, augment=False):
            loss = cross_entropy(net(Tensor(imgs)), labels)
            total += float(loss.data) * len(labels)
            count += len(labels)
    net.train()
    return total / max(count, 1)


def _accuracy(net, ds: Dataset, batch_size: int) -> float:
    net.eval()
    hits = 0
    with no_grad():
        for imgs, labels in batches(ds, batch_size, shuffle_seed=None, augment=False):
            logits = net(Tensor(imgs))
            hits += int((logits.data.argmax(axis=1) == labels).sum())
    net.train()
    return hits / len(ds)


@dataclass
class SearchResult:
    run_dir: RunDir
    metrics: MetricsLog
    final_table: RankTable
    net: Supernet


def run_search(cfg: RunConfig, out_dir: str | None = None) -> SearchResult:
    """Train the supernet, snapshotting checkpoint + rank table per epoch."""
    run = RunDir(out_dir or cfg["run.output_dir"])
    run.acquire_lock()
    try:
        return _run_search_locked(cfg, run)
    finally:
        run.release_lock()


def _run_search_locked(cfg: RunConfig, run: RunDir) -> SearchResult:
    hyper = cfg.make_train_hyper()
    net_cfg = cfg.make_supernet_config()
    spectral_cfg = cfg.make_spectral_config()
    with open(run.config_path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())

    corpus, _ = cfg.make_datasets()
    train_ds, val_ds = split_train_val(corpus, cfg.make_split_spec())
    net = build_supernet(net_cfg, spectral_cfg, dtype=cfg.dtype,
                         seed=int(cfg["run.seed"]))
    store = net.param_store()
    run.log_line(
        f"search start: {len(train_ds)} train / {len(val_ds)} val samples, "
        f"{len(net.handles)} spectral handles, {hyper.epochs} epochs"
    )

    # Precise initial normalization so training starts on the constraint
    # surface; per-step upkeep then only needs the short warm-started loop.
    net.begin_step()
    net.adjust_all(iterations=spectral_cfg.rank_iterations)

    metrics = MetricsLog()
    table = collect_rank_table(net, epoch=0)
    save_checkpoint(run.checkpoint_path(0), net, 0)
    save_rank_table(run.rank_table_path(0), table)

    for epoch in range(1, hyper.epochs + 1):
        t0 = time.time()
        lr = cosine_lr(epoch - 1, hyper.epochs, hyper.initial_lr)
        shuffle_seed = _epoch_shuffle_seed(int(cfg["run.seed"]), epoch, 0xBA7C)
        total_loss = 0.0
        seen = 0
        for imgs, labels in batches(train_ds, hyper.batch_size,
                                    shuffle_seed=shuffle_seed,
                                    augment=bool(cfg["data.augment"])):
            net.begin_step()
            net.adjust_all()
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
        val_loss = _mean_loss(net, val_ds, hyper.batch_size)
        record = EpochRecord(epoch=epoch, train_loss=train_loss,
                             val_loss=val_loss, lr=lr,
                             wall_time=time.time() - t0)
        metrics.append(record)
        table = collect_rank_table(net, epoch=epoch)
        save_checkpoint(run.checkpoint_path(epoch), net, epoch)
        save_rank_table(run.rank_table_path(epoch), table)
        with open(run.metrics_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_csv())
        run.log_line(
            f"epoch {epoch}: train_loss={train_loss:.4f} "
            f"val_loss={val_loss:.4f} lr={lr:.5f} "
            f"wall={record.wall_time:.1f}s"
        )
    if not metrics.records:
        with open(run.metrics_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_csv())
    return SearchResult(run_dir=run, metrics=metrics, final_table=table, net=net)


def choose_epoch(run_root: str, epoch: int | None, policy: str) -> int:
    """Resolve which epoch's rank table derivation should use."""
    if epoch is not None:
        return epoch
    if policy.startswith("fixed:"):
        return int(policy.split(":", 1)[1])
    metrics_path = os.path.join(run_root, "metrics.csv")
    try:
        with open(metrics_path, "r", encoding="utf-8") as fh:
            log = MetricsLog.from_csv(fh.read())
    except OSError as exc:
        raise ArgumentError(
            f"cannot resolve epoch: no metrics at {metrics_path} ({exc})"
        ) from exc
    return log.best_epoch()


def load_epoch_table(run_root: str, epoch: int) -> RankTable:
    path = os.path.join(run_root, "ranks", f"epoch_{epoch:04d}.txt")
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
    run = RunDir(out_dir or cfg["run.output_dir"])
    run.acquire_lock()
    try:
        return _run_eval_locked(cfg, genotype, run)
    finally:
        run.release_lock()


def _run_eval_locked(cfg: RunConfig, genotype: Genotype, run: RunDir) -> EvalResult:
    hyper = cfg.make_train_hyper()
    net_cfg = cfg.make_supernet_config()
    with open(run.config_path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())
    train_ds, test_ds = cfg.make_datasets()
    net = build_discrete_network(genotype, net_cfg, dtype=cfg.dtype,
                                 seed=int(cfg["run.seed"]))
    store = net.param_store()
    run.log_line(
        f"eval start: {len(train_ds)} train / {len(test_ds)} test samples, "
        f"genotype mode={genotype.mode}, {hyper.epochs} epochs"
    )
    metrics = MetricsLog()
    for epoch in range(1, hyper.epochs + 1):
        t0 = time.time()
        lr = cosine_lr(epoch - 1, hyper.epochs, hyper.initial_lr)
        shuffle_seed = _epoch_shuffle_seed(int(cfg["run.seed"]), epoch, 0xE7A1)
        total_loss = 0.0
        seen = 0
        for imgs, labels in batches(train_ds, hyper.batch_size,
                                    shuffle_seed=shuffle_seed,
                                    augment=bool(cfg["data.augment"])):
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
        test_loss = _mean_loss(net, test_ds, hyper.batch_size)
        record = EpochRecord(epoch=epoch, train_loss=train_loss,
                             val_loss=test_loss, lr=lr,
                             wall_time=time.time() - t0)
        metrics.append(record)
        with open(run.metrics_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_csv())
        run.log_line(
            f"epoch {epoch}: train_loss={train_loss:.4f} "
            f"test_loss={test_loss:.4f} lr={lr:.5f} "
            f"wall={record.wall_time:.1f}s"
        )
    test_loss = _mean_loss(net, test_ds, hyper.batch_size)
    test_error = 1.0 - _accuracy(net, test_ds, hyper.batch_size)
    run.log_line(f"final: test_loss={test_loss:.4f} test_error={test_error:.4f}")
    with open(os.path.join(run.root, "result.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"test_loss {test_loss!r}\ntest_error {test_error!r}\n")
    return EvalResult(run_dir=run, metrics=metrics, test_loss=test_loss,
                      test_error=test_error, net=net)
