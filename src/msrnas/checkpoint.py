"""Self-describing binary tensor container and network checkpointing.

Layout: 4 magic bytes "MSRN", little-endian u32 version, then a sequence of
records, each: u32 name length, utf-8 name, u8 dtype code (0=f32, 1=f64),
u32 ndim, ndim x u64 extents, raw row-major data. The checkpoint stores all
parameter tensors (value, momentum), batchnorm running statistics,
power-iteration vectors, the epoch counter, and enough configuration scalars
to rebuild the network from the file alone. Gradients are not stored,
because every step clears them before use; ``grad/*`` records and the
``meta/spectral/frobenius_kernel`` scalar of older files are ignored on load.

Every file msrnas writes whole (checkpoints, rank tables, metrics, config
echo, result, derived genotype, rank report) goes through ``atomic_open``,
so a run killed mid-write leaves the previous version of the file, never a
truncated one.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager, suppress

import numpy as np

from .errors import FormatError
from .spectral import SpectralConfig

MAGIC = b"MSRN"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing and move it over ``path`` once the
    block completes; if the block raises, the temporary file is removed and
    ``path`` keeps its earlier contents. Text modes write UTF-8."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float arrays; iteration order is preserved on load."""
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, arr in tensors.items():
            arr = np.asarray(arr)
            if arr.dtype == np.float32:
                code, out = 0, arr.astype("<f4")
            elif arr.dtype == np.float64:
                code, out = 1, arr.astype("<f8")
            else:
                raise FormatError(
                    f"tensor '{name}' has unsupported dtype {arr.dtype}; "
                    "only f32/f64 are stored"
                )
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BI", code, out.ndim))
            fh.write(struct.pack(f"<{out.ndim}Q", *out.shape))
            fh.write(out.tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic bytes {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    offset = 8
    tensors: dict[str, np.ndarray] = {}
    while offset < len(raw):
        try:
            (name_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            name = raw[offset: offset + name_len].decode("utf-8")
            offset += name_len
            code, ndim = struct.unpack_from("<BI", raw, offset)
            offset += 5
            shape = struct.unpack_from(f"<{ndim}Q", raw, offset)
            offset += 8 * ndim
            dtype = _DTYPE_CODES[code]
            count = int(np.prod(shape)) if ndim else 1
            nbytes = count * dtype.itemsize
            data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
            offset += nbytes
        except (struct.error, KeyError, ValueError) as exc:
            raise FormatError(
                f"{path}: corrupt record at byte offset {offset}: {exc}"
            ) from exc
        if offset > len(raw):
            raise FormatError(f"{path}: truncated tensor data for '{name}'")
        tensors[name] = data.reshape(shape).copy()
    return tensors


# Network-level checkpointing -------------------------------------------------


def _meta_scalar(value) -> np.ndarray:
    return np.asarray(float(value), dtype=np.float64)


def checkpoint_tensors(net, epoch: int) -> dict[str, np.ndarray]:
    """Collect every persistent array of a supernet into one named dict."""
    cfg = net.cfg
    scfg = net.spectral_cfg
    tensors: dict[str, np.ndarray] = {
        "meta/epoch": _meta_scalar(epoch),
        "meta/dtype": _meta_scalar(0 if net.dtype == np.float32 else 1),
        "meta/net/cells": _meta_scalar(cfg.cells),
        "meta/net/nodes": _meta_scalar(cfg.nodes),
        "meta/net/initial_channels": _meta_scalar(cfg.initial_channels),
        "meta/net/num_classes": _meta_scalar(cfg.num_classes),
        "meta/net/input_channels": _meta_scalar(cfg.input_channels),
        "meta/net/input_h": _meta_scalar(cfg.input_hw[0]),
        "meta/net/input_w": _meta_scalar(cfg.input_hw[1]),
        "meta/spectral/target_norm": _meta_scalar(scfg.target_norm),
        "meta/spectral/iterations": _meta_scalar(scfg.iterations),
        "meta/spectral/rank_iterations": _meta_scalar(scfg.rank_iterations),
        "meta/spectral/seed": _meta_scalar(scfg.seed),
    }
    for name, param in net.named_parameters():
        tensors[f"param/{name}"] = param.data
        tensors[f"momentum/{name}"] = param.momentum
    for name, buf in net.named_buffers():
        tensors[f"buffer/{name}"] = buf
    for handle in net.handles:
        tensors[f"pivec/{handle.name}"] = handle.vector
    return tensors


def save_checkpoint(path, net, epoch: int) -> None:
    save_tensors(path, checkpoint_tensors(net, epoch))


def load_checkpoint(path):
    """Rebuild the supernet stored at `path`; returns (net, epoch)."""
    from .supernet import SupernetConfig, build_supernet

    tensors = load_tensors(path)

    def meta(name: str) -> float:
        key = f"meta/{name}"
        if key not in tensors:
            raise FormatError(f"{path}: checkpoint missing metadata '{key}'")
        return float(tensors[key])

    cfg = SupernetConfig(
        cells=int(meta("net/cells")),
        nodes=int(meta("net/nodes")),
        initial_channels=int(meta("net/initial_channels")),
        num_classes=int(meta("net/num_classes")),
        input_channels=int(meta("net/input_channels")),
        input_hw=(int(meta("net/input_h")), int(meta("net/input_w"))),
    )
    scfg = SpectralConfig(
        target_norm=meta("spectral/target_norm"),
        iterations=int(meta("spectral/iterations")),
        rank_iterations=int(meta("spectral/rank_iterations")),
        seed=int(meta("spectral/seed")),
    )
    dtype = np.float32 if meta("dtype") == 0 else np.float64
    net = build_supernet(cfg, scfg, dtype=dtype, seed=0)
    restore_into(net, tensors, path)
    return net, int(meta("epoch"))


def restore_into(net, tensors: dict[str, np.ndarray], origin: str = "checkpoint") -> None:
    """Copy stored arrays into a freshly built network, matching by name.

    Every record must have the shape of the array it replaces.
    """

    def stored(key: str, shape: tuple, dtype) -> np.ndarray:
        value = tensors[key]
        if value.shape != shape:
            raise FormatError(f"{origin}: record '{key}' shape {value.shape} != {shape}")
        return value.astype(dtype)

    for name, param in net.named_parameters():
        key = f"param/{name}"
        if key not in tensors:
            raise FormatError(f"{origin}: missing parameter '{name}'")
        param.data[...] = stored(key, param.data.shape, param.data.dtype)
        mom_key = f"momentum/{name}"
        if mom_key in tensors:
            param.momentum = stored(mom_key, param.data.shape, param.data.dtype)
    for name, buf in net.named_buffers():
        key = f"buffer/{name}"
        if key not in tensors:
            raise FormatError(f"{origin}: missing buffer '{name}'")
        buf[...] = stored(key, buf.shape, buf.dtype)
    for handle in net.handles:
        key = f"pivec/{handle.name}"
        if key in tensors:
            shape = (1, handle.spec.in_channels, *handle.in_hw)
            handle.vector = stored(key, shape, handle.spec.weight.dtype)
