"""Self-describing binary tensor container and network checkpointing.

Layout: 4 magic bytes "MSRN", little-endian u32 version, then a sequence of
records, each: u32 name length, utf-8 name, u8 dtype code (0=f32, 1=f64),
u32 ndim, ndim x u64 extents, raw row-major data.

A checkpoint holds the epoch counter and dtype, one ``meta/net/*`` or
``meta/spectral/*`` scalar per field of ``SupernetConfig`` and
``SpectralConfig`` (``input_hw`` as ``input_h`` and ``input_w``), enough to
rebuild the network from the file alone, and then the network's arrays.
On load each of those scalars must be finite, whole where its field is an
int, and ``meta/dtype`` 0 or 1, or a ``FormatError`` names its record.
One list names those arrays (``_state_records``): per parameter
``param/<name>`` and ``momentum/<name>``, then every ``buffer/<name>``
(batchnorm running statistics), then ``pivec/<handle>`` for every handle
whose norm Krylov steps estimate (its warm-start vector). A padding-0 1x1
conv's vector is not stored: every adjustment rebuilds it from the weight
alone. Saving writes that list; loading walks the same list, and every
record on it must be present with the shape of the array it is copied into,
or a ``FormatError`` names it. Records off the list are ignored on load:
``grad/*`` (every step clears gradients before use), the 1x1 convs'
``pivec/*`` and the ``meta/spectral/frobenius_kernel`` and
``meta/net/input_channels`` scalars of older files.

Every file msrnas writes whole (checkpoints, rank tables, metrics, config
echo, result, derived genotype, rank report) goes through ``atomic_open``,
so a run killed mid-write leaves the previous version of the file, never a
truncated one.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import fields

import numpy as np

from .errors import FormatError
from .spectral import SpectralConfig
from .supernet import SupernetConfig, build_supernet

MAGIC = b"MSRN"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing and move it over ``path`` once the
    block completes; if the block raises, the temporary file is removed where
    it exists, ``path`` keeps its earlier contents and the block's error
    propagates. Text modes write UTF-8."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
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
                code, dtype = 0, "<f4"
            elif arr.dtype == np.float64:
                code, dtype = 1, "<f8"
            else:
                raise FormatError(
                    f"tensor '{name}' has unsupported dtype {arr.dtype}; "
                    "only f32/f64 are stored"
                )
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BI", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            # Written from the array's own buffer; copied only when it is
            # not a C-ordered little-endian array already.
            fh.write(arr.astype(dtype, order="C", copy=False))


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
            # Python ints: a product of u64 extents overflows int64.
            count = math.prod(shape)
            if count * dtype.itemsize > len(raw) - offset:
                raise FormatError(f"{path}: truncated tensor data for '{name}'")
            data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
            tensors[name] = data.reshape(shape).copy()
        except (struct.error, KeyError, ValueError) as exc:
            raise FormatError(
                f"{path}: corrupt record at byte offset {offset}: {exc}"
            ) from exc
        offset += count * dtype.itemsize
    return tensors


# Network-level checkpointing -------------------------------------------------

# A tuple config field is stored as one scalar record per element.
_ELEMENTS = {"input_hw": ("input_h", "input_w")}


def _meta_scalar(value) -> np.ndarray:
    return np.asarray(float(value), dtype=np.float64)


def _config_records(section: str, cfg) -> dict[str, np.ndarray]:
    """``meta/<section>/<field>`` scalars, one per field of a config dataclass."""
    records = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _ELEMENTS:
            pairs = zip(_ELEMENTS[f.name], value)
        else:
            pairs = [(f.name, value)]
        for name, element in pairs:
            records[f"meta/{section}/{name}"] = _meta_scalar(element)
    return records


def _state_records(net):
    """Every array of the network a checkpoint stores, as ``(record name,
    live array)`` pairs in file order: per parameter its value then its
    momentum, then the buffers, then the start vectors of the handles whose
    norm is estimated by Krylov steps (the Ritz vector each adjustment
    leaves). A padding-0 1x1 conv's vector is derived from its weight at
    every adjustment (``spectral.power_iteration``), so it is left out."""
    for name, param in net.named_parameters():
        yield f"param/{name}", param.data
        yield f"momentum/{name}", param.momentum
    for name, buf in net.named_buffers():
        yield f"buffer/{name}", buf
    for handle in net.handles:
        if not handle.spec.is_pointwise:
            yield f"pivec/{handle.name}", handle.vector


def save_checkpoint(path, net, epoch: int) -> None:
    save_tensors(path, {
        "meta/epoch": _meta_scalar(epoch),
        "meta/dtype": _meta_scalar(0 if net.dtype == np.float32 else 1),
        **_config_records("net", net.cfg),
        **_config_records("spectral", net.spectral_cfg),
        **dict(_state_records(net)),
    })


def load_checkpoint(path):
    """Rebuild the supernet stored at `path`; returns (net, epoch)."""
    tensors = load_tensors(path)

    def meta(name: str, kind=float):
        """The scalar record ``meta/<name>``, finite, and whole for an int."""
        key = f"meta/{name}"
        if key not in tensors:
            raise FormatError(f"{path}: checkpoint missing metadata '{key}'")
        record = tensors[key]
        value = float(record) if record.shape == () else math.nan
        if not math.isfinite(value) or (kind is int and not value.is_integer()):
            raise FormatError(f"{path}: metadata '{key}' is not a finite "
                              f"{kind.__name__} scalar: {record}")
        return kind(value)

    def config(section: str, cls):
        values = {}
        for f in fields(cls):
            if f.name in _ELEMENTS:
                values[f.name] = tuple(meta(f"{section}/{name}", int)
                                       for name in _ELEMENTS[f.name])
            else:
                values[f.name] = meta(f"{section}/{f.name}", type(f.default))
        return cls(**values)

    epoch = meta("epoch", int)
    dtype = {0: np.float32, 1: np.float64}.get(meta("dtype", int))
    if dtype is None:
        raise FormatError(f"{path}: metadata 'meta/dtype' is {tensors['meta/dtype']}, "
                          "not 0 (float32) or 1 (float64)")
    net = build_supernet(config("net", SupernetConfig), config("spectral", SpectralConfig),
                         dtype=dtype, seed=0)
    for key, array in _state_records(net):
        if key not in tensors:
            raise FormatError(f"{path}: missing record '{key}'")
        if tensors[key].shape != array.shape:
            raise FormatError(
                f"{path}: record '{key}' shape {tensors[key].shape} != {array.shape}")
        array[...] = tensors[key]
    return net, epoch
