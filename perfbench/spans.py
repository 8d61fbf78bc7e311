"""Span tracing for the traced benchmark run.

A ``Tracer`` replaces public functions of the msrnas modules at the names
their callers look them up (``spectral.py`` imports ``conv2d_forward`` by
name, ``train.py`` imports ``collect_rank_table`` by name, and so on). Each
wrapped call records one span ``[name, start, end, parent]`` in memory; the
wraps are removed again after every traced call, so untraced calls run the
program exactly as shipped. ``layer_metrics`` turns the spans into per-layer
metrics once the run is over.
"""

from __future__ import annotations

import gc
import os
import time
from bisect import bisect_right
from statistics import median

clock = time.perf_counter

# Span names whose descendants' conv-kernel time is attributed to them.
_CATEGORY_OF = {
    "supernet.forward": "forward",
    "autodiff.backward": "backward",
    "supernet.adjust_all": "adjust",
    "supernet.collect_rank_table": "rank",
}
CONV_OPS = ("fwd", "tr", "wgrad")
CONV_KINDS = ("pw", "dw", "dense")
MODULE_KINDS = (
    "layers.Conv2d", "layers.BatchNorm2d", "layers.Linear",
    "operators.SepConv", "operators.DilConv", "operators.ReLUConvBN",
    "operators.FactorizedReduce",
    "supernet.MixedEdge", "supernet.MixedCell", "supernet.DiscreteCell",
    "supernet.Stem",
)
# The spans that make up one training step; their sum is checked against
# the step's wall time.
STEP_PHASES = ("data.batches", "supernet.adjust_all", "supernet.forward",
               "autodiff.backward", "optim.sgd_momentum_step")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_bytes() -> int:
    """Resident set size now, from /proc/self/statm (Linux)."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def conv_kind(spec) -> str:
    if spec.kernel_h == 1 and spec.kernel_w == 1:
        return "pw"
    if spec.is_depthwise:
        return "dw"
    return "dense"


def conv_flops(spec, out_elements: int) -> float:
    """Multiply-adds x 2 of one conv map, counted from the output side."""
    cin_g = spec.in_channels // spec.groups
    return 2.0 * out_elements * cin_g * spec.kernel_h * spec.kernel_w


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []           # [name_id, start, end, parent]
        self.flops: dict[int, float] = {}     # conv span -> flop count
        self.rss_delta: dict[int, int] = {}   # top-level forward -> RSS growth
        self.ckpt_bytes: dict[int, int] = {}  # save_checkpoint span -> file size
        self.gc_events: list[tuple[float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # Spans -----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _wrap_conv(self, op: str, fn):
        spec_pos = 2 if op == "wgrad" else 1
        ids = {kind: self.name_id(f"convolution.{op}.{kind}") for kind in CONV_KINDS}

        def wrapper(*args, **kwargs):
            spec = args[spec_pos]
            idx = self.open(ids[conv_kind(spec)])
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            side = out if op == "fwd" else args[spec_pos - 1]
            self.flops[idx] = conv_flops(spec, side.size)
            return out

        return wrapper

    def _wrap_checkpoint(self, fn):
        nid = self.name_id("checkpoint.save_checkpoint")

        def wrapper(path, *args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.close(idx)
                self.ckpt_bytes[idx] = os.path.getsize(path)

        return wrapper

    def _wrap_module_call(self, fn, top_types):
        kind_ids: dict[type, int] = {}

        def wrapper(module, *args, **kwargs):
            cls = type(module)
            nid = kind_ids.get(cls)
            if nid is None:
                name = ("supernet.forward" if issubclass(cls, top_types) else
                        f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}")
                nid = kind_ids[cls] = self.name_id(name)
            top = issubclass(cls, top_types)
            rss0 = current_rss_bytes() if top else 0
            idx = self.open(nid)
            try:
                return fn(module, *args, **kwargs)
            finally:
                self.close(idx)
                if top:
                    self.rss_delta[idx] = current_rss_bytes() - rss0

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_events.append((self._gc_start, clock(), info["generation"]))

    # Patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` restores the originals."""
        from msrnas import autodiff, convolution, layers, spectral, supernet, train

        for owner in (convolution, spectral):
            self._patch(owner, "conv2d_forward",
                        self._wrap_conv("fwd", owner.conv2d_forward))
            self._patch(owner, "conv2d_transpose_forward",
                        self._wrap_conv("tr", owner.conv2d_transpose_forward))
        self._patch(convolution, "conv2d_weight_grad",
                    self._wrap_conv("wgrad", convolution.conv2d_weight_grad))
        self._patch(spectral, "power_iteration",
                    self._wrap("spectral.power_iteration", spectral.power_iteration))
        self._patch(supernet, "stable_rank",
                    self._wrap("spectral.stable_rank", supernet.stable_rank))
        self._patch(supernet.Supernet, "adjust_all",
                    self._wrap("supernet.adjust_all", supernet.Supernet.adjust_all))
        self._patch(train, "collect_rank_table",
                    self._wrap("supernet.collect_rank_table", train.collect_rank_table))
        self._patch(train, "save_checkpoint",
                    self._wrap_checkpoint(train.save_checkpoint))
        self._patch(train, "sgd_momentum_step",
                    self._wrap("optim.sgd_momentum_step", train.sgd_momentum_step))
        self._patch(autodiff.Tensor, "backward",
                    self._wrap("autodiff.backward", autodiff.Tensor.backward))
        self._patch(layers.Module, "__call__", self._wrap_module_call(
            layers.Module.__call__, (supernet.Supernet, supernet.DiscreteNetwork)))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _Windows:
    """Non-overlapping time windows tagged 'step' or 'epoch'."""

    def __init__(self, steps, epoch_ends):
        tagged = sorted([(s, e, "step") for s, e in steps]
                        + [(s, e, "epoch") for s, e in epoch_ends])
        self._starts = [w[0] for w in tagged]
        self._tagged = tagged

    def phase(self, t: float) -> str | None:
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and t <= self._tagged[i][1]:
            return self._tagged[i][2]
        return None


def layer_metrics(tracer: Tracer, steps: list[tuple[float, float]],
                  epoch_ends: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of traced calls.

    Metrics named "/step" in their unit are totals inside step windows
    divided by the step count; "/epoch" ones are totals inside epoch-end
    windows divided by the number of epoch ends. Module ``fwd_s`` values are
    self time: a span's duration minus the time covered by its children.
    """
    n_steps = max(len(steps), 1)
    n_epochs = max(len(epoch_ends), 1)
    windows = _Windows(steps, epoch_ends)
    names = tracer.names
    spans = tracer.spans
    child = [0.0] * len(spans)
    category: list[str | None] = [None] * len(spans)
    phase: list[str | None] = [None] * len(spans)
    for i, (nid, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        own = _CATEGORY_OF.get(names[nid])
        category[i] = own or (category[parent] if parent >= 0 else None)
        phase[i] = windows.phase(start)

    total: dict[tuple[str, str], float] = {}
    self_time: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    conv_in: dict[tuple[str, str], float] = {}
    flops: dict[str, float] = {}
    conv_time: dict[str, float] = {}
    top_level = 0.0
    step_roots = {tracer._ids.get(n) for n in STEP_PHASES}
    for i, (nid, start, end, parent) in enumerate(spans):
        ph = phase[i]
        if ph is None:
            continue
        name = names[nid]
        dur = end - start
        key = (name, ph)
        total[key] = total.get(key, 0.0) + dur
        self_time[key] = self_time.get(key, 0.0) + dur - child[i]
        calls[key] = calls.get(key, 0) + 1
        if ph == "step" and parent < 0 and nid in step_roots:
            top_level += dur
        if name.startswith("convolution."):
            cat = category[i] or "other"
            conv_in[(cat, ph)] = conv_in.get((cat, ph), 0.0) + dur
            if ph == "step":
                kind = name.rsplit(".", 1)[1]
                flops[kind] = flops.get(kind, 0.0) + tracer.flops.get(i, 0.0)
                conv_time[kind] = conv_time.get(kind, 0.0) + dur

    def per_step(name):
        return total.get((name, "step"), 0.0) / n_steps

    def per_epoch(name):
        return total.get((name, "epoch"), 0.0) / n_epochs

    out: dict[str, tuple[float, str]] = {}
    out["supernet.adjust_all.s"] = (per_step("supernet.adjust_all"), "s/step")
    out["spectral.power_iteration.calls"] = (
        calls.get(("spectral.power_iteration", "step"), 0) / n_steps, "count/step")
    out["spectral.power_iteration.s"] = (per_step("spectral.power_iteration"), "s/step")
    out["supernet.collect_rank_table.s"] = (
        per_epoch("supernet.collect_rank_table"), "s/epoch")
    out["spectral.stable_rank.s"] = (per_epoch("spectral.stable_rank"), "s/epoch")
    out["checkpoint.save_checkpoint.s"] = (
        per_epoch("checkpoint.save_checkpoint"), "s/epoch")
    ckpt_mb = sum(b for i, b in tracer.ckpt_bytes.items() if phase[i] == "epoch")
    out["checkpoint.save_checkpoint.mb"] = (ckpt_mb / 1e6 / n_epochs, "MB/epoch")
    out["supernet.forward.s"] = (per_step("supernet.forward"), "s/step")
    out["autodiff.backward.s"] = (per_step("autodiff.backward"), "s/step")
    out["autodiff.backward.nonconv_s"] = (
        per_step("autodiff.backward") - conv_in.get(("backward", "step"), 0.0) / n_steps,
        "s/step")
    out["optim.sgd_momentum_step.s"] = (per_step("optim.sgd_momentum_step"), "s/step")
    out["data.batches.s"] = (per_step("data.batches"), "s/step")
    for op in CONV_OPS:
        for kind in CONV_KINDS:
            out[f"convolution.{op}.{kind}.s"] = (
                per_step(f"convolution.{op}.{kind}"), "s/step")
    for kind in CONV_KINDS:
        busy = conv_time.get(kind, 0.0)
        out[f"convolution.{kind}.gflop_per_s"] = (
            flops.get(kind, 0.0) / busy / 1e9 if busy else 0.0, "GFLOP/s")
    for cat in ("forward", "backward", "adjust"):
        out[f"convolution.in_{cat}.s"] = (conv_in.get((cat, "step"), 0.0) / n_steps,
                                          "s/step")
    out["convolution.in_rank.s"] = (conv_in.get(("rank", "epoch"), 0.0) / n_epochs,
                                    "s/epoch")
    for kind in MODULE_KINDS:
        out[f"{kind}.fwd_s"] = (self_time.get((kind, "step"), 0.0) / n_steps, "s/step")
    deltas = [d for i, d in tracer.rss_delta.items() if phase[i] == "step"]
    out["autodiff.graph_mb"] = (median(deltas) / 1e6 if deltas else 0.0, "MB/step")
    gc_windows = [(s, e, g) for s, e, g in tracer.gc_events if windows.phase(s) == "step"]
    out["autodiff.gc_pause_s"] = (sum(e - s for s, e, _ in gc_windows) / n_steps, "s/step")
    out["autodiff.gc_gen2"] = (sum(1 for *_, g in gc_windows if g == 2) / n_steps,
                               "count/step")
    step_time = sum(e - s for s, e in steps)
    out["trace.step_coverage"] = (top_level / step_time if step_time else 0.0, "ratio")
    return out


def spectral_rank_checkpoint_work(tracer: Tracer) -> float:
    """Total traced time in spectral, rank-table and checkpoint spans."""
    watched = ("spectral.", "supernet.adjust_all", "supernet.collect_rank_table",
               "checkpoint.")
    return sum(end - start for nid, start, end, _ in tracer.spans
               if tracer.names[nid].startswith(watched))


def save_spans(tracer: Tracer, path: str) -> None:
    """Write every span as one compressed array file."""
    import numpy as np

    arr = np.array([(s[0], s[3]) for s in tracer.spans], dtype=np.int64).reshape(-1, 2)
    times = np.array([(s[1], s[2]) for s in tracer.spans], dtype=np.float64).reshape(-1, 2)
    np.savez_compressed(path, names=np.array(tracer.names), name_parent=arr, start_end=times)
