"""Over-parameterized cell supernet and its genotype-pruned discrete variant.

Cells are DAGs over N nodes: two input nodes fed by the previous two cells,
intermediate nodes summing their incoming edges, and an output node that
concatenates the intermediates. In the supernet every edge carries all four
candidate operators with fixed unit mixing weights; reduction cells sit at
one and two thirds of the depth and stride-2 only on edges leaving the input
nodes. Every convolution registers a spectral handle; the final pointwise
conv of each candidate is additionally tagged for rank measurement, and
``collect_rank_table`` scores each tagged conv on its own.

Both networks share one cell body (``_Cell``): the preprocessing of the two
input states, the output geometry, the stride/extent rule for an edge leaving
state ``i`` and the forward, which sums each intermediate node's ``(source
state, module)`` inputs and rectifies each state it reads once. ``MixedCell``
and ``DiscreteCell`` only build those input lists: a ``MixedEdge`` per DAG
edge, or the genotype's two picks per node.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .derive import CELL_TYPES, Genotype, RankTable, cell_edges, intermediate_nodes
from .errors import (
    ConstructionError,
    DimensionError,
    GenotypeError,
    StateError,
)
from .layers import BatchNorm2d, Conv2d, Linear, Module, global_avg_pool
from .operators import (
    OPERATOR_ORDER,
    FactorizedReduce,
    OperatorKind,
    OpInstance,
    ReLUConvBN,
    build_operator,
)
from .spectral import (
    ConvHandle,
    SpectralConfig,
    group_by_geometry,
    spectral_norm_adjust,
    stable_rank,
)

STEM_MULTIPLIER = 3


@dataclass
class SupernetConfig:
    cells: int = 8
    nodes: int = 7
    initial_channels: int = 16
    num_classes: int = 10
    input_channels: int = 3
    input_hw: tuple[int, int] = (32, 32)

    def __post_init__(self):
        if self.cells < 1:
            raise ConstructionError("need at least one cell")
        if self.nodes < 4:
            raise ConstructionError("need at least 4 nodes per cell")
        if self.initial_channels < 1 or self.num_classes < 2:
            raise ConstructionError("invalid channel or class count")
        if min(self.input_hw) < 4:
            raise ConstructionError("input spatial extent too small")

    @property
    def reduction_indices(self) -> tuple[int, ...]:
        return tuple(sorted({self.cells // 3, (2 * self.cells) // 3}))

    @property
    def multiplier(self) -> int:
        """Number of intermediate nodes, hence output-channel multiplier."""
        return self.nodes - 3


@dataclass
class FinTag:
    """Locates one candidate's final conv inside the network."""

    cell_index: int
    cell_type: str
    edge: tuple[int, int]
    kind: OperatorKind
    handle: ConvHandle = field(repr=False, default=None)


class MixedEdge(Module):
    """Unit-weight sum of all candidate operators; mixing is not learned."""

    def __init__(self, channels: int, stride: int, in_hw: tuple[int, int], *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.stride = stride
        self.ops: list[OpInstance] = []
        for kind in OPERATOR_ORDER:
            op = build_operator(kind, channels, stride, in_hw, rng=rng, dtype=dtype)
            self.add_module(f"op_{kind.value}", op)
            self.ops.append(op)

    def forward(self, x: Tensor) -> Tensor:
        """``x`` is the ReLU of the edge's source state (see _Cell)."""
        total = self.ops[0](x)
        for op in self.ops[1:]:
            total = total + op(x)
        return total


def _preprocess(in_channels: int, out_channels: int, in_hw: tuple[int, int],
                reduce_spatial: bool, *, rng, dtype) -> Module:
    if reduce_spatial:
        return FactorizedReduce(in_channels, out_channels, in_hw, rng=rng, dtype=dtype)
    return ReLUConvBN(in_channels, out_channels, in_hw, rng=rng, dtype=dtype)


class _Cell(Module):
    """The cell body both networks share: preprocessing of the two input
    states, output geometry, the edge stride/extent rule and the forward.

    Subclasses fill ``inputs`` with, per intermediate node, the ``(source
    state, module)`` pairs whose outputs the node sums.
    """

    def __init__(self, cfg: SupernetConfig, index: int, channels: int,
                 prev_channels: int, prev_prev_channels: int,
                 in_hw_pp: tuple[int, int], in_hw_p: tuple[int, int], *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.index = index
        self.reduction = index in cfg.reduction_indices
        self.cell_type = "reduce" if self.reduction else "normal"
        self.in_hw = in_hw_p
        h, w = in_hw_p
        self.out_hw = ((h + 1) // 2, (w + 1) // 2) if self.reduction else in_hw_p
        self.channels = channels
        self.out_channels = channels * cfg.multiplier
        self.pre0 = _preprocess(prev_prev_channels, channels, in_hw_pp,
                                index - 1 in cfg.reduction_indices,
                                rng=rng, dtype=dtype)
        self.pre1 = _preprocess(prev_channels, channels, in_hw_p, False,
                                rng=rng, dtype=dtype)
        self.inputs: list[list[tuple[int, Module]]] = []

    def edge_geometry(self, i: int) -> tuple[int, tuple[int, int]]:
        """Stride and input extents of an op on an edge leaving state ``i``:
        a reduction cell strides only the edges leaving its input states."""
        if self.reduction and i < 2:
            return 2, self.in_hw
        return 1, self.out_hw

    def forward(self, s0: Tensor, s1: Tensor) -> Tensor:
        # Every op starts with a ReLU of its source state; it is applied once
        # per state that some input reads and shared by all of them.
        states = [self.pre0(s0), self.pre1(s1)]
        relu_states: dict[int, Tensor] = {}
        for node_inputs in self.inputs:
            total = None
            for i, module in node_inputs:
                if i not in relu_states:
                    relu_states[i] = ad.relu(states[i])
                contribution = module(relu_states[i])
                total = contribution if total is None else total + contribution
            states.append(total)
        return ad.concat(states[2:], axis=1)


class MixedCell(_Cell):
    """One supernet cell: a full mixed edge per DAG edge."""

    def __init__(self, cfg: SupernetConfig, *args, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__(cfg, *args, rng=rng, dtype=dtype)
        self.edges: dict[tuple[int, int], MixedEdge] = {}
        for j in intermediate_nodes(cfg.nodes):
            node_inputs = []
            for i in range(j):
                edge = MixedEdge(self.channels, *self.edge_geometry(i),
                                 rng=rng, dtype=dtype)
                self.add_module(f"edge_{i}_{j}", edge)
                self.edges[(i, j)] = edge
                node_inputs.append((i, edge))
            self.inputs.append(node_inputs)


class DiscreteCell(_Cell):
    """Genotype-pruned cell: two retained (operator, predecessor) edges per node."""

    def __init__(self, cfg: SupernetConfig, *args, genotype: Genotype,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__(cfg, *args, rng=rng, dtype=dtype)
        rows = genotype.rows(self.cell_type)
        for j, pairs in zip(intermediate_nodes(cfg.nodes), rows):
            node_inputs = []
            for op_name, i in pairs:
                op = build_operator(OperatorKind(op_name), self.channels,
                                    *self.edge_geometry(i), rng=rng, dtype=dtype)
                self.add_module(f"node{j}_from{i}_{op_name}", op)
                node_inputs.append((i, op))
            self.inputs.append(node_inputs)


class Stem(Module):
    """3x3 conv to the stem width followed by BN (no ReLU)."""

    def __init__(self, in_channels: int, out_channels: int,
                 in_hw: tuple[int, int], *, rng, dtype):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, 3, padding=1, in_hw=in_hw,
                           rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(out_channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(self.conv(x))


class _NetworkBase(Module):
    """Shared stem/cells/classifier plumbing for both network variants."""

    def __init__(self, cfg: SupernetConfig, make_cell, *, dtype, seed: int):
        super().__init__()
        self.cfg = cfg
        self.dtype = dtype
        rng = np.random.Generator(np.random.PCG64([seed & 0xFFFFFFFF, 0x5EED]))
        stem_channels = STEM_MULTIPLIER * cfg.initial_channels
        self.stem = Stem(cfg.input_channels, stem_channels, cfg.input_hw,
                         rng=rng, dtype=dtype)
        self.cells: list[_Cell] = []
        c_pp, c_p = stem_channels, stem_channels
        hw_pp, hw_p = cfg.input_hw, cfg.input_hw
        channels = cfg.initial_channels
        for index in range(cfg.cells):
            if index in cfg.reduction_indices:
                channels *= 2
            cell = make_cell(cfg, index, channels, c_p, c_pp, hw_pp, hw_p,
                             rng=rng, dtype=dtype)
            self.add_module(f"cell{index}", cell)
            self.cells.append(cell)
            c_pp, c_p = c_p, cell.out_channels
            hw_pp, hw_p = hw_p, cell.out_hw
        self.classifier = Linear(c_p, cfg.num_classes, rng=rng, dtype=dtype)
        self.assign_paths("net")

    def forward_features(self, x: Tensor) -> Tensor:
        # The stem output and each cell output but the last are rectified once
        # for both cells that read them; the classifier reads the last as is.
        s0 = s1 = ad.relu(self.stem(x))
        for cell in self.cells[:-1]:
            s0, s1 = s1, ad.relu(cell(s0, s1))
        return self.cells[-1](s0, s1)

    def logits(self, x: Tensor) -> Tensor:
        return self.classifier(global_avg_pool(self.forward_features(x)))


class Supernet(_NetworkBase):
    """Mixed-edge supernet with spectral handles on every convolution."""

    def __init__(self, cfg: SupernetConfig, spectral_cfg: SpectralConfig, *,
                 dtype=np.float32, seed: int = 0):
        super().__init__(cfg, MixedCell, dtype=dtype, seed=seed)
        self.spectral_cfg = spectral_cfg
        self._step = 0
        self._adjusted_step = -1
        self.handles: list[ConvHandle] = []
        self.fin_tags: list[FinTag] = []
        self._register_handles()
        # Power iteration runs once per geometry group (see spectral.py).
        self.handle_groups = group_by_geometry(self.handles)

    def _register_handles(self) -> None:
        for name, module in self._walk_convs():
            handle = ConvHandle(module.spec, module.in_hw,
                                seed=self.spectral_cfg.seed, name=name)
            module.handle = handle
            self.handles.append(handle)
        for cell in self.cells:
            for edge, mixed in cell.edges.items():
                for op in mixed.ops:
                    self.fin_tags.append(FinTag(
                        cell_index=cell.index,
                        cell_type=cell.cell_type,
                        edge=edge,
                        kind=op.kind,
                        handle=op.fin_conv.handle,
                    ))

    def _walk_convs(self):
        for module in self.modules():
            if isinstance(module, Conv2d):
                yield module.path, module

    # Step bookkeeping -------------------------------------------------------

    def begin_step(self) -> None:
        self._step += 1

    def adjust_all(self, iterations: int | None = None) -> None:
        """Spectral-norm adjust every registered conv (before the forward pass)."""
        cfg = self.spectral_cfg
        if iterations is not None and iterations != cfg.iterations:
            cfg = dataclasses.replace(
                cfg, iterations=iterations,
                rank_iterations=max(cfg.rank_iterations, iterations))
        for group in self.handle_groups:
            spectral_norm_adjust(group, cfg)
        self._adjusted_step = self._step

    def forward(self, x: Tensor) -> Tensor:
        if self.training and self._adjusted_step != self._step:
            raise StateError(
                "spectral adjustment has not been applied this step; call "
                "adjust_all() after begin_step() and before the forward pass"
            )
        if x.data.shape[1] != self.cfg.input_channels:
            raise DimensionError(
                f"expected {self.cfg.input_channels} input channels, "
                f"got {x.data.shape[1]}"
            )
        return self.logits(x)

class DiscreteNetwork(_NetworkBase):
    """Genotype-pruned network trained from scratch; no spectral machinery."""

    def __init__(self, genotype: Genotype, cfg: SupernetConfig, *,
                 dtype=np.float32, seed: int = 0):
        if genotype.nodes != cfg.nodes:
            raise GenotypeError(
                f"genotype built for {genotype.nodes} nodes, config has {cfg.nodes}"
            )
        genotype.validate()
        super().__init__(cfg, partial(DiscreteCell, genotype=genotype),
                         dtype=dtype, seed=seed)

    def forward(self, x: Tensor) -> Tensor:
        return self.logits(x)


def build_supernet(cfg: SupernetConfig,
                   spectral_cfg: SpectralConfig | None = None, *,
                   dtype=np.float32, seed: int = 0) -> Supernet:
    return Supernet(cfg, spectral_cfg or SpectralConfig(), dtype=dtype, seed=seed)


def build_discrete_network(genotype: Genotype, cfg: SupernetConfig, *,
                           dtype=np.float32, seed: int = 0) -> DiscreteNetwork:
    return DiscreteNetwork(genotype, cfg, dtype=dtype, seed=seed)


def collect_rank_table(net: Supernet, *, epoch: int = 0) -> RankTable:
    """Average stable rank of every candidate's final conv per cell type,
    from one ``stable_rank`` call per final conv.

    Degenerate convolutions flag their whole (type, edge, operator) entry.
    """
    present = {cell.cell_type for cell in net.cells}
    missing = [t for t in CELL_TYPES if t not in present]
    if missing:
        raise StateError(
            f"cannot build a complete rank table: no cells of type {missing}"
        )
    ranks: dict[tuple[str, tuple[int, int], str], list[float | None]] = {}
    for tag in net.fin_tags:
        scored = stable_rank(tag.handle.spec, tag.handle.in_hw)
        ranks.setdefault((tag.cell_type, tag.edge, tag.kind.value), []).append(
            None if scored is None else scored[0])
    table = RankTable(nodes=net.cfg.nodes, epoch=epoch, seed=net.spectral_cfg.seed)
    for key, values in ranks.items():
        table.set(*key, None if None in values else float(np.mean(values)))
    table.require_complete()
    return table


def conv_rank_report(net: Supernet, *, epoch: int = 0) -> str:
    """Structured text report: averaged and per-cell ranks, spectral norms
    and Frobenius norms of the matrix view for every candidate's final
    conv. The spectral norms are those the rank table divides by."""
    table = collect_rank_table(net, epoch=epoch)
    lines = ["# msrnas conv rank report", f"meta epoch {epoch}"]
    detail: dict[tuple, list[str]] = {}
    for tag in net.fin_tags:
        scored = stable_rank(tag.handle.spec, tag.handle.in_hw)
        if scored is None:
            # A degenerate conv's weight is zero.
            rank_text, sigma, fro = "degenerate", np.nan, 0.0
        else:
            # The rank is fro^2 / sigma^2.
            rank, sigma = scored
            rank_text, fro = f"{rank:.6g}", sigma * np.sqrt(rank)
        detail.setdefault((tag.cell_type, tag.edge, tag.kind.value), []).append(
            f"  cell={tag.cell_index} rank={rank_text} "
            f"sigma={sigma:.6g} fro={fro:.6g}"
        )
    for cell_type in CELL_TYPES:
        for edge in cell_edges(net.cfg.nodes):
            for kind in OPERATOR_ORDER:
                key = (cell_type, edge, kind.value)
                avg = table.entries[key]
                avg_text = "degenerate" if avg is None else f"{avg:.6g}"
                lines.append(
                    f"op {cell_type} edge=({edge[0]},{edge[1]}) "
                    f"kind={kind.value} rbar={avg_text}"
                )
                lines.extend(sorted(detail[key]))
    lines.append(
        f"total rows={2 * len(cell_edges(net.cfg.nodes)) * len(OPERATOR_ORDER)} "
        f"handles={len(net.handles)} fin_convs={len(net.fin_tags)}"
    )
    return "\n".join(lines) + "\n"
