"""Over-parameterized cell supernet and its genotype-pruned discrete variant.

Cells are DAGs over N nodes: two input nodes fed by the previous two cells,
intermediate nodes summing their incoming edges, and an output node that
concatenates the intermediates. In the supernet every edge carries all four
candidate operators with fixed unit mixing weights; reduction cells sit at
one and two thirds of the depth and stride-2 only on edges leaving the input
nodes. Every convolution registers a spectral handle, and
``collect_rank_table`` scores the final pointwise conv of each candidate
(``Supernet.candidates``) on its own.

Both networks are built from one cell class, ``MixedCell``, which takes per
intermediate node the ``(source state, operator kinds)`` pairs it sums and
holds one ``MixedEdge`` per pair: the supernet passes every edge with every
operator, the discrete network the genotype's two picks per node, one
operator each. So both networks share module paths (``edge_{i}_{j}.op_{kind}``)
and per-layer names.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .derive import CELL_TYPES, Genotype, RankTable, cell_edges, intermediate_nodes
from .errors import ConstructionError, GenotypeError, StateError
from .layers import BatchNorm2d, Conv2d, Linear, Module, global_avg_pool
from .operators import OPERATOR_NAMES, OPERATORS, FactorizedReduce, ReLUConvBN
from .spectral import (
    ConvHandle,
    SpectralConfig,
    spectral_norm_adjust,
    stable_rank,
    stack_handles,
)

STEM_MULTIPLIER = 3


@dataclass
class SupernetConfig:
    cells: int = 8
    nodes: int = 7
    initial_channels: int = 16
    num_classes: int = 10
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


class MixedEdge(Module):
    """Unit-weight sum of the given candidate operators, in the given order;
    mixing is not learned. A one-operator edge returns that operator's
    output as is."""

    def __init__(self, kinds: tuple[str, ...], channels: int, stride: int,
                 in_hw: tuple[int, int], *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        for kind in kinds:
            cls, k = OPERATORS[kind]
            self.add_module(f"op_{kind}",
                            cls(kind, channels, k, stride, in_hw, rng=rng, dtype=dtype))
        self.ops = list(self.children())

    def forward(self, x: Tensor) -> Tensor:
        """``x`` is the ReLU of the edge's source state (see MixedCell)."""
        total = self.ops[0](x)
        for op in self.ops[1:]:
            total = total + op(x)
        return total


def _preprocess(in_channels: int, out_channels: int, in_hw: tuple[int, int],
                reduce_spatial: bool, *, rng, dtype) -> Module:
    if reduce_spatial:
        return FactorizedReduce(in_channels, out_channels, in_hw, rng=rng, dtype=dtype)
    return ReLUConvBN(in_channels, out_channels, in_hw, rng=rng, dtype=dtype)


class MixedCell(Module):
    """One cell of either network.

    ``inputs`` maps each cell type to, per intermediate node j, the ``(source
    state i, operator kinds)`` pairs the node sums; each pair is a
    ``MixedEdge`` registered as ``edge_{i}_{j}``. A reduction cell strides
    only the edges leaving its input states.
    """

    def __init__(self, cfg: SupernetConfig, index: int, channels: int,
                 prev_channels: int, prev_prev_channels: int,
                 in_hw_pp: tuple[int, int], in_hw_p: tuple[int, int], inputs, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.index = index
        reduction = index in cfg.reduction_indices
        self.cell_type = "reduce" if reduction else "normal"
        h, w = in_hw_p
        self.out_hw = ((h + 1) // 2, (w + 1) // 2) if reduction else in_hw_p
        self.out_channels = channels * cfg.multiplier
        self.pre0 = _preprocess(prev_prev_channels, channels, in_hw_pp,
                                index - 1 in cfg.reduction_indices,
                                rng=rng, dtype=dtype)
        self.pre1 = _preprocess(prev_channels, channels, in_hw_p, False,
                                rng=rng, dtype=dtype)
        self.edges: dict[tuple[int, int], MixedEdge] = {}
        for j, node_inputs in zip(intermediate_nodes(cfg.nodes), inputs[self.cell_type]):
            for i, kinds in node_inputs:
                stride, hw = (2, in_hw_p) if reduction and i < 2 else (1, self.out_hw)
                edge = MixedEdge(kinds, channels, stride, hw, rng=rng, dtype=dtype)
                self.add_module(f"edge_{i}_{j}", edge)
                self.edges[(i, j)] = edge

    def forward(self, s0: Tensor, s1: Tensor) -> Tensor:
        # Edges run node by node, so a state is complete before an edge reads
        # it. Every op starts with a ReLU of its source state; it is applied
        # once per state that some edge reads and shared by all of them.
        states = {0: self.pre0(s0), 1: self.pre1(s1)}
        relu_states: dict[int, Tensor] = {}
        for (i, j), edge in self.edges.items():
            if i not in relu_states:
                relu_states[i] = ad.relu(states[i])
            contribution = edge(relu_states[i])
            states[j] = contribution if j not in states else states[j] + contribution
        return ad.concat(list(states.values())[2:], axis=0)


class Stem(Module):
    """3x3 conv from the 3 (RGB) input channels to the stem width followed
    by BN (no ReLU)."""

    def __init__(self, out_channels: int, in_hw: tuple[int, int], *, rng, dtype):
        super().__init__()
        self.conv = Conv2d(3, out_channels, 3, padding=1, in_hw=in_hw,
                           rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(out_channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(((self.conv,), x))


class _NetworkBase(Module):
    """Stem, cells and classifier of both networks; ``inputs`` is each
    cell's (see ``MixedCell``)."""

    def __init__(self, cfg: SupernetConfig, inputs, *, dtype, seed: int):
        super().__init__()
        self.cfg = cfg
        self.dtype = dtype
        rng = np.random.Generator(np.random.PCG64([seed & 0xFFFFFFFF, 0x5EED]))
        stem_channels = STEM_MULTIPLIER * cfg.initial_channels
        self.stem = Stem(stem_channels, cfg.input_hw, rng=rng, dtype=dtype)
        self.cells: list[MixedCell] = []
        c_pp, c_p = stem_channels, stem_channels
        hw_pp, hw_p = cfg.input_hw, cfg.input_hw
        channels = cfg.initial_channels
        for index in range(cfg.cells):
            if index in cfg.reduction_indices:
                channels *= 2
            cell = MixedCell(cfg, index, channels, c_p, c_pp, hw_pp, hw_p, inputs,
                             rng=rng, dtype=dtype)
            self.add_module(f"cell{index}", cell)
            self.cells.append(cell)
            c_pp, c_p = c_p, cell.out_channels
            hw_pp, hw_p = hw_p, cell.out_hw
        self.classifier = Linear(c_p, cfg.num_classes, rng=rng, dtype=dtype)
        self.assign_paths("net")

    def forward_features(self, x: Tensor) -> Tensor:
        """The last cell's output, (C, H, N, W), for NCHW images ``x``."""
        # The network's activations are channel-major (see convolution.py);
        # the images are transposed once, here.
        x = ad.transpose(x, (1, 2, 0, 3))
        # The stem output and each cell output but the last are rectified once
        # for both cells that read them; the classifier reads the last as is.
        s0 = s1 = ad.relu(self.stem(x))
        for cell in self.cells[:-1]:
            s0, s1 = s1, ad.relu(cell(s0, s1))
        return self.cells[-1](s0, s1)

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(global_avg_pool(self.forward_features(x)))


class Supernet(_NetworkBase):
    """Mixed-edge supernet with spectral handles on every convolution."""

    def __init__(self, cfg: SupernetConfig, spectral_cfg: SpectralConfig, *,
                 dtype=np.float32, seed: int = 0):
        if len(cfg.reduction_indices) == cfg.cells:
            raise ConstructionError(
                f"a {cfg.cells}-cell supernet has no cells of type 'normal', so "
                "its rank table would be incomplete; use at least 3 cells")
        every_edge = [[(i, OPERATOR_NAMES) for i in range(j)]
                      for j in intermediate_nodes(cfg.nodes)]
        super().__init__(cfg, dict.fromkeys(CELL_TYPES, every_edge),
                         dtype=dtype, seed=seed)
        self.spectral_cfg = spectral_cfg
        self._adjusted = False
        self.handles: list[ConvHandle] = []
        for module in self.modules():
            if isinstance(module, Conv2d):
                module.handle = ConvHandle(module.spec, module.in_hw,
                                           seed=spectral_cfg.seed, name=module.path)
                self.handles.append(module.handle)
        # The spectral-norm estimate runs once per stack (see spectral.py).
        self.handle_groups = stack_handles(self.handles)

    def candidates(self):
        """Every candidate operator as ``(cell, edge, op)``, by cell, edge and
        operator order."""
        for cell in self.cells:
            for edge, mixed in cell.edges.items():
                for op in mixed.ops:
                    yield cell, edge, op

    # Step bookkeeping -------------------------------------------------------

    def begin_step(self) -> None:
        self._adjusted = False

    def adjust_all(self, iterations: int | None = None) -> None:
        """Spectral-norm adjust every registered conv (before the forward pass)."""
        cfg = self.spectral_cfg
        if iterations is not None and iterations != cfg.iterations:
            cfg = dataclasses.replace(
                cfg, iterations=iterations,
                rank_iterations=max(cfg.rank_iterations, iterations))
        for group in self.handle_groups:
            spectral_norm_adjust(group, cfg)
        self._adjusted = True

    def forward(self, x: Tensor) -> Tensor:
        if self.training and not self._adjusted:
            raise StateError(
                "spectral adjustment has not been applied this step; call "
                "adjust_all() after begin_step() and before the forward pass"
            )
        return super().forward(x)


class DiscreteNetwork(_NetworkBase):
    """Genotype-pruned network trained from scratch; no spectral machinery."""

    def __init__(self, genotype: Genotype, cfg: SupernetConfig, *,
                 dtype=np.float32, seed: int = 0):
        if genotype.nodes != cfg.nodes:
            raise GenotypeError(
                f"genotype built for {genotype.nodes} nodes, config has {cfg.nodes}"
            )
        genotype.validate()
        kept = {t: [[(i, (op,)) for op, i in row]
                    for row in genotype.rows(t)] for t in CELL_TYPES}
        super().__init__(cfg, kept, dtype=dtype, seed=seed)


def build_supernet(cfg: SupernetConfig,
                   spectral_cfg: SpectralConfig | None = None, *,
                   dtype=np.float32, seed: int = 0) -> Supernet:
    return Supernet(cfg, spectral_cfg or SpectralConfig(), dtype=dtype, seed=seed)


def build_discrete_network(genotype: Genotype, cfg: SupernetConfig, *,
                           dtype=np.float32, seed: int = 0) -> DiscreteNetwork:
    return DiscreteNetwork(genotype, cfg, dtype=dtype, seed=seed)


def _scored_rank_table(net: Supernet, epoch: int) -> tuple[RankTable, dict]:
    """The rank table, from one ``stable_rank`` call per final conv, and
    the ``(cell, stable_rank result)`` pairs behind each of its entries, in
    cell index order."""
    scored: dict[tuple[str, tuple[int, int], str],
                 list[tuple[MixedCell, tuple | None]]] = {}
    for cell, edge, op in net.candidates():
        scored.setdefault((cell.cell_type, edge, op.kind), []).append(
            (cell, stable_rank(op.fin_conv.spec, op.fin_conv.in_hw)))
    table = RankTable(nodes=net.cfg.nodes, epoch=epoch, seed=net.spectral_cfg.seed)
    for key, pairs in scored.items():
        results = [result for _, result in pairs]
        table.set(*key, None if None in results
                  else float(np.mean([rank for rank, _ in results])))
    table.require_complete()
    return table, scored


def collect_rank_table(net: Supernet, *, epoch: int = 0) -> RankTable:
    """Average stable rank of every candidate's final conv per cell type,
    from one ``stable_rank`` call per final conv.

    Degenerate convolutions flag their whole (type, edge, operator) entry.
    """
    return _scored_rank_table(net, epoch)[0]


def conv_rank_report(net: Supernet, *, epoch: int = 0) -> str:
    """Structured text report: averaged and per-cell ranks, spectral norms
    and Frobenius norms of the matrix view for every candidate's final
    conv, each conv scored once. The spectral norms are those the rank
    table divides by."""
    table, scored = _scored_rank_table(net, epoch)
    lines = ["# msrnas conv rank report", f"meta epoch {epoch}"]
    for cell_type in CELL_TYPES:
        for edge in cell_edges(net.cfg.nodes):
            for kind in OPERATOR_NAMES:
                key = (cell_type, edge, kind)
                avg = table.entries[key]
                avg_text = "degenerate" if avg is None else f"{avg:.6g}"
                lines.append(
                    f"op {cell_type} edge=({edge[0]},{edge[1]}) "
                    f"kind={kind} rbar={avg_text}"
                )
                # Cells in index order, as ``Supernet.candidates`` yields them.
                for cell, result in scored[key]:
                    if result is None:
                        # A degenerate conv's weight is zero.
                        rank_text, sigma, fro = "degenerate", np.nan, 0.0
                    else:
                        # The rank is fro^2 / sigma^2.
                        rank, sigma = result
                        rank_text, fro = f"{rank:.6g}", sigma * np.sqrt(rank)
                    lines.append(f"  cell={cell.index} rank={rank_text} "
                                 f"sigma={sigma:.6g} fro={fro:.6g}")
    lines.append(
        f"total rows={2 * len(cell_edges(net.cfg.nodes)) * len(OPERATOR_NAMES)} "
        f"handles={len(net.handles)} fin_convs={sum(map(len, scored.values()))}"
    )
    return "\n".join(lines) + "\n"
