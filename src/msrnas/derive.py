"""Discrete-architecture derivation from averaged stable-rank tables.

``derive_genotype`` scores each edge into an intermediate node once: by
its best entry, the smallest averaged stable rank, which also picks the
edge's operator. Per node it keeps the two best-scoring edges. The
maximum-rank ablation baseline differs only by the sign of each entry's
score; a degenerate entry scores worst in both modes, and a kept edge whose
entries are all degenerate raises ``DerivationError``. All ties break
toward the lower operator index (sep3 < sep5 < dil3 < dil5) and the lower
node index. A rank-table file holds each entry once, as a finite number or
``degenerate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import ArgumentError, DerivationError, FormatError, GenotypeError
from .operators import OPERATOR_NAMES

CELL_TYPES = ("normal", "reduce")


class SelectionMode(str, Enum):
    MIN_STABLE_RANK = "min"
    MAX_STABLE_RANK = "max"


def intermediate_nodes(nodes: int) -> range:
    """Indices of the intermediate nodes x_2 .. x_{N-2}."""
    return range(2, nodes - 1)


def cell_edges(nodes: int) -> list[tuple[int, int]]:
    """All DAG edges (i, j) feeding intermediate nodes, i < j."""
    return [(i, j) for j in intermediate_nodes(nodes) for i in range(j)]


@dataclass
class RankTable:
    """Averaged stable rank per (cell type, edge, operator).

    A value of None flags a degenerate entry (collapsed convolution); the
    active selection mode treats it as worst possible.
    """

    nodes: int
    entries: dict[tuple[str, tuple[int, int], str], float | None] = field(
        default_factory=dict
    )
    epoch: int = 0
    seed: int = 0

    def set(self, cell_type: str, edge: tuple[int, int], op: str,
            value: float | None) -> None:
        self.entries[(cell_type, tuple(edge), op)] = value

    def get(self, cell_type: str, edge: tuple[int, int], op: str) -> float | None:
        key = (cell_type, tuple(edge), op)
        if key not in self.entries:
            raise DerivationError(f"rank table has no entry for {key}")
        return self.entries[key]

    def require_complete(self) -> None:
        missing = [
            (t, e, op)
            for t in CELL_TYPES
            for e in cell_edges(self.nodes)
            for op in OPERATOR_NAMES
            if (t, e, op) not in self.entries
        ]
        if missing:
            raise DerivationError(
                f"rank table incomplete: {len(missing)} missing entries, "
                f"first {missing[0]}"
            )


@dataclass
class Genotype:
    """Discrete architecture: two (operator, predecessor) pairs per
    intermediate node, for each cell type; pairs sorted by predecessor."""

    mode: str
    nodes: int
    operators: tuple[str, ...]
    normal: list[list[tuple[str, int]]]
    reduce: list[list[tuple[str, int]]]

    def validate(self) -> None:
        if self.nodes < 4:
            raise GenotypeError(f"genotype needs at least 4 nodes, has {self.nodes}")
        for cell_type, rows in (("normal", self.normal), ("reduce", self.reduce)):
            expected = list(intermediate_nodes(self.nodes))
            if len(rows) != len(expected):
                raise GenotypeError(
                    f"{cell_type} genotype has {len(rows)} node rows, "
                    f"expected {len(expected)}"
                )
            for node, pairs in zip(expected, rows):
                if len(pairs) != 2:
                    raise GenotypeError(
                        f"{cell_type} node {node} must keep exactly 2 edges"
                    )
                preds = [p for _, p in pairs]
                if len(set(preds)) != 2 or any(not 0 <= p < node for p in preds):
                    raise GenotypeError(
                        f"{cell_type} node {node} has invalid predecessors {preds}"
                    )
                for op, _ in pairs:
                    if op not in OPERATOR_NAMES:
                        raise GenotypeError(f"unknown operator '{op}', not one of "
                                            f"{', '.join(OPERATOR_NAMES)}")

    def rows(self, cell_type: str) -> list[list[tuple[str, int]]]:
        if cell_type == "normal":
            return self.normal
        if cell_type == "reduce":
            return self.reduce
        raise ArgumentError(f"unknown cell type '{cell_type}'")

    def to_json_str(self) -> str:
        payload = {
            "mode": self.mode,
            "nodes": self.nodes,
            "operators": list(self.operators),
            "normal": [[[op, pred] for op, pred in row] for row in self.normal],
            "reduce": [[[op, pred] for op, pred in row] for row in self.reduce],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json_str(cls, text: str) -> "Genotype":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"genotype file is not valid JSON: {exc}") from exc
        try:
            geno = cls(
                mode=payload["mode"],
                nodes=int(payload["nodes"]),
                operators=tuple(payload["operators"]),
                normal=[[(op, int(p)) for op, p in row] for row in payload["normal"]],
                reduce=[[(op, int(p)) for op, p in row] for row in payload["reduce"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"genotype file missing or malformed field: {exc}") from exc
        geno.validate()
        return geno


def derive_genotype(table: RankTable,
                    mode: SelectionMode = SelectionMode.MIN_STABLE_RANK) -> Genotype:
    """Keep, per intermediate node, the two predecessors whose edges score
    best, each with the operator that gives its edge that score."""
    table.require_complete()
    sign = 1.0 if mode is SelectionMode.MIN_STABLE_RANK else -1.0
    per_type: dict[str, list[list[tuple[str, int]]]] = {}
    for cell_type in CELL_TYPES:
        rows = []
        for node in intermediate_nodes(table.nodes):
            # Per predecessor: its edge's best score, and the operator with
            # it (None when every entry of the edge is degenerate).
            scores, picks = [], []
            for i in range(node):
                values = [table.get(cell_type, (i, node), op) for op in OPERATOR_NAMES]
                op_scores = [math.inf if v is None else sign * v for v in values]
                scores.append(min(op_scores))
                picks.append(None if all(v is None for v in values)
                             else OPERATOR_NAMES[op_scores.index(scores[-1])])
            kept = sorted(sorted(range(node), key=scores.__getitem__)[:2])
            for i in kept:
                if picks[i] is None:
                    raise DerivationError(
                        f"every operator on {cell_type} edge {(i, node)} is degenerate"
                    )
            rows.append([(picks[i], i) for i in kept])
        per_type[cell_type] = rows
    geno = Genotype(
        mode=mode.value,
        nodes=table.nodes,
        operators=OPERATOR_NAMES,
        normal=per_type["normal"],
        reduce=per_type["reduce"],
    )
    geno.validate()
    return geno


# Rank-table text serialization ---------------------------------------------

_TABLE_HEADER = "# msrnas rank table v1"


def rank_table_to_text(table: RankTable) -> str:
    lines = [
        _TABLE_HEADER,
        f"meta nodes {table.nodes}",
        f"meta epoch {table.epoch}",
        f"meta seed {table.seed}",
    ]
    for cell_type in CELL_TYPES:
        for edge in cell_edges(table.nodes):
            for op in OPERATOR_NAMES:
                value = table.entries.get((cell_type, edge, op))
                rendered = "degenerate" if value is None else repr(float(value))
                lines.append(f"rank {cell_type} {edge[0]} {edge[1]} {op} {rendered}")
    return "\n".join(lines) + "\n"


def rank_table_from_text(text: str) -> RankTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _TABLE_HEADER:
        raise FormatError("rank table file missing header")
    meta: dict[str, int] = {}
    entries: dict[tuple[str, tuple[int, int], str], float | None] = {}
    edge_rows: list[tuple[tuple[int, int], str]] = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "meta" and len(parts) == 3:
                # Unknown keys, such as older tables' rank_iterations, are ignored.
                meta[parts[1]] = int(parts[2])
            elif parts[0] == "rank" and len(parts) == 6:
                cell_type, op, value = parts[1], parts[4], parts[5]
                key = (cell_type, (int(parts[2]), int(parts[3])), op)
                if cell_type not in CELL_TYPES or op not in OPERATOR_NAMES:
                    raise FormatError(f"unrecognized rank row: {ln!r}")
                rank = None if value == "degenerate" else float(value)
                if rank is not None and not math.isfinite(rank):
                    raise FormatError(f"non-finite rank in rank-table line {ln!r}")
                if key in entries:
                    raise FormatError(f"repeated rank row: {ln!r}")
                entries[key] = rank
                edge_rows.append((key[1], ln))
            else:
                raise FormatError(f"unrecognized rank-table line: {ln!r}")
        except ValueError as exc:
            raise FormatError(f"bad number in rank-table line {ln!r}: {exc}") from exc
    if "nodes" not in meta:
        raise FormatError("rank table missing 'meta nodes'")
    edges = set(cell_edges(meta["nodes"]))
    for edge, ln in edge_rows:
        if edge not in edges:
            raise FormatError(
                f"rank row for an edge outside a {meta['nodes']}-node cell: {ln!r}"
            )
    return RankTable(
        nodes=meta["nodes"],
        entries=entries,
        epoch=meta.get("epoch", 0),
        seed=meta.get("seed", 0),
    )


def load_rank_table(path) -> RankTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return rank_table_from_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read rank table {path}: {exc}") from exc
