"""Derivation rules against hand values and an exhaustive per-node enumerator."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnas.cli import main
from msrnas.config import RunConfig
from msrnas.derive import (
    CELL_TYPES,
    Genotype,
    RankTable,
    SelectionMode,
    best_operator,
    cell_edges,
    derive_genotype,
    edge_strength,
    intermediate_nodes,
    rank_table_from_text,
    rank_table_to_text,
    select_predecessors,
)
from msrnas.errors import ArgumentError, DerivationError, FormatError, GenotypeError
from msrnas.operators import OPERATOR_NAMES

MIN = SelectionMode.MIN_STABLE_RANK
MAX = SelectionMode.MAX_STABLE_RANK


def table_for(nodes, fill):
    """Build a complete table; fill(cell_type, edge, op) -> value."""
    table = RankTable(nodes=nodes)
    for t in CELL_TYPES:
        for edge in cell_edges(nodes):
            for op in OPERATOR_NAMES:
                table.set(t, edge, op, fill(t, edge, op))
    return table


def random_table(nodes, seed, integer_values=False):
    rng = np.random.Generator(np.random.PCG64(seed))
    if integer_values:
        return table_for(nodes, lambda t, e, o: float(rng.integers(1, 12)))
    return table_for(nodes, lambda t, e, o: float(1.0 + 99.0 * rng.random()))


def enumerate_node_assignment(table, cell_type, node, mode):
    """Exhaustive oracle: score every legal (predecessor-pair, operator-pair)
    assignment for one intermediate node and return the best one."""
    sign = -1.0 if mode is MIN else 1.0

    def score(i, op):
        v = table.get(cell_type, (i, node), op)
        if v is None:
            return -math.inf
        return sign * v

    best = None
    for i1, i2 in itertools.combinations(range(node), 2):
        for op1 in OPERATOR_NAMES:
            for op2 in OPERATOR_NAMES:
                total = score(i1, op1) + score(i2, op2)
                key = (
                    -total,
                    i1, i2,
                    OPERATOR_NAMES.index(op1),
                    OPERATOR_NAMES.index(op2),
                )
                if best is None or key < best[0]:
                    best = (key, [(op1, i1), (op2, i2)])
    return best[1]


def oracle_genotype(table, mode):
    per_type = {}
    for cell_type in CELL_TYPES:
        per_type[cell_type] = [
            enumerate_node_assignment(table, cell_type, node, mode)
            for node in intermediate_nodes(table.nodes)
        ]
    return Genotype(mode=mode.value, nodes=table.nodes,
                    operators=OPERATOR_NAMES,
                    normal=per_type["normal"], reduce=per_type["reduce"])


EXAMPLE = {"sep3": 3.2, "sep5": 2.1, "dil3": 4.0, "dil5": 2.5}


def test_best_operator_min_and_max():
    table = table_for(5, lambda t, e, o: EXAMPLE[o])
    assert best_operator(table, "normal", (0, 2), MIN) == "sep5"
    assert best_operator(table, "normal", (0, 2), MAX) == "dil3"


def test_best_operator_tie_break():
    table = table_for(5, lambda t, e, o: 2.0)
    assert best_operator(table, "normal", (0, 2), MIN) == "sep3"
    assert best_operator(table, "normal", (0, 2), MAX) == "sep3"


def test_best_operator_flagged_entries():
    def fill(t, e, o):
        return None if o == "sep3" else EXAMPLE[o]

    table = table_for(5, fill)
    assert best_operator(table, "normal", (0, 2), MIN) == "sep5"
    assert best_operator(table, "normal", (0, 2), MAX) == "dil3"


def test_best_operator_all_flagged_raises():
    table = table_for(5, lambda t, e, o: None)
    with pytest.raises(DerivationError):
        best_operator(table, "normal", (0, 2), MIN)


def test_edge_strength_values():
    table = table_for(5, lambda t, e, o: EXAMPLE[o])
    assert edge_strength(table, "normal", (0, 2), MIN) == pytest.approx(-2.1)
    constant = table_for(5, lambda t, e, o: 7.0)
    assert edge_strength(constant, "reduce", (1, 3), MIN) == pytest.approx(-7.0)


def test_edge_strength_orders_edges_by_min_rank(rng):
    table = random_table(7, seed=5)
    edges = [(i, 5) for i in range(5)]
    strengths = [edge_strength(table, "normal", e, MIN) for e in edges]
    min_ranks = [
        min(table.get("normal", e, op) for op in OPERATOR_NAMES) for e in edges
    ]
    assert np.argsort(strengths).tolist() == np.argsort(min_ranks)[::-1].tolist()


def test_select_predecessors_example():
    by_source = {0: 2.0, 1: 3.0, 2: 1.5, 3: 2.5}

    def fill(t, e, o):
        return by_source[e[0]] if e[1] == 4 else 1.0

    table = table_for(7, fill)
    assert select_predecessors(table, "normal", 4, MIN) == (2, 0)


def test_select_predecessors_forced_pair():
    table = random_table(5, seed=1)
    assert set(select_predecessors(table, "normal", 2, MIN)) == {0, 1}


def test_select_predecessors_tie_break():
    table = table_for(7, lambda t, e, o: 3.0)
    assert select_predecessors(table, "reduce", 4, MIN) == (0, 1)


def test_select_predecessors_bad_node():
    table = random_table(5, seed=2)
    with pytest.raises(ArgumentError):
        select_predecessors(table, "normal", 1, MIN)


def test_uniform_best_operator_appears_everywhere():
    def fill(t, e, o):
        return 1.5 if o == "dil5" else 5.0 + OPERATOR_NAMES.index(o)

    table = table_for(6, fill)
    geno = derive_genotype(table, mode=MIN)
    for rows in (geno.normal, geno.reduce):
        for pairs in rows:
            assert all(op == "dil5" for op, _ in pairs)


def test_min_max_modes_differ_on_distinct_tables():
    table = random_table(6, seed=3)
    g_min = derive_genotype(table, mode=MIN)
    g_max = derive_genotype(table, mode=MAX)
    for row_min, row_max in zip(g_min.normal, g_max.normal):
        for (op_a, i_a), (op_b, i_b) in zip(row_min, row_max):
            if i_a == i_b:
                assert op_a != op_b


def test_derive_matches_exhaustive_oracle_corpus():
    for seed in range(300):
        nodes = 5 + (seed % 3)
        table = random_table(nodes, seed=seed)
        for mode in (MIN, MAX):
            got = derive_genotype(table, mode=mode)
            expected = oracle_genotype(table, mode)
            assert got.normal == expected.normal, f"seed {seed} mode {mode}"
            assert got.reduce == expected.reduce, f"seed {seed} mode {mode}"


def test_derive_matches_oracle_with_ties():
    for seed in range(60):
        table = random_table(6, seed=seed + 10_000, integer_values=True)
        for mode in (MIN, MAX):
            got = derive_genotype(table, mode=mode)
            expected = oracle_genotype(table, mode)
            assert got.normal == expected.normal
            assert got.reduce == expected.reduce


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 7))
def test_monotone_transform_invariance(seed, nodes):
    table = random_table(nodes, seed=seed)
    transformed = RankTable(nodes=nodes, entries={
        key: math.exp(0.3 * value) + 2.0 for key, value in table.entries.items()
    })
    assert derive_genotype(table, mode=MIN) == derive_genotype(
        RankTable(nodes=nodes, entries={
            key: math.exp(0.3 * v) + 2.0 for key, v in table.entries.items()
        }), mode=MIN)
    assert derive_genotype(transformed, mode=MIN).normal == \
        derive_genotype(table, mode=MIN).normal


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 7))
def test_derived_genotype_always_valid(seed, nodes):
    geno = derive_genotype(random_table(nodes, seed=seed), mode=MIN)
    geno.validate()
    for rows in (geno.normal, geno.reduce):
        for node, pairs in zip(intermediate_nodes(nodes), rows):
            preds = [p for _, p in pairs]
            assert len(set(preds)) == 2
            assert all(p < node for p in preds)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mode_duality_on_negated_table(seed):
    # About 30% of the entries are degenerate, so some edges have no usable
    # operator; where such an edge is kept, both sides fail the same way.
    rng = np.random.Generator(np.random.PCG64(seed))
    table = table_for(6, lambda t, e, o: (
        None if rng.random() < 0.3 else float(1.0 + 99.0 * rng.random())))
    negated = RankTable(nodes=6, entries={
        key: None if value is None else -value
        for key, value in table.entries.items()
    })

    def outcome(tab, mode):
        try:
            geno = derive_genotype(tab, mode=mode)
        except DerivationError as exc:
            return str(exc)
        return geno.normal, geno.reduce

    assert outcome(table, MAX) == outcome(negated, MIN)


def test_incomplete_table_rejected():
    table = random_table(5, seed=4)
    del table.entries[("normal", (0, 2), "sep3")]
    with pytest.raises(DerivationError, match="incomplete"):
        derive_genotype(table, mode=MIN)


def test_rank_table_text_roundtrip():
    table = random_table(6, seed=7)
    table.entries[("reduce", (0, 2), "dil3")] = None
    table.epoch, table.seed = 12, 3
    text = rank_table_to_text(table)
    assert "rank_iterations" not in text
    back = rank_table_from_text(text)
    assert back.nodes == table.nodes
    assert back.epoch == 12 and back.seed == 3
    assert back.entries == table.entries
    assert rank_table_to_text(back) == text


# A table as written before the rank table dropped its rank_iterations line.
OLD_FORMAT_TABLE = """\
# msrnas rank table v1
meta nodes 4
meta epoch 7
meta seed 2
meta rank_iterations 50
rank normal 0 2 sep3 3.5
rank normal 0 2 sep5 4.25
rank normal 0 2 dil3 degenerate
rank normal 0 2 dil5 5.0
rank normal 1 2 sep3 6.0
rank normal 1 2 sep5 2.5
rank normal 1 2 dil3 7.125
rank normal 1 2 dil5 8.0
rank reduce 0 2 sep3 1.5
rank reduce 0 2 sep5 2.0
rank reduce 0 2 dil3 3.0
rank reduce 0 2 dil5 4.0
rank reduce 1 2 sep3 9.0
rank reduce 1 2 sep5 8.5
rank reduce 1 2 dil3 1.25
rank reduce 1 2 dil5 6.5
"""


def test_rank_table_reads_old_format_with_rank_iterations():
    table = rank_table_from_text(OLD_FORMAT_TABLE)
    assert (table.nodes, table.epoch, table.seed) == (4, 7, 2)
    assert table.get("normal", (0, 2), "dil3") is None
    assert table.get("reduce", (1, 2), "dil3") == 1.25
    table.require_complete()
    geno = derive_genotype(table, mode=MIN)
    assert geno.normal == [[("sep3", 0), ("sep5", 1)]]
    assert geno.reduce == [[("sep3", 0), ("dil3", 1)]]
    # Written back, the table drops only the rank_iterations line.
    assert rank_table_to_text(table) == OLD_FORMAT_TABLE.replace(
        "meta rank_iterations 50\n", "")


def test_rank_table_bad_header():
    with pytest.raises(FormatError):
        rank_table_from_text("nonsense\n")


@pytest.mark.parametrize("line", [
    "meta nodes x",
    "rank normal a 2 sep3 1.0",
    "rank normal 0 2 sep3 abc",
])
def test_rank_table_bad_number(line):
    text = rank_table_to_text(random_table(4, seed=1)) + line + "\n"
    with pytest.raises(FormatError, match="bad number"):
        rank_table_from_text(text)


def with_rank(text: str, row: str, value: str) -> str:
    """``text`` with the rank row that starts with ``row`` set to ``value``."""
    return "".join(f"{row} {value}\n" if ln.startswith(row + " ") else ln
                   for ln in text.splitlines(keepends=True))


# (damaged table text from an intact one, the FormatError it must raise)
DAMAGED_TABLES = {
    "sep3-nan": (lambda text: with_rank(text, "rank normal 0 2 sep3", "nan"),
                 "non-finite rank in rank-table line 'rank normal 0 2 sep3 nan'"),
    "dil5-nan": (lambda text: with_rank(text, "rank reduce 1 2 dil5", "NaN"),
                 "non-finite rank in rank-table line 'rank reduce 1 2 dil5 NaN'"),
    "inf": (lambda text: with_rank(text, "rank normal 1 2 sep5", "inf"),
            "non-finite rank in rank-table line 'rank normal 1 2 sep5 inf'"),
    "minus-inf": (lambda text: with_rank(text, "rank reduce 0 2 dil3", "-inf"),
                  "non-finite rank in rank-table line 'rank reduce 0 2 dil3 -inf'"),
    "repeated": (lambda text: text + "rank normal 0 2 sep3 1.0\n",
                 "repeated rank row: 'rank normal 0 2 sep3 1.0'"),
    "repeated-degenerate": (lambda text: text + "rank reduce 0 2 dil3 degenerate\n",
                            "repeated rank row: 'rank reduce 0 2 dil3 degenerate'"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_TABLES))
def test_rank_table_rejects_non_finite_and_repeated_rows(case):
    damage, message = DAMAGED_TABLES[case]
    text = damage(rank_table_to_text(random_table(4, seed=1)))
    with pytest.raises(FormatError, match=re.escape(message)):
        rank_table_from_text(text)


@pytest.mark.parametrize("case", ["sep3-nan", "repeated"])
def test_derive_cli_rejects_damaged_rank_table(tmp_path, capsys, case):
    damage, message = DAMAGED_TABLES[case]
    (tmp_path / "config.txt").write_text(RunConfig().to_text())
    (tmp_path / "ranks").mkdir()
    (tmp_path / "ranks" / "epoch_0000.txt").write_text(
        damage(rank_table_to_text(random_table(4, seed=1))))
    assert main(["derive", "--run", str(tmp_path), "--epoch", "0"]) == 1
    err = capsys.readouterr().err
    assert err == f"error[format]: {message}\n"
    assert not (tmp_path / "genotype_min.json").exists()


def test_genotype_json_roundtrip_and_canonical_order():
    geno = derive_genotype(random_table(7, seed=8), mode=MIN)
    text = geno.to_json_str()
    assert text.index('"mode"') < text.index('"nodes"') < text.index('"operators"')
    assert text.index('"operators"') < text.index('"normal"') < text.index('"reduce"')
    back = Genotype.from_json_str(text)
    assert back == geno
    assert back.to_json_str() == text


def test_genotype_validation_rejects_bad_structures():
    geno = derive_genotype(random_table(5, seed=9), mode=MIN)
    broken = Genotype(mode="min", nodes=5, operators=OPERATOR_NAMES,
                      normal=[[("sep3", 0)], geno.normal[1]],
                      reduce=geno.reduce)
    with pytest.raises(GenotypeError):
        broken.validate()
    dup = Genotype(mode="min", nodes=5, operators=OPERATOR_NAMES,
                   normal=[[("sep3", 0), ("sep5", 0)], geno.normal[1]],
                   reduce=geno.reduce)
    with pytest.raises(GenotypeError):
        dup.validate()
    # Listing an operator outside the candidate set does not make it valid.
    foreign = Genotype(mode="min", nodes=5, operators=(*OPERATOR_NAMES, "conv9"),
                       normal=[[("conv9", 0), ("sep3", 1)], geno.normal[1]],
                       reduce=geno.reduce)
    with pytest.raises(GenotypeError, match="conv9"):
        foreign.validate()


def test_genotype_from_bad_json():
    with pytest.raises(FormatError):
        Genotype.from_json_str("{not json")
    with pytest.raises(FormatError):
        Genotype.from_json_str("{}")
