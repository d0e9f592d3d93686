import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whiteboard import (
    GridNode,
    PhonemeMatrix,
    Thresholds,
    TimeSpan,
    Whiteboard,
    canonical_form,
    grid_connected,
    grid_to_lattice,
    parse_matrix_file,
    topk_matrices,
)
from whiteboard.errors import EmptyLayer, InconsistentFrameCount, ParseError
from oracles import (
    connected_oracle,
    grid_lattice_oracle,
    per_cell_topk,
    valid_lattice,
)


def node(b, e, label="x", score=0.5):
    return GridNode(TimeSpan(b, e), label, score)


# -- the connectivity predicate ----------------------------------------------

def test_exact_adjacency_connects():
    assert grid_connected(node(0, 10), node(10, 20), Thresholds(0, 0))


def test_contained_span_never_connects():
    assert not grid_connected(node(0, 10), node(5, 9), Thresholds(99, 99))


def test_window_boundaries_match_hand_evaluation():
    th = Thresholds(max_gap=2, max_overlap=3)
    assert grid_connected(node(0, 10), node(8, 20), th)       # 8 <= 8 <= 13
    assert not grid_connected(node(0, 10), node(7, 20), th)   # 7 < 8
    assert grid_connected(node(0, 10), node(13, 20), th)      # 13 <= 13
    assert not grid_connected(node(0, 10), node(14, 20), th)  # 14 > 13


@given(st.integers(0, 30), st.integers(0, 8), st.integers(0, 30),
       st.integers(0, 8), st.integers(0, 4), st.integers(0, 4))
def test_predicate_equals_brute_force(b1, l1, b2, l2, gap, overlap):
    n, m = node(b1, b1 + l1), node(b2, b2 + l2)
    th = Thresholds(gap, overlap)
    assert grid_connected(n, m, th) == connected_oracle(
        n.span.begin, n.span.end, m.span.begin, m.span.end, gap, overlap)


@given(st.integers(0, 30), st.integers(0, 8), st.integers(0, 30),
       st.integers(0, 8), st.integers(0, 4), st.integers(0, 4))
def test_predicate_antisymmetry(b1, l1, b2, l2, gap, overlap):
    n, m = node(b1, b1 + l1), node(b2, b2 + l2)
    th = Thresholds(gap, overlap)
    assert not (grid_connected(n, m, th) and grid_connected(m, n, th))


def test_thresholds_must_be_non_negative():
    with pytest.raises(ValueError):
        Thresholds(-1, 0)


# -- top-k ranking -------------------------------------------------------------

def test_topk_single_matrix_is_identity():
    matrix = PhonemeMatrix("a", {(0, 3): 0.9, (3, 6): 0.7}, 6)
    [ranked] = topk_matrices([matrix], 1)
    assert ranked.rank == 1
    assert ranked.cells == {(0, 3): ("a", 0.9), (3, 6): ("a", 0.7)}


def test_topk_two_matrices_frozen_expectation():
    matrices = [PhonemeMatrix("a", {(0, 3): 0.9}, 3),
                PhonemeMatrix("b", {(0, 3): 0.7}, 3)]
    ranked = topk_matrices(matrices, 3)
    assert len(ranked) == 2  # no third candidate anywhere
    assert ranked[0].cells == {(0, 3): ("a", 0.9)}
    assert ranked[1].cells == {(0, 3): ("b", 0.7)}


def test_topk_ties_break_by_label_then_insertion():
    matrices = [PhonemeMatrix("b", {(0, 3): 0.9}, 3),
                PhonemeMatrix("a", {(0, 3): 0.9}, 3)]
    ranked = topk_matrices(matrices, 2)
    assert ranked[0].cells[(0, 3)] == ("a", 0.9)
    assert ranked[1].cells[(0, 3)] == ("b", 0.9)


def test_topk_inconsistent_frame_count():
    with pytest.raises(InconsistentFrameCount):
        topk_matrices([PhonemeMatrix("a", {}, 5), PhonemeMatrix("b", {}, 6)], 1)


def random_matrices(rng, n=5, frames=10):
    out = []
    for i in range(n):
        cells = {}
        for _ in range(rng.randint(0, 8)):
            b = rng.randint(0, frames - 1)
            cells[(b, rng.randint(b, frames))] = round(rng.uniform(0, 1), 3)
        out.append(PhonemeMatrix(f"p{i}", cells, frames))
    return out


def test_topk_matches_per_cell_sort_oracle():
    rng = random.Random(7)
    for _ in range(50):
        matrices = random_matrices(rng)
        ranked = topk_matrices(matrices, 3)
        expected = per_cell_topk(matrices, 3)
        assert {r.rank: r.cells for r in ranked} == expected


def test_topk_stability_reconstructs_best_of_multiset():
    # concatenating the per-rank cells and re-sorting per span reproduces
    # the k best of the raw per-cell multiset
    rng = random.Random(11)
    matrices = random_matrices(rng, n=6)
    k = 3
    ranked = topk_matrices(matrices, k)
    per_span: dict = {}
    for rm in ranked:
        for cell, payload in rm.cells.items():
            per_span.setdefault(cell, []).append(payload)
    raw: dict = {}
    for m in matrices:
        for cell, score in m.scores.items():
            raw.setdefault(cell, []).append((m.phoneme, score))
    for cell, got in per_span.items():
        best = sorted(raw[cell], key=lambda c: (-c[1], c[0]))[:k]
        assert sorted(got, key=lambda c: (-c[1], c[0])) == best


# -- grid to lattice --------------------------------------------------------------

def test_two_adjacent_nodes_one_arc():
    board = Whiteboard()
    layer = board.declare_layer("g")
    grid_to_lattice([node(0, 3, "a"), node(3, 6, "b")], Thresholds(0, 0), layer)
    assert len(layer.white_nodes) == 2
    assert len(layer.arcs) == 1
    layer.seal()
    assert valid_lattice(layer)


def test_empty_grid_fails_on_seal():
    board = Whiteboard()
    layer = board.declare_layer("g")
    grid_to_lattice([], Thresholds(0, 0), layer)
    with pytest.raises(EmptyLayer):
        layer.seal()


def test_random_grids_match_pairwise_oracle_and_seal():
    # few labels and frames, so many nodes pack into one white node
    rng = random.Random(3)
    for trial in range(200):
        nodes = [node(b, b + rng.randint(0, 4), rng.choice("abc"),
                      rng.uniform(0, 1))
                 for b in rng.choices(range(12), k=rng.randint(1, 25))]
        th = Thresholds(rng.randint(0, 3), rng.randint(0, 3))
        board, reference = Whiteboard(), Whiteboard()
        layer = board.declare_layer("g")
        grid_to_lattice(nodes, th, layer)
        grid_lattice_oracle(nodes, th.max_gap, th.max_overlap,
                            reference.declare_layer("g"))
        assert canonical_form(board) == canonical_form(reference), trial
        layer.seal()
        assert valid_lattice(layer)  # conversion always yields a valid lattice


def test_wider_thresholds_never_remove_arcs():
    rng = random.Random(5)
    nodes = [node(b, b + rng.randint(1, 3), f"n{i}", 0.5)
             for i, b in enumerate(rng.choices(range(10), k=8))]

    def arc_set(th):
        board = Whiteboard()
        layer = board.declare_layer("g")
        grid_to_lattice(nodes, th, layer)
        return {(layer.white_nodes[a.origin].label,
                 layer.white_nodes[a.extremity].label)
                for a in layer.arcs.values()}

    for gap, overlap in [(0, 0), (1, 0), (0, 1), (1, 2), (2, 2)]:
        narrower = arc_set(Thresholds(gap, overlap))
        wider = arc_set(Thresholds(gap + 1, overlap + 2))
        assert narrower <= wider


# -- matrix files --------------------------------------------------------------------

def test_parse_matrix_file_basics():
    text = "; comment\n\n(0 3 h 0.9)\n(3 6 a 0.95) ; trailing\n(0 3 m 0.4)\n"
    matrices = parse_matrix_file(text)
    assert [(m.phoneme, m.scores) for m in matrices] == [
        ("a", {(3, 6): 0.95}), ("h", {(0, 3): 0.9}), ("m", {(0, 3): 0.4})]
    assert all(m.frame_count == 6 for m in matrices)


def test_parse_matrix_file_rejects_bad_records():
    with pytest.raises(ParseError):
        parse_matrix_file("(0 3 h)\n")
    with pytest.raises(ParseError):
        parse_matrix_file("(3 0 h 0.9)\n")


def test_matrix_file_errors_name_the_file_line_after_comments():
    head = "; utterance\n; main path\n\n(0 3 h 0.9)\n"
    with pytest.raises(ParseError) as err:
        parse_matrix_file(head + "; runner-up\n(3 6 a oops) ; trailing\n")
    assert (err.value.line, err.value.column) == (6, 8)
    assert "score: not a number: oops" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_matrix_file(head + "(6 3 a 0.5)\n")
    assert err.value.line == 5 and "bad span (6,3)" in str(err.value)
