import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiteboard import (
    TimeSpan,
    Whiteboard,
    boards_isomorphic,
    filter_slice,
    from_json,
    load_dictionary,
    load_grammar,
    to_dot,
    to_json,
)
from whiteboard.errors import (
    CrossLayerArc,
    DependencyCycle,
    DuplicateLayer,
    EmptyEndpointList,
    EmptyLayer,
    IllegalLabel,
    LayerSealed,
    NotSealed,
    UnknownDependency,
    UnknownNode,
    WouldCreateCycle,
)
from oracles import dfs_paths

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import workload  # noqa: E402  (the in-process demo build)


def span(b, e):
    return TimeSpan(b, e)


def make_layer(board=None, name="test", **kwargs):
    board = board or Whiteboard()
    return board.declare_layer(name, **kwargs)


# -- layer declaration -------------------------------------------------------

def test_declare_single_layer():
    board = Whiteboard()
    board.declare_layer("phonemes")
    assert list(board.layers) == ["phonemes"]


def test_declare_three_layer_chain():
    board = Whiteboard()
    board.declare_layer("phonemes")
    board.declare_layer("syntax", depends_on={"phonemes"})
    board.declare_layer("ww", depends_on={"syntax"})
    assert board.dependency_order() == ["phonemes", "syntax", "ww"]


def test_duplicate_layer_rejected():
    board = Whiteboard()
    board.declare_layer("phonemes")
    with pytest.raises(DuplicateLayer):
        board.declare_layer("phonemes")


def test_unknown_dependency_rejected():
    board = Whiteboard()
    with pytest.raises(UnknownDependency):
        board.declare_layer("a", depends_on={"b"})


def test_dependency_cycle_rejected():
    # mutual dependencies can never be declared (the first declaration
    # already fails on the unknown name); a self-loop is the reachable cycle
    board = Whiteboard()
    with pytest.raises(DependencyCycle):
        board.declare_layer("a", depends_on={"a"})
    with pytest.raises(UnknownDependency):
        board.declare_layer("a", depends_on={"b"})


# -- packing ------------------------------------------------------------------

def test_two_derivations_pack_into_one_node():
    layer = make_layer()
    id1, packed1 = layer.add_white_node(span(0, 3), "NP", 0.5, {"rule": "R1"})
    id2, packed2 = layer.add_white_node(span(0, 3), "NP", 0.4, {"rule": "R2"})
    assert id1 == id2
    assert (packed1, packed2) == (False, True)
    assert len(layer.white_nodes[id1].readings) == 2


def test_packed_score_is_max():
    layer = make_layer()
    node_id, _ = layer.add_white_node(span(0, 3), "NP", 0.4, "a")
    layer.add_white_node(span(0, 3), "NP", 0.9, "b")
    layer.add_white_node(span(0, 3), "NP", 0.2, "c")
    assert layer.white_nodes[node_id].score == 0.9


def test_distinct_keys_make_distinct_nodes():
    layer = make_layer()
    id1, _ = layer.add_white_node(span(0, 3), "NP", 0.4)
    id2, _ = layer.add_white_node(span(0, 4), "NP", 0.4)
    assert id1 != id2


def test_identical_readings_are_not_duplicated():
    layer = make_layer()
    node_id, _ = layer.add_white_node(span(0, 3), "NP", 0.4, {"rule": "R1"})
    layer.add_white_node(span(0, 3), "NP", 0.4, {"rule": "R1"})
    assert len(layer.white_nodes[node_id].readings) == 1


def test_packing_tolerance_clusters_to_first_span():
    layer = make_layer(packing_tolerance=1)
    id1, _ = layer.add_white_node(span(0, 10), "w", 0.5)
    id2, packed = layer.add_white_node(span(0, 11), "w", 0.6)
    assert id2 == id1 and packed
    node = layer.white_nodes[id1]
    assert node.span == span(0, 10)  # first insertion is canonical
    assert node.score == 0.6


def test_illegal_label_rejected():
    layer = make_layer(legal_labels={"a"})
    with pytest.raises(IllegalLabel):
        layer.add_white_node(span(0, 1), "b", 0.1)


@given(st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 4),
              st.sampled_from("abc"), st.floats(-1, 1)),
    max_size=30))
def test_packing_uniqueness_for_random_insert_sequences(inserts):
    layer = make_layer()
    for begin, length, label, score in inserts:
        layer.add_white_node(span(begin, begin + length), label, score)
    keys = [(n.span.end, n.span.length, n.label)
            for n in layer.white_nodes.values()]
    assert len(keys) == len(set(keys))


# -- arcs ----------------------------------------------------------------------

def test_add_arc_and_cycle_rejection():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    layer.add_arc(a, b)
    with pytest.raises(WouldCreateCycle):
        layer.add_arc(b, a)
    with pytest.raises(WouldCreateCycle):
        layer.add_arc(a, a)


def test_add_arc_once_skips_duplicates_and_self_loops_and_drops_cycles(caplog):
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    layer.add_arc_once(a, b, 0.5)
    layer.add_arc_once(a, b, 0.7)
    assert [(x.origin, x.extremity, x.weight) for x in layer.arcs.values()] == [
        (a, b, 0.5)]
    layer.add_arc_once(a, a)
    assert len(layer.arcs) == 1 and not caplog.records
    with caplog.at_level("WARNING", logger="whiteboard"):
        layer.add_arc_once(b, a)
    assert len(layer.arcs) == 1
    [record] = caplog.records
    assert record.getMessage().startswith("dropped arc")
    assert layer.seal().ok
    with pytest.raises(LayerSealed):
        layer.add_arc_once(a, b)


def test_a_time_monotone_arc_can_still_close_a_cycle(caplog):
    # arcs need not run forward in time, so "extremity ends later" alone
    # does not let an arc skip the cycle check
    layer = make_layer()
    early, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    late, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    layer.add_arc(late, early)
    with caplog.at_level("WARNING", logger="whiteboard"):
        layer.add_arc_once(early, late)
    assert [(x.origin, x.extremity) for x in layer.arcs.values()] == [
        (late, early)]
    [record] = caplog.records
    assert record.getMessage().startswith("dropped arc")


def test_negative_weight_accepted():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    arc_id = layer.add_arc(a, b, -0.5)
    assert layer.arcs[arc_id].weight == -0.5


def test_cross_layer_arc_rejected():
    board = Whiteboard()
    one = board.declare_layer("one")
    two = board.declare_layer("two")
    a, _ = one.add_white_node(span(0, 1), "A", 0.1)
    b, _ = two.add_white_node(span(1, 2), "B", 0.2)
    with pytest.raises(CrossLayerArc):
        one.add_arc(a, b)
    with pytest.raises(UnknownNode):
        one.add_arc(a, 999)


# -- grey nodes -------------------------------------------------------------------

def test_grey_nodes_are_path_transparent():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "X1", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "X2", 0.2)
    c, _ = layer.add_white_node(span(0, 2), "Y1", 0.3)
    layer.add_arc(a, b)
    layer.add_grey_node("R1", [a, b], [c])
    layer.seal()
    with_grey = [(p.labels, p.score) for p in layer.enumerate_paths()]
    assert sorted(p[0] for p in with_grey) == [("X1", "X2"), ("Y1",)]


def test_grey_node_m_to_n_and_empty_endpoints():
    layer = make_layer()
    ids = [layer.add_white_node(span(i, i + 1), f"X{i}", 0.1)[0]
           for i in range(5)]
    grey = layer.add_grey_node("R9", ids[:3], ids[3:])
    assert layer.grey_nodes[grey].inputs == tuple(ids[:3])
    with pytest.raises(EmptyEndpointList):
        layer.add_grey_node("R1", [], ids[:1])
    with pytest.raises(UnknownNode):
        layer.add_grey_node("R1", [999], ids[:1])


# -- sealing -----------------------------------------------------------------------

def test_seal_chain():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    c, _ = layer.add_white_node(span(2, 3), "C", 0.3)
    layer.add_arc(a, b)
    layer.add_arc(b, c)
    report = layer.seal()
    assert report.ok
    assert report.wired_to_initial == [a]
    assert report.wired_to_final == [c]
    with pytest.raises(LayerSealed):
        layer.add_white_node(span(0, 1), "Z", 0.1)


def test_seal_parallel_chains_share_endpoints():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    c, _ = layer.add_white_node(span(0, 1), "C", 0.3)
    d, _ = layer.add_white_node(span(1, 2), "D", 0.4)
    layer.add_arc(a, b)
    layer.add_arc(c, d)
    report = layer.seal()
    assert report.ok
    assert report.wired_to_initial == sorted([a, c])
    assert report.wired_to_final == sorted([b, d])


def test_seal_wires_isolated_node_as_parallel_path():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    lone, _ = layer.add_white_node(span(5, 6), "L", 0.9)
    layer.add_arc(a, b)
    report = layer.seal()
    assert report.ok
    # brute-force reachability: every node on some initial->final path
    labels = {lab for p in layer.enumerate_paths() for lab in p.labels}
    assert labels == {"A", "B", "L"}


def test_seal_empty_layer_rejected():
    layer = make_layer()
    with pytest.raises(EmptyLayer):
        layer.seal()


def test_seal_is_idempotent():
    layer = make_layer()
    layer.add_white_node(span(0, 1), "A", 0.1)
    first = layer.seal()
    assert layer.seal() is first


# -- path enumeration ----------------------------------------------------------------

def test_single_chain_single_path():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "it", 1.0)
    b, _ = layer.add_white_node(span(1, 2), "came", 1.0)
    layer.add_arc(a, b)
    layer.seal()
    [path] = layer.enumerate_paths()
    assert path.labels == ("it", "came")
    assert path.score == 2.0


def test_diamond_has_exactly_two_paths():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.0)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.0)
    c, _ = layer.add_white_node(span(1, 2), "C", 0.0)
    d, _ = layer.add_white_node(span(2, 3), "D", 0.0)
    layer.add_arc(a, b)
    layer.add_arc(a, c)
    layer.add_arc(b, d)
    layer.add_arc(c, d)
    layer.seal()
    assert len(layer.enumerate_paths()) == 2


def test_alternate_formulations_match_dfs_oracle():
    # lattice with branching alternates, e.g. "come early" / "be early"
    layer = make_layer()
    it, _ = layer.add_white_node(span(0, 1), "it", 0.5)
    came, _ = layer.add_white_node(span(1, 2), "came", 0.4)
    to, _ = layer.add_white_node(span(2, 3), "to", 0.3)
    come, _ = layer.add_white_node(span(3, 4), "come", 0.6)
    be, _ = layer.add_white_node(span(3, 4), "be", 0.2)
    early, _ = layer.add_white_node(span(4, 5), "early", 0.7)
    for o, e in [(it, came), (came, to), (to, come), (to, be),
                 (come, early), (be, early)]:
        layer.add_arc(o, e, 0.1)
    layer.seal()
    got = sorted((p.labels, round(p.score, 9)) for p in layer.enumerate_paths())
    expected = sorted((labels, round(score, 9))
                      for labels, score in dfs_paths(layer))
    assert got == expected


def test_enumerate_requires_seal():
    layer = make_layer()
    layer.add_white_node(span(0, 1), "A", 0.1)
    with pytest.raises(NotSealed):
        layer.enumerate_paths()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_random_lattices_match_dfs_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    layer = make_layer()
    ids = []
    for k in range(rng.randint(1, 12)):
        b = rng.randint(0, 20)
        node_id, _ = layer.add_white_node(
            span(b, b + rng.randint(0, 4)), f"L{k}", rng.uniform(-1, 1))
        ids.append(node_id)
    for _ in range(rng.randint(0, 3 * len(ids))):
        try:
            layer.add_arc(rng.choice(ids), rng.choice(ids),
                          rng.uniform(-0.5, 0.5))
        except WouldCreateCycle:
            pass
    layer.seal()
    got = sorted((p.labels, round(p.score, 9)) for p in layer.enumerate_paths())
    expected = sorted((labels, round(score, 9))
                      for labels, score in dfs_paths(layer))
    assert got == expected


# -- filtering ------------------------------------------------------------------------

def whole(layer):
    """Every white node and arc of a layer, in id order."""
    return (sorted(layer.white_nodes.values(), key=lambda n: n.id),
            sorted(layer.arcs.values(), key=lambda a: a.id))


def test_filter_view_identity_and_empty():
    layer = make_layer()
    for i, score in enumerate((0.2, 0.6, 0.9)):
        layer.add_white_node(span(i, i + 1), f"L{i}", score)
    assert len(filter_slice(*whole(layer), float("-inf"))[0]) == 3
    assert len(filter_slice(*whole(layer), None)[0]) == 3
    assert filter_slice(*whole(layer), 1.0)[0] == []
    nodes, _ = filter_slice(*whole(layer), 0.5)
    assert sorted(n.score for n in nodes) == [0.6, 0.9]
    # brute-force comparison
    assert {n.id for n in nodes} == {
        n.id for n in layer.white_nodes.values() if n.score >= 0.5}


def test_filter_view_keeps_arcs_between_survivors_only():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.9)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.1)
    c, _ = layer.add_white_node(span(2, 3), "C", 0.8)
    layer.add_arc(a, b)
    layer.add_arc(a, c)
    _, arcs = filter_slice(*whole(layer), 0.5)
    assert [(x.origin, x.extremity) for x in arcs] == [(a, c)]


@given(st.lists(st.floats(-1, 1), min_size=1, max_size=10),
       st.floats(-1, 1), st.floats(-1, 1))
def test_filter_monotonicity(scores, t1, t2):
    t1, t2 = min(t1, t2), max(t1, t2)
    layer = make_layer()
    for i, score in enumerate(scores):
        layer.add_white_node(span(i, i + 1), f"L{i}", score)
    low = {n.id for n in filter_slice(*whole(layer), t1)[0]}
    high = {n.id for n in filter_slice(*whole(layer), t2)[0]}
    assert high <= low


def test_layer_view_does_not_modify_layer():
    layer = make_layer()
    layer.add_white_node(span(0, 1), "A", 0.1)
    before = len(layer.white_nodes)
    filter_slice(*whole(layer), 10.0)
    assert len(layer.white_nodes) == before


# -- export / import -----------------------------------------------------------------

def test_export_empty_board():
    doc = json.loads(to_json(Whiteboard()))
    assert doc == {"layers": []}
    assert to_dot(Whiteboard()).startswith("digraph")


def test_json_schema_field_names():
    board = Whiteboard()
    layer = board.declare_layer("phonemes")
    a, _ = layer.add_white_node(span(0, 3), "h", 0.9, {"why": "test"})
    b, _ = layer.add_white_node(span(3, 6), "a", 0.8)
    layer.add_arc(a, b, 0.25)
    layer.add_grey_node("R1", [a], [b])
    doc = json.loads(to_json(board))
    [layer_doc] = doc["layers"]
    assert set(layer_doc) == {"name", "depends_on", "legal_labels",
                              "packing_tolerance", "sealed", "nodes", "grey",
                              "arcs"}
    assert set(layer_doc["nodes"][0]) == {
        "id", "begin", "end", "label", "score", "readings"}
    assert set(layer_doc["grey"][0]) == {"id", "rule", "inputs", "outputs"}
    assert set(layer_doc["arcs"][0]) == {"id", "origin", "extremity", "weight"}
    assert [n["id"] for n in layer_doc["nodes"]] == sorted(
        n["id"] for n in layer_doc["nodes"])


def test_json_roundtrip_is_identity():
    board = Whiteboard()
    one = board.declare_layer("one", legal_labels={"h", "a"},
                              packing_tolerance=1)
    a, _ = one.add_white_node(span(0, 3), "h", 0.9, {"k": [1, 2]})
    b, _ = one.add_white_node(span(3, 6), "a", 0.8, "payload")
    one.add_arc(a, b, -0.5)
    two = board.declare_layer("two", depends_on={"one"})
    c, _ = two.add_white_node(span(0, 6), "W", 1.7)
    two.add_grey_node("R1", [a, b], [c])
    two.seal()
    text = to_json(board)
    again = from_json(text)
    assert to_json(again) == text
    assert boards_isomorphic(board, again)
    # the layers come back whole: legal labels, tolerance and seal
    with pytest.raises(IllegalLabel):
        again.layers["one"].add_white_node(span(6, 9), "W", 0.5)
    assert again.layers["one"].add_white_node(span(0, 4), "h", 0.1) == (a, True)
    assert not again.layers["one"].sealed
    assert again.layers["two"].sealed
    assert [p.labels for p in again.layers["two"].enumerate_paths()] == [("W",)]
    with pytest.raises(LayerSealed):
        again.layers["two"].add_white_node(span(6, 9), "W", 0.5)


def test_json_export_of_a_demo_board_is_a_fixed_point(fixtures_dir):
    board = workload.build_board(
        (fixtures_dir / "hai.mat").read_text(),
        load_grammar((fixtures_dir / "words.grammar").read_text()),
        load_dictionary((fixtures_dir / "words.dict").read_text()))
    # the translations' grey nodes point across layers into syntax
    greys = board.layers["ww"].grey_nodes.values()
    assert len(greys) == 4
    assert all(board.node_layer(i) == "syntax" for g in greys for i in g.inputs)
    text = to_json(board)
    again = from_json(text)
    assert to_json(again) == text
    assert boards_isomorphic(board, again)
    # the imported arcs are indexed too: the sealed layers read the same
    for name, layer in board.layers.items():
        assert ([p.node_ids for p in again.layers[name].enumerate_paths()]
                == [p.node_ids for p in layer.enumerate_paths()])


def test_dot_has_clusters_in_dependency_order():
    board = Whiteboard()
    for name, deps in [("phonemes", set()), ("syntax", {"phonemes"}),
                       ("ww", {"syntax"})]:
        layer = board.declare_layer(name, depends_on=deps)
        layer.add_white_node(span(0, 1), "x", 0.1)
    dot = to_dot(board)
    assert dot.count("subgraph cluster_") == 3
    assert dot.index('label="phonemes"') < dot.index('label="syntax"')
    assert dot.index('label="syntax"') < dot.index('label="ww"')


def test_dot_styles_white_and_grey_nodes():
    board = Whiteboard()
    layer = board.declare_layer("l")
    a, _ = layer.add_white_node(span(0, 1), "A", 0.5)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.5)
    layer.add_arc(a, b, 0.25)
    layer.add_grey_node("R1", [a], [b])
    dot = to_dot(board)
    assert "shape=box" in dot
    assert "shape=diamond, style=dashed" in dot
    assert 'label="0.25"' in dot
    assert "diamond" not in to_dot(board, hide_grey=True)


def test_dot_of_one_layer_draws_edges_only_to_declared_nodes(fixtures_dir):
    board = workload.build_board(
        (fixtures_dir / "hai.mat").read_text(),
        load_grammar((fixtures_dir / "words.grammar").read_text()),
        load_dictionary((fixtures_dir / "words.dict").read_text()))
    for layer, greys in (("ww", 4), (None, None)):
        dot = to_dot(board, layer=layer)
        declared = set(re.findall(r"^    (n\d+) \[shape=box", dot, re.M))
        edges = re.findall(r"^    ([ng]\d+) -> ([ng]\d+)", dot, re.M)
        assert edges
        ends = {end for edge in edges for end in edge if end.startswith("n")}
        assert ends <= declared
        if greys is not None:
            # the translations stay, without their edges into syntax
            assert dot.count("shape=diamond") == greys
            assert declared == {f"n{i}" for i in board.layers["ww"].white_nodes}
    # the whole board declares the syntax nodes, so their edges stay
    assert (len(re.findall(r"-> g\d+ ", to_dot(board)))
            > len(re.findall(r"-> g\d+ ", to_dot(board, layer="syntax"))))


def test_isomorphism_ignores_id_renaming():
    def build(offset):
        board = Whiteboard()
        if offset:  # burn some identifiers so ids differ between boards
            scratch = board.declare_layer("scratch")
            for i in range(offset):
                scratch.add_white_node(span(i, i + 1), f"s{i}", 0.0)
        layer = board.declare_layer("l")
        a, _ = layer.add_white_node(span(0, 1), "A", 0.5)
        b, _ = layer.add_white_node(span(1, 2), "B", 0.5)
        layer.add_arc(a, b, 0.25)
        return board

    plain = build(0)
    shifted = build(3)
    del shifted.layers["scratch"]
    assert boards_isomorphic(plain, shifted)
    other = build(0)
    other.layers["l"].add_white_node(span(5, 6), "C", 0.5)
    assert not boards_isomorphic(plain, other)
