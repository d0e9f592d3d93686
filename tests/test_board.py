import json
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiteboard import (
    TimeSpan,
    Whiteboard,
    add_derivation,
    canonical_form,
    filter_slice,
    from_json,
    load_dictionary,
    load_grammar,
    to_dot,
    to_json,
)
from whiteboard.errors import (
    BackwardArc,
    CrossLayerArc,
    DependencyCycle,
    DuplicateLayer,
    EmptyEndpointList,
    EmptyLayer,
    IllegalLabel,
    InvalidExport,
    LayerSealed,
    NotSealed,
    UnknownDependency,
    UnknownNode,
)
from oracles import (dfs_paths, enumerate_paths, forward_pair, valid_lattice,
                     whole_document_json)

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

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
    id1, packed1 = layer.add_white_node(span(0, 3), "NP", 0.5)
    id2, packed2 = layer.add_white_node(span(0, 3), "NP", 0.4)
    assert id1 == id2
    assert (packed1, packed2) == (False, True)
    a, _ = layer.add_white_node(span(0, 1), "a", 0.1)
    b, _ = layer.add_white_node(span(1, 3), "b", 0.1)
    assert add_derivation(layer, span(0, 3), "NP", 0.3, [a, b]) == id1
    assert add_derivation(layer, span(0, 3), "NP", 0.7, [b]) == id1
    # one grey node per derivation, each with its own score
    assert [(g.rule, g.inputs, g.outputs, g.score)
            for g in layer.grey_nodes.values()] == [
        ("NP<-a.b", (a, b), (id1,), 0.3), ("NP<-b", (b,), (id1,), 0.7)]
    assert layer.white_nodes[id1].score == 0.7


def test_packed_score_is_max():
    layer = make_layer()
    node_id, _ = layer.add_white_node(span(0, 3), "NP", 0.4)
    layer.add_white_node(span(0, 3), "NP", 0.9)
    layer.add_white_node(span(0, 3), "NP", 0.2)
    assert layer.white_nodes[node_id].score == 0.9


def test_distinct_keys_make_distinct_nodes():
    layer = make_layer()
    id1, _ = layer.add_white_node(span(0, 3), "NP", 0.4)
    id2, _ = layer.add_white_node(span(0, 4), "NP", 0.4)
    assert id1 != id2


def test_a_grey_node_raises_its_outputs_to_its_score():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "a", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "b", 0.2)
    c, _ = layer.add_white_node(span(0, 2), "C", 0.5)
    d, _ = layer.add_white_node(span(0, 2), "D", 0.9)
    grey = layer.add_grey_node("R1", [a, b], [c, d], 0.7)
    assert layer.grey_nodes[grey].score == 0.7
    assert [layer.white_nodes[i].score for i in (a, b, c, d)] == [
        0.1, 0.2, 0.7, 0.9]


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
    # an arc must run forward in time, so no arc can close a cycle: a
    # backward, same-span or self-loop arc is refused
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    twin, _ = layer.add_white_node(span(1, 2), "C", 0.3)
    outer, _ = layer.add_white_node(span(0, 3), "D", 0.4)
    layer.add_arc(a, b)
    layer.add_arc(a, outer)  # the same begin and a later end: forward
    # (b, outer) ends later but begins earlier, so it runs backward too
    for origin, extremity in [(b, a), (b, twin), (twin, b), (a, a),
                              (b, outer)]:
        with pytest.raises(BackwardArc,
                           match=f"arc {origin}->{extremity} does not run"):
            layer.add_arc(origin, extremity)
    assert [(x.origin, x.extremity) for x in layer.arcs.values()] == [
        (a, b), (a, outer)]


def test_a_time_monotone_arc_can_still_close_a_cycle():
    # the cycle late->early->late cannot be built: its backward half is
    # refused whichever half comes first, and the forward half alone stays
    layer = make_layer()
    early, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    late, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    with pytest.raises(BackwardArc):
        layer.add_arc(late, early)
    layer.add_arc_once(early, late)
    with pytest.raises(BackwardArc):
        layer.add_arc_once(late, early)
    assert [(x.origin, x.extremity) for x in layer.arcs.values()] == [
        (early, late)]
    layer.seal()
    assert valid_lattice(layer)


def test_add_arc_once_skips_a_linked_pair_and_refuses_a_backward_arc():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    layer.add_arc_once(a, b, 0.5)
    layer.add_arc_once(a, b, 0.7)
    assert [(x.origin, x.extremity, x.weight) for x in layer.arcs.values()] == [
        (a, b, 0.5)]
    for origin, extremity in [(a, a), (b, a)]:
        with pytest.raises(BackwardArc):
            layer.add_arc_once(origin, extremity)
    assert len(layer.arcs) == 1
    layer.seal()
    assert valid_lattice(layer)
    with pytest.raises(LayerSealed):
        layer.add_arc_once(a, b)


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
    layer.add_grey_node("R1", [a, b], [c], 0.3)
    layer.seal()
    with_grey = [(p.labels, p.score) for p in enumerate_paths(layer)]
    assert sorted(p[0] for p in with_grey) == [("X1", "X2"), ("Y1",)]


def test_grey_node_m_to_n_and_empty_endpoints():
    layer = make_layer()
    ids = [layer.add_white_node(span(i, i + 1), f"X{i}", 0.1)[0]
           for i in range(5)]
    grey = layer.add_grey_node("R9", ids[:3], ids[3:], 0.1)
    assert layer.grey_nodes[grey].inputs == tuple(ids[:3])
    with pytest.raises(EmptyEndpointList):
        layer.add_grey_node("R1", [], ids[:1], 0.1)
    with pytest.raises(UnknownNode):
        layer.add_grey_node("R1", [999], ids[:1], 0.1)
    with pytest.raises(UnknownNode):
        layer.add_grey_node("R1", ids[:1], [999], 0.1)


def test_grey_node_names_its_layer_and_its_dependencies_only():
    board = Whiteboard()
    one = board.declare_layer("one")
    two = board.declare_layer("two")
    three = board.declare_layer("three", depends_on={"one"})
    a, _ = one.add_white_node(span(0, 1), "A", 0.1)
    b, _ = two.add_white_node(span(0, 1), "B", 0.2)
    c, _ = three.add_white_node(span(0, 1), "C", 0.3)
    with pytest.raises(CrossLayerArc, match="'one' does not depend on"):
        one.add_grey_node("R1", [b], [b], 0.2)
    with pytest.raises(CrossLayerArc):
        three.add_grey_node("R1", [a, b], [c], 0.3)
    # a grey node raises the score of what it outputs to, so it outputs
    # to its own layer only
    with pytest.raises(CrossLayerArc, match="outputs to node"):
        three.add_grey_node("R1", [c], [a], 0.3)
    assert one.white_nodes[a].score == 0.1 and not three.grey_nodes
    three.add_grey_node("R1", [a], [c], 0.3)
    doc = json.loads(to_json(board))
    [grey_doc] = doc["layers"][2]["grey"]
    grey_doc["inputs"] = [b]  # an import replays through the same check
    with pytest.raises(CrossLayerArc):
        from_json(json.dumps(doc))


# -- sealing -----------------------------------------------------------------------

def test_seal_chain():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    c, _ = layer.add_white_node(span(2, 3), "C", 0.3)
    layer.add_arc(a, b)
    layer.add_arc(b, c)
    layer.seal()
    assert valid_lattice(layer)
    assert [p.node_ids for p in enumerate_paths(layer)] == [(a, b, c)]
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
    layer.seal()
    assert valid_lattice(layer)
    assert sorted(p.node_ids for p in enumerate_paths(layer)) == [(a, b), (c, d)]


def test_seal_wires_isolated_node_as_parallel_path():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "A", 0.1)
    b, _ = layer.add_white_node(span(1, 2), "B", 0.2)
    lone, _ = layer.add_white_node(span(5, 6), "L", 0.9)
    layer.add_arc(a, b)
    layer.seal()
    assert valid_lattice(layer)
    # brute-force reachability: every node on some initial->final path
    labels = {lab for p in enumerate_paths(layer) for lab in p.labels}
    assert labels == {"A", "B", "L"}


def test_seal_empty_layer_rejected():
    layer = make_layer()
    with pytest.raises(EmptyLayer):
        layer.seal()


def test_seal_is_idempotent():
    layer = make_layer()
    layer.add_white_node(span(0, 1), "A", 0.1)
    layer.seal()
    layer.seal()
    assert layer.sealed
    with pytest.raises(LayerSealed):
        layer.add_white_node(span(1, 2), "B", 0.1)


# -- path enumeration ----------------------------------------------------------------

def test_single_chain_single_path():
    layer = make_layer()
    a, _ = layer.add_white_node(span(0, 1), "it", 1.0)
    b, _ = layer.add_white_node(span(1, 2), "came", 1.0)
    layer.add_arc(a, b)
    layer.seal()
    [path] = enumerate_paths(layer)
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
    assert len(enumerate_paths(layer)) == 2


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
    got = sorted((p.labels, round(p.score, 9)) for p in enumerate_paths(layer))
    expected = sorted((labels, round(score, 9))
                      for labels, score in dfs_paths(layer))
    assert got == expected


def test_enumerate_requires_seal():
    layer = make_layer()
    layer.add_white_node(span(0, 1), "A", 0.1)
    with pytest.raises(NotSealed):
        enumerate_paths(layer)


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
        pair = forward_pair(rng, layer, ids)
        if pair is not None:
            layer.add_arc(*pair, rng.uniform(-0.5, 0.5))
    layer.seal()
    got = sorted((p.labels, round(p.score, 9)) for p in enumerate_paths(layer))
    expected = sorted((labels, round(score, 9))
                      for labels, score in dfs_paths(layer))
    assert got == expected


# -- filtering ------------------------------------------------------------------------

def whole(layer):
    """Every white node and arc of a layer, in id order."""
    return (sorted(layer.white_nodes.values(), key=lambda n: n.id),
            sorted(layer.arcs.values(), key=lambda a: a.id))


def test_filter_slice_identity_and_empty():
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


def test_filter_slice_keeps_arcs_between_survivors_only():
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


def test_filter_slice_does_not_modify_layer():
    layer = make_layer()
    layer.add_white_node(span(0, 1), "A", 0.1)
    before = len(layer.white_nodes)
    filter_slice(*whole(layer), 10.0)
    assert len(layer.white_nodes) == before


# -- export / import -----------------------------------------------------------------

def assert_exports_as_one_document(board):
    """`to_json` writes, byte for byte, what one `json.dumps` of the whole
    document writes, and so does its import's export."""
    text = to_json(board)
    assert text == whole_document_json(board)
    again = from_json(text)
    assert to_json(again) == whole_document_json(again)


def test_export_empty_board():
    assert to_json(Whiteboard()) == '{"layers":[]}'  # compact
    assert to_dot(Whiteboard()).startswith("digraph")


def test_json_schema_field_names():
    board = Whiteboard()
    layer = board.declare_layer("phonemes")
    a, _ = layer.add_white_node(span(0, 3), "h", 0.9)
    b, _ = layer.add_white_node(span(3, 6), "a", 0.8)
    layer.add_arc(a, b, 0.25)
    layer.add_grey_node("R1", [a], [b], 0.5)
    doc = json.loads(to_json(board))
    [layer_doc] = doc["layers"]
    assert set(layer_doc) == {"name", "depends_on", "legal_labels",
                              "sealed", "nodes", "grey", "arcs"}
    assert set(layer_doc["nodes"][0]) == {"id", "begin", "end", "label", "score"}
    assert set(layer_doc["grey"][0]) == {"id", "rule", "inputs", "outputs",
                                         "score"}
    assert set(layer_doc["arcs"][0]) == {"id", "origin", "extremity", "weight"}
    assert [n["id"] for n in layer_doc["nodes"]] == sorted(
        n["id"] for n in layer_doc["nodes"])


def test_json_roundtrip_is_identity():
    board = Whiteboard()
    one = board.declare_layer("one", legal_labels={"h", "a"})
    a, _ = one.add_white_node(span(0, 3), "h", 0.9)
    b, _ = one.add_white_node(span(3, 6), "a", 0.8)
    one.add_arc(a, b, -0.5)
    two = board.declare_layer("two", depends_on={"one"})
    c, _ = two.add_white_node(span(0, 6), "W", 1.7)
    two.add_grey_node("R1", [a, b], [c], 1.7)
    two.add_grey_node("R2", [a], [c], 0.4)
    two.seal()
    assert_exports_as_one_document(board)
    text = to_json(board)
    again = from_json(text)
    assert to_json(again) == text
    assert canonical_form(again) == canonical_form(board)
    # the layers come back whole: legal labels, packing keys and seal
    with pytest.raises(IllegalLabel):
        again.layers["one"].add_white_node(span(6, 9), "W", 0.5)
    assert again.layers["one"].add_white_node(span(0, 3), "h", 0.1) == (a, True)
    assert not again.layers["one"].sealed
    assert again.layers["two"].sealed
    assert [p.labels for p in enumerate_paths(again.layers["two"])] == [("W",)]
    with pytest.raises(LayerSealed):
        again.layers["two"].add_white_node(span(6, 9), "W", 0.5)


def demo_board(fixtures_dir, stem):
    return workload.build_board(
        (fixtures_dir / f"{stem}.mat").read_text(),
        load_grammar((fixtures_dir / "words.grammar").read_text()),
        load_dictionary((fixtures_dir / "words.dict").read_text()))


def test_json_export_of_a_demo_board_is_a_fixed_point(fixtures_dir):
    board = demo_board(fixtures_dir, "hai")
    # the translations' grey nodes point across layers into syntax
    greys = board.layers["ww"].grey_nodes.values()
    assert len(greys) == 4
    assert all(board.node_layer(i) == "syntax" for g in greys for i in g.inputs)
    text = to_json(board)
    again = from_json(text)
    assert to_json(again) == text
    assert canonical_form(again) == canonical_form(board)
    # the imported arcs are indexed too: the sealed layers read the same
    for name, layer in board.layers.items():
        assert ([p.node_ids for p in enumerate_paths(again.layers[name])]
                == [p.node_ids for p in enumerate_paths(layer)])


def test_an_export_whose_ids_start_at_7_loads_with_its_ids_kept(fixtures_dir):
    """The demo's `hai` export as written while sealing gave each layer two
    endpoint ids, taken when it was declared, so its three layers' nodes
    start at 7. It loads, and exports again byte for byte with its ids
    kept. A new build's ids start at 1, and its export round-trips too;
    both are the same board."""
    text = (Path(__file__).parent / "exports" / "hai-ids-from-7.json").read_text(
        encoding="utf-8")
    old = from_json(text)
    assert min(all_ids(old)) == 7
    assert to_json(old) == text
    new = demo_board(fixtures_dir, "hai")
    assert min(all_ids(new)) == 1
    assert to_json(from_json(to_json(new))) == to_json(new)
    assert canonical_form(old) == canonical_form(new)


@pytest.mark.parametrize("stem", ["hai", "iie", "mizu"])
def test_a_demo_board_exports_as_one_document(fixtures_dir, stem):
    assert_exports_as_one_document(demo_board(fixtures_dir, stem))


def test_the_export_of_a_long_board_needs_little_scratch_memory(tmp_path):
    """Encoding section by section holds one section's objects at a time:
    one `json.dumps` of the whole document peaks at about 16 times its
    output on a 30-word board."""
    utterances, grammar, dictionary = workload.write_inputs(
        ROOT, tmp_path, "long", 1, 1)
    board = workload.build_board(
        utterances[0].path.read_text(), load_grammar(grammar.read_text()),
        load_dictionary(dictionary.read_text()))
    tracemalloc.start()
    try:
        text = to_json(board)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 100_000  # a long board, not a demo one
    assert peak <= 8 * len(text), f"peak {peak} B for {len(text)} B of JSON"


def all_ids(board):
    """Every id the board has handed out: its nodes, grey nodes and arcs."""
    return [i for layer in board.layers.values()
            for i in (*layer.white_nodes, *layer.grey_nodes, *layer.arcs)]


def random_board(rng):
    """Dependent layers written in interleaved order: legal labels, packed
    leaf nodes, derivations whose grey nodes name nodes across layers and
    output to a new node or to one already derived (two derivations
    then pack into it), forward arcs (a linked pair skipped by
    add_arc_once), and some layers sealed."""
    board = Whiteboard()
    for k in range(rng.randint(1, 4)):
        deps = {f"l{d}" for d in range(k) if rng.random() < 0.5}
        labels = rng.choice([None, {"a", "b", "c"}])
        board.declare_layer(f"l{k}", legal_labels=labels, depends_on=deps)
    names = list(board.layers)
    for _ in range(rng.randint(1, 40)):
        layer = board.layers[rng.choice(names)]
        ids = list(layer.white_nodes)
        roll = rng.random()
        b = rng.randint(0, 6)
        if roll < 0.4 or not ids:
            layer.add_white_node(span(b, b + rng.randint(0, 3)),
                                 rng.choice("abc"), rng.uniform(-1, 1))
        elif roll < 0.7:
            pair = forward_pair(rng, layer, ids)
            if pair is not None:
                layer.add_arc_once(*pair, rng.uniform(-0.5, 0.5))
        else:
            inputs = [i for name in (layer.name, *sorted(layer.depends_on))
                      for i in board.layers[name].white_nodes]
            derived = [g.outputs[0] for g in layer.grey_nodes.values()]
            if derived and rng.random() < 0.5:
                output = rng.choice(derived)
            else:
                output, _ = layer.add_white_node(
                    span(b, b + rng.randint(0, 3)), rng.choice("abc"),
                    rng.uniform(-1, 1))
            layer.add_grey_node(f"R{rng.randint(1, 3)}",
                                rng.sample(inputs, min(2, len(inputs))),
                                [output], rng.uniform(-1, 1))
    for layer in board.layers.values():
        if layer.white_nodes and rng.random() < 0.5:
            layer.seal()
    return board


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1))
def test_random_boards_are_json_fixed_points(seed):
    board = random_board(random.Random(seed))
    for layer in board.layers.values():
        for g in layer.grey_nodes.values():
            assert all(layer.white_nodes[o].score >= g.score for o in g.outputs)
    assert_exports_as_one_document(board)
    text = to_json(board)
    again = from_json(text)
    assert to_json(again) == text
    assert canonical_form(again) == canonical_form(board)
    ids = all_ids(again)
    assert len(ids) == len(set(ids))


def test_imported_ids_are_unique_across_every_kind():
    board = Whiteboard()
    one = board.declare_layer("one")
    a, _ = one.add_white_node(span(0, 1), "A", 0.1)
    b, _ = one.add_white_node(span(1, 2), "B", 0.2)
    one.add_arc(a, b)
    # declared after nodes were written
    two = board.declare_layer("two", depends_on={"one"})
    c, _ = two.add_white_node(span(0, 2), "C", 0.3)
    two.add_grey_node("R1", [a, b], [c], 0.3)
    two.seal()
    again = from_json(to_json(board))
    ids = all_ids(again)
    assert len(ids) == len(set(ids))
    # writing to the imported board keeps handing out fresh ids
    d, _ = again.layers["one"].add_white_node(span(2, 3), "D", 0.4)
    assert d not in ids


def small_export():
    """One layer: nodes 1 and 2, arc 3, and grey node 4, which derives
    node 2 from node 1 with node 2's score."""
    board = Whiteboard()
    layer = board.declare_layer("l", legal_labels={"h", "a"})
    h, _ = layer.add_white_node(span(0, 3), "h", 0.9)
    a, _ = layer.add_white_node(span(3, 6), "a", 0.8)
    layer.add_arc(h, a)
    layer.add_grey_node("a<-h", [h], [a], 0.8)
    return json.loads(to_json(board))


def run_backward(layer_doc):
    layer_doc["arcs"].append(
        {"id": 99, "origin": 2, "extremity": 1, "weight": 0.0})


def repeat_packing_key(layer_doc):
    layer_doc["nodes"].append(dict(layer_doc["nodes"][0], id=99))


def parent_format(layer_doc):
    """The export format that gave each node its readings, and grey nodes
    no score."""
    for node in layer_doc["nodes"]:
        node["readings"] = [{"payload": None, "score": node["score"]}]
    for grey in layer_doc["grey"]:
        del grey["score"]


BAD_EXPORTS = [
    (run_backward, BackwardArc, "arc 2->1 does not run forward in time"),
    (lambda d: d["nodes"][1].update(label="x"), IllegalLabel, "'x' not legal"),
    (repeat_packing_key, InvalidExport,
     "node 99 repeats the packing key of node 1"),
    (lambda d: d["arcs"][0].update(id=1), InvalidExport,
     "id 1 is used more than once"),
    (parent_format, InvalidExport,
     "a nodes object has the unknown field 'readings'"),
    (lambda d: d["grey"][0].update(score=0.95), InvalidExport,
     "grey node 4 scores 0.95, above the 0.8 of node 2 it outputs to"),
    (lambda d: d["nodes"][1].update(score=0.5), InvalidExport,
     "grey node 4 scores 0.8, above the 0.5 of node 2 it outputs to"),
    (lambda d: d["nodes"][0].update(begin="0"), InvalidExport,
     "field 'begin' has the wrong type: '0'"),
    (lambda d: d["grey"][0].update(score="0.8"), InvalidExport,
     "field 'score' has the wrong type: '0.8'"),
    (lambda d: d.update(arcs={}), InvalidExport,
     "field 'arcs' has the wrong type: {}"),
]


@pytest.mark.parametrize(
    "spoil, error, reason", BAD_EXPORTS,
    ids=["backward-arc", "illegal-label", "packing-key", "repeated-id",
         "readings", "grey-score", "score", "string-begin",
         "string-score", "arcs-not-a-list"])
def test_from_json_rejects_what_no_build_makes(spoil, error, reason):
    doc = small_export()
    spoil(doc["layers"][0])
    with pytest.raises(error, match=re.escape(reason)):
        from_json(json.dumps(doc))


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
    layer.add_grey_node("R1", [a], [b], 0.5)
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
    assert canonical_form(plain) == canonical_form(shifted)
    other = build(0)
    other.layers["l"].add_white_node(span(5, 6), "C", 0.5)
    assert canonical_form(plain) != canonical_form(other)
