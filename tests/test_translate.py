import pytest

from whiteboard import TimeSpan, Whiteboard, load_dictionary, translate_layer
from whiteboard.errors import DuplicateSource, EmptyLayer, NotSealed, ParseError
from oracles import dfs_paths, enumerate_paths


def span(b, e):
    return TimeSpan(b, e)


def test_load_entry_with_four_meanings():
    dictionary = load_dictionary("hai : yes, yes-sir, the-lungs, ashes\n")
    entry = dictionary.entries["hai"]
    assert [word for word, _ in entry.targets] == [
        "yes", "yes-sir", "the-lungs", "ashes"]
    assert [tag for _, tag in entry.targets] == ["s1", "s2", "s3", "s4"]
    assert dictionary.meanings("hai") == ("yes", "yes-sir", "the-lungs", "ashes")
    assert dictionary.meanings("mizu") == ("mizu",)  # copied through


def test_load_empty_and_commented_file():
    assert load_dictionary("").entries == {}
    assert load_dictionary("; just a comment\n\n").entries == {}


def test_duplicate_source_rejected():
    with pytest.raises(DuplicateSource):
        load_dictionary("hai : yes\nhai : ashes\n")


def test_malformed_lines_rejected():
    with pytest.raises(ParseError):
        load_dictionary("hai yes\n")
    with pytest.raises(ParseError):
        load_dictionary("hai :\n")
    for line in ("hai : yes, cold(water\n", "h(ai : yes\n"):  # words travel on the wire
        with pytest.raises(ParseError):
            load_dictionary(line)


def build_syn_layer(board, words):
    """words: list of (label, begin, end, score); chained left to right."""
    syn = board.declare_layer("syntax")
    ids = []
    for label, b, e, score in words:
        node_id, _ = syn.add_white_node(span(b, e), label, score)
        ids.append(node_id)
    for left, right in zip(ids, ids[1:]):
        syn.add_arc(left, right, 0.25)
    syn.seal()
    return syn, ids


def test_hai_fans_out_to_four_meanings():
    dictionary = load_dictionary("hai : yes, yes-sir, the-lungs, ashes\n")
    board = Whiteboard()
    syn, _ = build_syn_layer(board, [("hai", 0, 6, 0.9)])
    ww = board.declare_layer("ww", depends_on={"syntax"})
    translate_layer(syn, dictionary, ww, {"hai"})
    nodes = sorted((n.label, n.span.begin, n.span.end, n.score)
                   for n in ww.white_nodes.values())
    assert nodes == [("ashes", 0, 6, 0.9), ("the-lungs", 0, 6, 0.9),
                     ("yes", 0, 6, 0.9), ("yes-sir", 0, 6, 0.9)]
    assert len(ww.grey_nodes) == 4  # one per translation


def test_translation_needs_sealed_source():
    board = Whiteboard()
    syn = board.declare_layer("syntax")
    syn.add_white_node(span(0, 1), "hai", 0.9)
    ww = board.declare_layer("ww", depends_on={"syntax"})
    with pytest.raises(NotSealed):
        translate_layer(syn, load_dictionary(""), ww, {"hai"})


def test_no_lexical_nodes_leaves_ww_empty():
    board = Whiteboard()
    syn, _ = build_syn_layer(board, [("B", 0, 6, 0.9)])
    ww = board.declare_layer("ww", depends_on={"syntax"})
    translate_layer(syn, load_dictionary("hai : yes\n"), ww, {"hai"})
    with pytest.raises(EmptyLayer):
        ww.seal()


def test_two_word_chain_pairs_all_meanings():
    dictionary = load_dictionary("kore : this, it\nmizu : water, cold-water, aqua\n")
    board = Whiteboard()
    syn, _ = build_syn_layer(board, [("kore", 0, 3, 0.5), ("mizu", 3, 6, 0.7)])
    ww = board.declare_layer("ww", depends_on={"syntax"})
    translate_layer(syn, dictionary, ww, {"kore", "mizu"})
    assert len(ww.white_nodes) == 5
    assert len(ww.arcs) == 6  # 2 x 3 pairings
    assert all(a.weight == 0.25 for a in ww.arcs.values())
    ww.seal()
    paths = enumerate_paths(ww)
    assert len(paths) == 6
    assert len(dfs_paths(ww)) == 6


def test_unknown_word_copied_through_untranslated():
    board = Whiteboard()
    syn, _ = build_syn_layer(board, [("naruhodo", 0, 4, 0.3)])
    ww = board.declare_layer("ww", depends_on={"syntax"})
    translate_layer(syn, load_dictionary("hai : yes\n"), ww, {"naruhodo"})
    [node] = ww.white_nodes.values()
    assert node.label == "naruhodo"
    [grey] = ww.grey_nodes.values()
    assert grey.rule == "naruhodo<-naruhodo"
    assert (grey.inputs, grey.outputs, grey.score) == (
        tuple(syn.white_nodes), (node.id,), 0.3)


def test_fan_out_law_and_span_preservation():
    dictionary = load_dictionary("a : x, y\nb : z\nc : p, q, r\n")
    board = Whiteboard()
    syn, ids = build_syn_layer(
        board, [("a", 0, 2, 0.1), ("B", 2, 4, 0.2), ("c", 4, 7, 0.3)])
    ww = board.declare_layer("ww", depends_on={"syntax"})
    mapping = translate_layer(syn, dictionary, ww, {"a", "c"})
    meaning_counts = {"a": 2, "c": 3}
    assert len(ww.white_nodes) == sum(meaning_counts.values())
    for source_id, targets in mapping.items():
        source = syn.white_nodes[source_id]
        assert len(targets) == meaning_counts[source.label]
        for t in targets:
            assert ww.white_nodes[t].span == source.span
            assert ww.white_nodes[t].score == source.score
    # arcs only between translated lexical neighbours: a--B--c has none
    assert len(ww.arcs) == 0


def test_grey_nodes_link_sources_to_translations():
    dictionary = load_dictionary("a : x, y\n")
    board = Whiteboard()
    syn, [source_id] = build_syn_layer(board, [("a", 0, 2, 0.1)])
    ww = board.declare_layer("ww", depends_on={"syntax"})
    mapping = translate_layer(syn, dictionary, ww, {"a"})
    greys = sorted(ww.grey_nodes.values(), key=lambda g: g.id)
    assert [g.rule for g in greys] == ["x<-a", "y<-a"]
    assert all(g.inputs == (source_id,) for g in greys)
    assert [g.outputs for g in greys] == [(t,) for t in mapping[source_id]]
    # each translation's grey node carries the syntax node's score
    assert [g.score for g in greys] == [0.1, 0.1]
