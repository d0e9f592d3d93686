from whiteboard import Thresholds, load_dictionary, load_grammar, wire
from whiteboard.chart import Chart
from whiteboard.components import (
    IslandParser,
    MatrixSource,
    WordForWordTranslator,
)
from utterances import spliced_utterances


def edge(b, e, p, s):
    return wire.EdgeRecord(b, e, p, s)


def test_matrix_source_fires_once(fixtures_dir):
    source = MatrixSource(fixtures_dir / "hai.mat", k=3)
    first = source([])
    assert first, "trigger should produce the ranked cells"
    assert all(isinstance(r, wire.EdgeRecord) for r in first)
    ends = [r.end for r in first]
    assert ends == sorted(ends)  # end-time order for piecewise delivery
    assert source([]) == []


def test_island_parser_emits_deltas_with_stable_ids(fixtures_dir):
    grammar = load_grammar((fixtures_dir / "words.grammar").read_text())
    parser = IslandParser(grammar, Thresholds(2, 2), beam=None)
    # phonemes arrive piecewise: first h+a (no word yet), then i
    first = parser([edge(0, 3, "h", 0.9), edge(3, 6, "a", 0.95)])
    assert first == []
    second = parser([edge(6, 9, "i", 0.85)])
    by_cat = {r.category: r for r in second}
    assert set(by_cat) == {"h", "a", "i", "hai", "B"}
    # children precede parents and reference earlier ids
    positions = {r.edge_id: i for i, r in enumerate(second)}
    for record in second:
        for child in record.children:
            assert positions[child] < positions[record.edge_id]
    assert by_cat["hai"].children == (
        by_cat["h"].edge_id, by_cat["a"].edge_id, by_cat["i"].edge_id)
    # delta semantics: everything already delivered stays delivered
    third = parser([edge(0, 3, "m", 0.4)])
    delivered = {r.edge_id for r in second}
    assert all(r.edge_id not in delivered for r in third)
    assert third == []  # the m cell grows no new structure


def test_island_parser_ignores_constraint_records(fixtures_dir):
    grammar = load_grammar((fixtures_dir / "words.grammar").read_text())
    parser = IslandParser(grammar, Thresholds(2, 2))
    wrapped = wire.ConstraintRecord(edge(0, 3, "h", 0.9))
    assert parser([wrapped]) == []


def phrase_utterance(fixtures_dir, tmp_path):
    """The word grammar plus phrase rules over word pairs, and the source's
    records for a seeded three-word utterance."""
    grammar = load_grammar((fixtures_dir / "words.grammar").read_text()
                           + "P -> B B\n")
    *_, three_words = spliced_utterances(fixtures_dir, tmp_path / "spliced")
    return grammar, MatrixSource(three_words, k=3)([])


def test_island_parser_fed_one_cell_per_batch_emits_each_record_once(
        fixtures_dir, tmp_path):
    grammar, records = phrase_utterance(fixtures_dir, tmp_path)

    def keyed(delivered):
        """(span, category, score, child keys) per record, children first."""
        key_of = {}
        for record in delivered:
            assert record.edge_id not in key_of
            key_of[record.edge_id] = (record.begin, record.end, record.category,
                                      record.score,
                                      tuple(key_of[c] for c in record.children))
        return list(key_of.values())

    # the source emits cells in end-frame order, so scores agree as well
    parser = IslandParser(grammar, Thresholds(2, 2))
    piecewise = keyed([out for record in records for out in parser([record])])
    whole = keyed(IslandParser(grammar, Thresholds(2, 2))(records))
    assert len(set(piecewise)) == len(piecewise)
    assert sorted(piecewise) == sorted(whole)
    assert any(key[2] == "P" for key in whole)


def test_island_parser_makes_the_same_admissions_piecewise_as_at_once(
        fixtures_dir, tmp_path, monkeypatch):
    grammar, records = phrase_utterance(fixtures_dir, tmp_path)
    admitted = []
    admit = Chart._admit

    def counting_admit(chart, *args, **kwargs):
        admitted.append(chart)
        return admit(chart, *args, **kwargs)

    monkeypatch.setattr(Chart, "_admit", counting_admit)
    IslandParser(grammar, Thresholds(2, 2))(records)
    at_once = len(admitted)
    admitted.clear()
    parser = IslandParser(grammar, Thresholds(2, 2))
    for record in records:
        parser([record])
    assert len(admitted) == at_once


def make_translator():
    dictionary = load_dictionary("hai : yes, yes-sir, the-lungs, ashes\n")
    return WordForWordTranslator(dictionary, {"hai", "iie", "mizu"})


def node(node_id, b, e, label, score):
    return wire.NodeRecord(node_id, b, e, label, score)


def test_translator_fans_out_lexical_nodes_only():
    translator = make_translator()
    out = translator([node(1, 0, 9, "hai", 2.7), node(2, 0, 9, "B", 2.7),
                      node(3, 0, 3, "h", 0.9)])
    labels = sorted(r.label for r in out)
    assert labels == ["ashes", "the-lungs", "yes", "yes-sir"]
    assert all((r.begin, r.end) == (0, 9) for r in out)


def test_translator_copies_unknown_words_untranslated():
    translator = make_translator()
    [out] = translator([node(1, 0, 4, "mizu", 1.0)])
    assert out.label == "mizu"  # no entry: copied through


def test_translator_mirrors_arcs_across_batches():
    translator = make_translator()
    dictionary = load_dictionary("a : x, y\nb : z, w, v\n")
    translator = WordForWordTranslator(dictionary, {"a", "b"})
    first = translator([node(1, 0, 3, "a", 0.5)])
    second = translator([node(2, 3, 6, "b", 0.5),
                         wire.ArcRecord(7, 1, 2, 0.25)])
    arcs = [r for r in second if isinstance(r, wire.ArcRecord)]
    assert len(first) == 2 and len(arcs) == 6  # 2 x 3 pairings
    assert all(a.weight == 0.25 for a in arcs)
    # duplicate arc delivery is ignored
    assert translator([wire.ArcRecord(7, 1, 2, 0.25)]) == []
