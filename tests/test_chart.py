import random

import pytest

from whiteboard import (
    RankedMatrix,
    Thresholds,
    Whiteboard,
    chart_from_cells,
    chart_to_lattice,
    island_parse,
    load_grammar,
)
from whiteboard.errors import GrammarError
from whiteboard.grid import grid_connected, GridNode
from oracles import closure_oracle, random_grammar


def parse_cells(cells, grammar_text, th=Thresholds(0, 0), beam=None):
    grammar = load_grammar(grammar_text)
    chart = chart_from_cells(cells, th)
    return island_parse(chart, grammar, th, beam)


def items_of(edges):
    return {(e.category, e.span.begin, e.span.end) for e in edges}


# -- grammar loading -----------------------------------------------------------

def test_load_grammar_rules_and_lexical_labels():
    grammar = load_grammar("; comment\nW -> a i\nB -> W\n")
    assert [(r.lhs, r.rhs, r.rule_id) for r in grammar.rules] == [
        ("W", ("a", "i"), "R1"), ("B", ("W",), "R2")]
    assert grammar.terminals == {"a", "i"}
    assert grammar.lexical_labels == {"W"}


def test_load_grammar_rejects_unknown_terminal_by_name():
    with pytest.raises(GrammarError) as err:
        load_grammar("W -> a q\n").check_terminals({"a", "i"})
    assert "q" in str(err.value)


def test_load_grammar_rejects_malformed_lines():
    with pytest.raises(GrammarError):
        load_grammar("W a i\n")
    with pytest.raises(GrammarError):
        load_grammar("W ->\n")
    for line in ("W -> a (i\n", "W) -> a i\n"):  # symbols travel on the wire
        with pytest.raises(GrammarError):
            load_grammar(line)


# -- chart initialization ---------------------------------------------------------

def test_init_chart_single_cell():
    chart = chart_from_cells([(0, 3, "a", 0.9)], Thresholds())
    [edge] = chart.edges
    assert (edge.category, edge.span.begin, edge.span.end) == ("a", 0, 3)
    assert edge.rule is None


def test_init_chart_edge_count_equals_ranked_cells():
    ranked = [
        RankedMatrix(1, {(0, 3): ("a", 0.9), (3, 6): ("i", 0.8)}),
        RankedMatrix(2, {(0, 3): ("m", 0.4), (3, 6): ("e", 0.2)}),
        RankedMatrix(3, {(0, 3): ("z", 0.1)}),
    ]
    cells = [(begin, end, phoneme, score) for rm in ranked
             for (begin, end), (phoneme, score) in rm.cells.items()]
    chart = chart_from_cells(cells, Thresholds())
    assert len(chart.edges) == 5
    # distinct (span, phoneme) per rank by construction: no duplicates
    assert len({e.signature() for e in chart.edges}) == 5


# -- island parsing -------------------------------------------------------------------

def test_single_rule_exact_adjacency():
    derived = parse_cells([(0, 3, "a", 0.9), (3, 6, "i", 0.8)], "W -> a i\n")
    [w] = derived
    assert (w.category, w.span.begin, w.span.end) == ("W", 0, 6)
    assert w.score == pytest.approx(1.7)
    assert [c.category for c in w.children] == ["a", "i"]


def test_junction_window_gates_the_parse():
    cells = [(0, 3, "a", 0.9), (5, 8, "i", 0.8)]
    found = parse_cells(cells, "W -> a i\n", Thresholds(2, 2))
    assert items_of(found) == {("W", 0, 8)}
    missed = parse_cells(cells, "W -> a i\n", Thresholds(1, 1))
    assert missed == []


def test_bidirectional_growth_from_middle_symbol():
    # the rule can instantiate on its middle symbol and grow both ways
    cells = [(0, 3, "x", 0.1), (3, 6, "y", 0.9), (6, 9, "z", 0.1)]
    derived = parse_cells(cells, "W -> x y z\n")
    assert items_of(derived) == {("W", 0, 9)}


def test_overlapping_children_span_is_hull():
    # m.begin = 3 falls one frame inside n.end = 4, inside the window's
    # lower bound n.end - max_gap
    cells = [(0, 4, "a", 0.5), (3, 8, "i", 0.5)]
    derived = parse_cells(cells, "W -> a i\n", Thresholds(1, 0))
    [w] = derived
    assert (w.span.begin, w.span.end) == (0, 8)


def test_two_derivations_of_same_item_are_both_kept():
    grammar = "NP -> a b\nNP -> c\n"
    cells = [(0, 3, "a", 0.4), (3, 6, "b", 0.4), (0, 6, "c", 0.7)]
    derived = parse_cells(cells, grammar)
    assert len(derived) == 2
    assert items_of(derived) == {("NP", 0, 6)}
    rules = sorted(e.rule.rule_id for e in derived)
    assert rules == ["R1", "R2"]


def test_empty_chart_parses_to_nothing():
    grammar = load_grammar("W -> a i\n")
    chart = chart_from_cells([], Thresholds())
    assert island_parse(chart, grammar) == []


def test_beam_yields_subset_of_exact_closure():
    rng = random.Random(17)
    terminals = ["a", "b", "c"]
    for _ in range(20):
        rules = random_grammar(rng, terminals)
        grammar_text = "".join(f"{lhs} -> {' '.join(rhs)}\n"
                               for lhs, rhs in rules)
        cells = [(b, b + rng.randint(1, 3), rng.choice(terminals),
                  round(rng.uniform(0, 1), 3))
                 for b in rng.choices(range(8), k=6)]
        th = Thresholds(rng.randint(0, 2), rng.randint(0, 2))
        exact = items_of(parse_cells(cells, grammar_text, th, beam=None))
        pruned = items_of(parse_cells(cells, grammar_text, th, beam=1))
        assert pruned <= exact


def test_exhaustive_closure_oracle_agreement():
    rng = random.Random(23)
    for _ in range(60):
        terminals = ["a", "b", "c", "d"][:rng.randint(2, 4)]
        rules = random_grammar(rng, terminals)
        grammar_text = "".join(f"{lhs} -> {' '.join(rhs)}\n"
                               for lhs, rhs in rules)
        cells = []
        seen_cell = set()
        for _ in range(rng.randint(1, 8)):
            b = rng.randint(0, 10)
            cell = (b, b + rng.randint(1, 4), rng.choice(terminals))
            if cell in seen_cell:
                continue
            seen_cell.add(cell)
            cells.append((*cell, round(rng.uniform(0, 1), 3)))
        th = Thresholds(rng.randint(0, 2), rng.randint(0, 2))
        got = items_of(parse_cells(cells, grammar_text, th, beam=None))
        expected = closure_oracle({(p, b, e) for b, e, p, _ in cells},
                                  rules, th.max_gap, th.max_overlap)
        assert got == expected


def test_incremental_parse_equals_one_shot_parse():
    rng = random.Random(37)
    for _ in range(60):
        terminals = ["a", "b", "c", "d"][:rng.randint(2, 4)]
        grammar = load_grammar("".join(
            f"{lhs} -> {' '.join(rhs)}\n"
            for lhs, rhs in random_grammar(rng, terminals)))
        cells = [(b, b + rng.randint(1, 4), rng.choice(terminals),
                  round(rng.uniform(0, 1), 3))
                 for b in rng.choices(range(11), k=rng.randint(1, 8))]
        th = Thresholds(rng.randint(0, 2), rng.randint(0, 2))
        one_shot = [e.signature() for e in
                    island_parse(chart_from_cells(cells, th), grammar, th, None)]
        rng.shuffle(cells)
        chart = chart_from_cells([], th)
        incremental = []
        while cells:
            size = rng.randint(1, 3)
            batch, cells = cells[:size], cells[size:]
            for begin, end, label, score in batch:
                chart.add_terminal(begin, end, label, score)
            incremental += [e.signature() for e in
                            island_parse(chart, grammar, th, None)]
        assert len(incremental) == len(set(incremental))
        assert set(incremental) == set(one_shot)


def test_a_parse_fed_in_end_frame_order_pops_what_a_one_shot_parse_pops():
    # the same edges with the same scores in the same order, also where a
    # beam turns derivations away
    rng = random.Random(41)
    for _ in range(80):
        terminals = ["a", "b", "c"]
        grammar = load_grammar("".join(
            f"{lhs} -> {' '.join(rhs)}\n"
            for lhs, rhs in random_grammar(rng, terminals)))
        cells = [(b, b + rng.randint(1, 3), rng.choice(terminals),
                  round(rng.uniform(0, 1), 3))
                 for b in rng.choices(range(8), k=8)]
        th = Thresholds(rng.randint(0, 2), rng.randint(0, 2))
        beam = rng.choice([None, 1, 2])
        one_shot = [(e.signature(), e.score) for e in
                    island_parse(chart_from_cells(cells, th), grammar, th, beam)]
        chart = chart_from_cells([], th)
        incremental = []
        ends = sorted({end for _, end, _, _ in cells})
        while ends:
            size = rng.randint(1, 3)
            batch = sorted(c for c in cells if c[1] in ends[:size])
            ends = ends[size:]
            for begin, end, label, score in batch:
                chart.add_terminal(begin, end, label, score)
            incremental += [(e.signature(), e.score) for e in
                            island_parse(chart, grammar, th, beam)]
        assert incremental == one_shot


def test_a_chart_keeps_the_grammar_it_was_first_parsed_with():
    chart = chart_from_cells([(0, 3, "a", 0.9), (3, 6, "i", 0.8)], Thresholds())
    grammar = load_grammar("W -> a i\n")
    assert island_parse(chart, grammar)
    assert island_parse(chart, grammar) == []  # already at closure
    with pytest.raises(GrammarError):
        island_parse(chart, load_grammar("W -> a i\n"))


def test_anchor_choice_does_not_change_the_closure():
    # same spans, different score assignments -> different best cells, same set
    grammar_text = "W -> a i\nV -> i e\n"
    spans = [(0, 3, "a"), (3, 6, "i"), (6, 9, "e")]
    th = Thresholds(0, 0)
    sets = []
    for scores in [(0.9, 0.5, 0.1), (0.1, 0.5, 0.9), (0.5, 0.9, 0.1)]:
        cells = [(*span, s) for span, s in zip(spans, scores)]
        sets.append(items_of(parse_cells(cells, grammar_text, th)))
    assert sets[0] == sets[1] == sets[2] == {("W", 0, 6), ("V", 3, 9)}


def test_soundness_replay_on_random_instances():
    rng = random.Random(29)
    for _ in range(30):
        terminals = ["a", "b", "c"]
        rules = random_grammar(rng, terminals)
        grammar_text = "".join(f"{lhs} -> {' '.join(rhs)}\n"
                               for lhs, rhs in rules)
        cells = [(b, b + rng.randint(1, 3), rng.choice(terminals),
                  round(rng.uniform(0, 1), 3))
                 for b in rng.choices(range(8), k=6)]
        th = Thresholds(rng.randint(0, 2), rng.randint(0, 2))
        for edge in parse_cells(cells, grammar_text, th, beam=None):
            assert tuple(c.category for c in edge.children) == edge.rule.rhs
            assert edge.span.begin == edge.children[0].span.begin
            assert edge.span.end == edge.children[-1].span.end
            assert edge.score == pytest.approx(sum(c.score for c in edge.children))
            for left, right in zip(edge.children, edge.children[1:]):
                assert grid_connected(
                    GridNode(left.span, left.category, left.score),
                    GridNode(right.span, right.category, right.score), th)


# -- chart to lattice -------------------------------------------------------------------

def test_single_structure_on_lattice():
    derived = parse_cells([(0, 3, "a", 0.9), (3, 6, "i", 0.8)], "W -> a i\n")
    board = Whiteboard()
    syn = board.declare_layer("syntax")
    chart_to_lattice(derived, syn)
    labels = sorted((n.label, n.span.begin, n.span.end)
                    for n in syn.white_nodes.values())
    assert labels == [("W", 0, 6), ("a", 0, 3), ("i", 3, 6)]
    assert len(syn.grey_nodes) == 1
    [arc] = syn.arcs.values()
    assert (syn.white_nodes[arc.origin].label,
            syn.white_nodes[arc.extremity].label) == ("a", "i")


def test_two_derivations_pack_with_two_grey_nodes():
    grammar = "NP -> a b\nNP -> c\n"
    cells = [(0, 3, "a", 0.4), (3, 6, "b", 0.4), (0, 6, "c", 0.7)]
    derived = parse_cells(cells, grammar)
    board = Whiteboard()
    syn = board.declare_layer("syntax")
    chart_to_lattice(derived, syn)
    np_nodes = [n for n in syn.white_nodes.values() if n.label == "NP"]
    [np] = np_nodes
    # one grey node per derivation, each with the score of its edge
    key = {n.id: n.label for n in syn.white_nodes.values()}
    assert sorted((g.rule, tuple(key[i] for i in g.inputs), g.outputs,
                   round(g.score, 9)) for g in syn.grey_nodes.values()) == [
        ("NP<-a.b", ("a", "b"), (np.id,), 0.8), ("NP<-c", ("c",), (np.id,), 0.7)]
    assert np.score == max(g.score for g in syn.grey_nodes.values())


def test_empty_parse_leaves_layer_empty():
    board = Whiteboard()
    syn = board.declare_layer("syntax")
    chart_to_lattice([], syn)
    assert not syn.white_nodes


def test_single_place_property_on_random_outputs():
    rng = random.Random(31)
    for trial in range(20):
        terminals = ["a", "b", "c"]
        rules = random_grammar(rng, terminals)
        grammar_text = "".join(f"{lhs} -> {' '.join(rhs)}\n"
                               for lhs, rhs in rules)
        cells = [(b, b + rng.randint(1, 3), rng.choice(terminals),
                  round(rng.uniform(0, 1), 3))
                 for b in rng.choices(range(8), k=6)]
        derived = parse_cells(cells, grammar_text, Thresholds(1, 1), beam=None)
        board = Whiteboard()
        syn = board.declare_layer(f"s{trial}")
        chart_to_lattice(derived, syn)
        keys = [(n.span.end, n.span.length, n.label)
                for n in syn.white_nodes.values()]
        assert len(keys) == len(set(keys))
