"""Bidirectional island chart parsing over phoneme cells.

Every phoneme cell is an inactive terminal edge, and every cell seeds an
island: no anchor cell is selected. Rules may be instantiated on *any*
right-hand-side symbol, so an island grows both leftward and rightward
from whichever of its symbols completed first. The agenda is
frame-synchronous: it pops the item that ends earliest, and the best
scoring among those, so the islands grow frame by frame. With an
unbounded beam the search order never changes the result set. Adjacent
children must satisfy the grid gap/overlap predicate at every junction;
a parent's span is the hull of its children.

Phoneme cells arrive in end-frame order, and the parse resumes as they
arrive. Ordering the agenda by end frame first makes the resumed parse
pop exactly the items, in exactly the order, of one parse over all the
cells, so derivation scores and the beam's choices agree as well as the
result set. A purely best-first agenda would let a later cell overtake
earlier ones, and a derivation's score depends on which of its
equivalent children completed first.

Only complete (inactive) edges leave the parser; partially matched items
stay internal. :func:`add_derivation` is the one writer of a complete
edge onto the syntactic layer, for the coordinator and for
:func:`chart_to_lattice` alike, and of a translation onto the target-word
layer.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property

from .board import Layer, TimeSpan
from .errors import GrammarError
from .grid import Thresholds, grid_connected
from .wire import token_ok


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: tuple[str, ...]
    rule_id: str

    def __post_init__(self):
        if not self.rhs:
            raise GrammarError(f"rule {self.rule_id} has an empty right-hand side")


@dataclass
class Grammar:
    rules: list[Rule]

    @property
    def nonterminals(self) -> set[str]:
        return {r.lhs for r in self.rules}

    @property
    def terminals(self) -> set[str]:
        lhs = self.nonterminals
        return {s for r in self.rules for s in r.rhs if s not in lhs}

    @property
    def lexical_labels(self) -> set[str]:
        """Left-hand sides of rules whose right-hand side is all terminals:
        the word-level categories eligible for dictionary lookup."""
        lhs = self.nonterminals
        return {r.lhs for r in self.rules
                if all(s not in lhs for s in r.rhs)}

    def check_terminals(self, known_terminals: set[str]) -> None:
        """Reject, by name, the first right-hand-side symbol that is
        neither a rule head nor a known terminal."""
        heads = self.nonterminals
        for rule in self.rules:
            for symbol in rule.rhs:
                if symbol not in heads and symbol not in known_terminals:
                    raise GrammarError(
                        f"rule {rule.rule_id}: unknown terminal {symbol!r}")

    @cached_property
    def instantiation(self) -> dict[str, list[tuple[Rule, int]]]:
        """Every (rule, position) where a given symbol may instantiate a
        rule. Built on first use; the rule list is not edited afterwards."""
        index: dict[str, list[tuple[Rule, int]]] = {}
        for rule in self.rules:
            for pos, symbol in enumerate(rule.rhs):
                index.setdefault(symbol, []).append((rule, pos))
        return index


def load_grammar(text: str) -> Grammar:
    """Parse `LHS -> s1 s2 ...` lines; `;` comments and blanks ignored.

    Every symbol is a label that travels on the wire, so it must be a
    legal wire token. `Grammar.check_terminals` checks the right-hand
    sides against a terminal alphabet.
    """
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise GrammarError(f"line {lineno}: expected 'LHS -> symbols'")
        lhs, _, rhs_text = line.partition("->")
        lhs = lhs.strip()
        rhs = tuple(rhs_text.split())
        if not token_ok(lhs):
            raise GrammarError(f"line {lineno}: bad left-hand side {lhs!r}")
        if not rhs:
            raise GrammarError(f"line {lineno}: empty right-hand side")
        for symbol in rhs:
            if not token_ok(symbol):
                raise GrammarError(
                    f"line {lineno}: symbol {symbol!r} is not a legal wire token")
        rules.append(Rule(lhs, rhs, f"R{len(rules) + 1}"))
    return Grammar(rules)


@dataclass
class Edge:
    """An inactive (complete) edge. Terminal edges have no rule."""

    id: int
    span: TimeSpan
    category: str
    score: float
    children: tuple["Edge", ...] = ()
    rule: Rule | None = None
    popped: bool = False  # agenda bookkeeping: indexed for combination

    def signature(self):
        """Derivation identity at packed-node granularity: the rule applied
        to child (span, category) keys."""
        return (self.category, self.span.begin, self.span.end,
                self.rule.rule_id if self.rule else None,
                tuple((c.span.begin, c.span.end, c.category)
                      for c in self.children))


@dataclass(frozen=True)
class _Active:
    """Partially matched rule: rhs[lo:hi] covered by `children`."""

    rule: Rule
    lo: int
    hi: int
    children: tuple[Edge, ...]

    @property
    def span(self) -> TimeSpan:
        return TimeSpan(self.children[0].span.begin, self.children[-1].span.end)

    @property
    def score(self) -> float:
        return sum(c.score for c in self.children)

    def key(self):
        return (self.rule.rule_id, self.lo, self.hi,
                tuple((c.span.begin, c.span.end, c.category)
                      for c in self.children))


class Chart:
    """Edge store, agenda and active-item indexes.

    Everything :func:`island_parse` needs to resume lives here, so
    terminals added after a closure are combined with the whole chart by
    the next call. The active items belong to `grammar`, set by the first
    parse.
    """

    def __init__(self, thresholds: Thresholds | None = None):
        self.thresholds = thresholds or Thresholds()
        self.grammar: Grammar | None = None
        self.edges: list[Edge] = []
        self._next_id = 1
        self._seen_inactive: set = set()
        self._by_category: dict[str, list[Edge]] = {}
        self._per_cell: dict[tuple[int, int, str], int] = {}
        self._agenda: list = []
        self._push_seq = itertools.count()
        # indexed active items, by the category they wait for on each side
        self._needs_left: dict[str, list[_Active]] = {}
        self._needs_right: dict[str, list[_Active]] = {}
        self._seen_active: set = set()

    def add_terminal(self, begin: int, end: int, phoneme: str,
                     score: float) -> Edge | None:
        return self._admit(Edge(self._next_id, TimeSpan(begin, end), phoneme,
                                float(score)))

    def _admit(self, edge: Edge, beam: int | None = None) -> Edge | None:
        sig = edge.signature()
        if sig in self._seen_inactive:
            return None
        cell = (edge.span.begin, edge.span.end, edge.category)
        if beam is not None and self._per_cell.get(cell, 0) >= beam:
            return None
        self._seen_inactive.add(sig)
        self._per_cell[cell] = self._per_cell.get(cell, 0) + 1
        edge.id = self._next_id
        self._next_id += 1
        self.edges.append(edge)
        self._by_category.setdefault(edge.category, []).append(edge)
        self._push(edge)
        return edge

    def _push(self, item):
        heapq.heappush(self._agenda, (item.span.end, -item.score,
                                      next(self._push_seq), item))

    def _pop(self):
        return heapq.heappop(self._agenda)[-1] if self._agenda else None


def chart_from_cells(cells, th: Thresholds) -> Chart:
    """Seed a chart from flat (begin, end, label, score) tuples: one
    terminal edge per cell, each of which seeds an island."""
    chart = Chart(th)
    for begin, end, label, score in sorted(cells):
        chart.add_terminal(begin, end, label, score)
    return chart


def island_parse(chart: Chart, grammar: Grammar,
                 th: Thresholds | None = None,
                 beam: int | None = 16) -> list[Edge]:
    """Run the agenda to closure from wherever the chart stands; returns
    the rule-built inactive edges completed by this call.

    The agenda pops the earliest-ending item first, best score first
    among those. Each (active, inactive) pair is combined when the later
    of the two is popped, so the closure is resumable: terminals added
    after one call are paired with everything already in the chart by the
    next, and the calls together return the derivations of one call over
    all the terminals, each once. When terminals are added in end-frame
    order, the calls also pop what one call would in the same order, so
    scores and the beam's choices agree too. `beam` bounds inactive edges
    retained per (span, category) cell over the chart's lifetime, not per
    call; pass None for the exact, unbounded closure.
    Derivations are deduplicated at packed-node granularity: one edge per
    (category, span, rule, child keys), which is exactly one grey node
    downstream. A chart is parsed with one grammar only; passing another
    raises :class:`GrammarError`.
    """
    if chart.grammar is None:
        chart.grammar = grammar
    elif chart.grammar is not grammar:
        raise GrammarError("chart was parsed with another grammar")
    th = th or chart.thresholds
    instantiation = grammar.instantiation
    needs_left, needs_right = chart._needs_left, chart._needs_right
    seen_active = chart._seen_active
    done_inactive: list[Edge] = []

    def admit_active(item: _Active):
        if item.lo == 0 and item.hi == len(item.rule.rhs):
            edge = Edge(0, item.span, item.rule.lhs, item.score,
                        children=item.children, rule=item.rule)
            chart._admit(edge, beam=beam)
            return
        if item.key() in seen_active:
            return
        seen_active.add(item.key())
        chart._push(item)

    def extensions(item: _Active):
        """Pair an active item against already-indexed inactive edges."""
        if item.lo > 0:
            for edge in list(chart._by_category.get(item.rule.rhs[item.lo - 1], ())):
                if edge.popped and grid_connected(edge, item.children[0], th):
                    admit_active(_Active(item.rule, item.lo - 1, item.hi,
                                         (edge,) + item.children))
        if item.hi < len(item.rule.rhs):
            for edge in list(chart._by_category.get(item.rule.rhs[item.hi], ())):
                if edge.popped and grid_connected(item.children[-1], edge, th):
                    admit_active(_Active(item.rule, item.lo, item.hi + 1,
                                         item.children + (edge,)))

    while True:
        item = chart._pop()
        if item is None:
            break
        if isinstance(item, Edge):
            item.popped = True
            if item.rule is not None:
                done_inactive.append(item)
            for rule, pos in instantiation.get(item.category, ()):
                admit_active(_Active(rule, pos, pos + 1, (item,)))
            for active in needs_right.get(item.category, ()):
                if grid_connected(active.children[-1], item, th):
                    admit_active(_Active(active.rule, active.lo, active.hi + 1,
                                         active.children + (item,)))
            for active in needs_left.get(item.category, ()):
                if grid_connected(item, active.children[0], th):
                    admit_active(_Active(active.rule, active.lo - 1, active.hi,
                                         (item,) + active.children))
        else:
            if item.lo > 0:
                needs_left.setdefault(item.rule.rhs[item.lo - 1], []).append(item)
            if item.hi < len(item.rule.rhs):
                needs_right.setdefault(item.rule.rhs[item.hi], []).append(item)
            extensions(item)

    return done_inactive


def retained_closure(edges: list[Edge]) -> list[Edge]:
    """The given edges plus every terminal they transitively use, in
    children-before-parents order."""
    out: list[Edge] = []
    seen: set[int] = set()

    def visit(edge: Edge):
        if edge.id in seen:
            return
        seen.add(edge.id)
        for child in edge.children:
            visit(child)
        out.append(edge)

    for edge in sorted(edges, key=lambda e: e.id):
        visit(edge)
    return out


def add_derivation(layer: Layer, span: TimeSpan, category: str, score: float,
                   children: list[int]) -> int:
    """Write one structure built from `children` onto `layer`.

    `children` are the ids of white nodes already on the board, in
    order, on this layer or one it depends on (a translation's one child
    is the syntax node it translates). The structure becomes a packed
    white node scoring at least `score`. A built structure also gets one
    grey node tagged `category<-l1.l2...` that names its children and
    carries `score`, and an arc between each pair of adjacent siblings;
    a node without children is a leaf and gets neither. Returns the
    white node's id.
    """
    rule = f"{category}<-" + ".".join(layer.board.node(c).label for c in children)
    node_id, _ = layer.add_white_node(span, category, score)
    if children:
        layer.add_grey_node(rule, children, (node_id,), score)
        for left, right in zip(children, children[1:]):
            layer.add_arc_once(left, right)
    return node_id


def chart_to_lattice(inactive: list[Edge], syn_layer: Layer) -> dict[int, int]:
    """Write complete structures, and the terminal phonemes they use, onto
    the syntactic layer through :func:`add_derivation`. Returns the
    edge-id to node-id mapping."""
    node_of: dict[int, int] = {}
    for edge in retained_closure(inactive):
        node_of[edge.id] = add_derivation(
            syn_layer, edge.span, edge.category, edge.score,
            [node_of[c.id] for c in edge.children])
    return node_of
