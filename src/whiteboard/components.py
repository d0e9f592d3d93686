"""Record-level components for the demo pipeline.

Each class is a callable component: wire records in, wire records out.
A manager builds one instance per connection through the factory given to
`run_manager`, so a component's state is its connection's alone. They are
deliberately self-contained — a component never touches the whiteboard and
only ever sees its own connection's records.
"""

from __future__ import annotations

from pathlib import Path

from . import wire
from .chart import Chart, Grammar, island_parse, retained_closure
from .chart import chart_from_cells  # noqa: F401  (perfbench's probes patch this name)
from .grid import Thresholds, parse_matrix_file, topk_matrices
from .translate import Dictionary


class MatrixSource:
    """Stands in for a speech recognizer: on the first trigger batch it
    loads one utterance's phoneme matrices, ranks them, and emits every
    ranked cell as an edge record in end-time order."""

    def __init__(self, matrix_file: Path | str, k: int):
        self.matrix_file = Path(matrix_file)
        self.k = k
        self.fired = False

    def __call__(self, records) -> list[wire.WireRecord]:
        if self.fired:
            return []
        self.fired = True
        matrices = parse_matrix_file(self.matrix_file.read_text(encoding="utf-8"))
        out: list[wire.WireRecord] = []
        for ranked in topk_matrices(matrices, self.k):
            for (begin, end), (phoneme, score) in ranked.cells.items():
                out.append(wire.EdgeRecord(begin, end, phoneme, score))
        out.sort(key=lambda r: (r.end, r.begin, r.phoneme))
        return out


class IslandParser:
    """Admits each batch's phoneme edges into one chart kept for the
    connection, resumes the island parse, and emits the structures that
    closure completed.

    The per-cell beam counts over the whole utterance, as in a one-shot
    parse of all cells. Fed cells in end-frame order, as the source emits
    them, it delivers exactly the derivations and scores of that one-shot
    parse (see :mod:`whiteboard.chart`). A record's id is its chart
    edge's id, which the chart gives each derivation signature once, and
    children always precede their parents on the wire. Terminal phonemes used by a delivered structure are
    delivered too, as childless inactive-edge records.
    """

    def __init__(self, grammar: Grammar, thresholds: Thresholds,
                 beam: int | None):
        self.grammar = grammar
        self.thresholds = thresholds
        self.beam = beam
        self.chart = Chart(thresholds)
        self.delivered: set[int] = set()  # chart edge ids already sent

    def __call__(self, records) -> list[wire.WireRecord]:
        cells = sorted((r.begin, r.end, r.phoneme, r.score) for r in records
                       if isinstance(r, wire.EdgeRecord))
        for begin, end, label, score in cells:
            self.chart.add_terminal(begin, end, label, score)
        derived = island_parse(self.chart, self.grammar, self.thresholds,
                               self.beam)
        out: list[wire.WireRecord] = []
        for edge in retained_closure(derived):
            if edge.id in self.delivered:
                continue
            self.delivered.add(edge.id)
            out.append(wire.InactiveEdgeRecord(
                edge.id, edge.span.begin, edge.span.end, edge.category,
                edge.score, tuple(c.id for c in edge.children)))
        return out


class WordForWordTranslator:
    """Maps each lexical node record to one node per dictionary meaning,
    naming the lexical node as its source, and mirrors arcs between
    translated nodes pairwise.

    Keeps the input-to-output correspondence across batches, since an arc
    may arrive after the nodes it joins. Records are not deduplicated: the
    coordinator forwards each node and arc once, and a repeat would only
    pack into the same target nodes and re-link pairs already linked.
    """

    def __init__(self, dictionary: Dictionary, lexical_labels: set[str]):
        self.dictionary = dictionary
        self.lexical_labels = set(lexical_labels)
        self.translations: dict[int, list[int]] = {}
        self.next_id = 1

    def _fresh(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out

    def __call__(self, records) -> list[wire.WireRecord]:
        out_nodes: list[wire.NodeRecord] = []
        out_arcs: list[wire.ArcRecord] = []
        for record in records:
            if isinstance(record, wire.NodeRecord):
                if record.label not in self.lexical_labels:
                    continue
                targets = []
                for word in self.dictionary.meanings(record.label):
                    node_id = self._fresh()
                    targets.append(node_id)
                    out_nodes.append(wire.NodeRecord(
                        node_id, record.begin, record.end, word, record.score,
                        (record.node_id,)))
                self.translations[record.node_id] = targets
            elif isinstance(record, wire.ArcRecord):
                for a in self.translations.get(record.origin, ()):
                    for b in self.translations.get(record.extremity, ()):
                        out_arcs.append(wire.ArcRecord(
                            self._fresh(), a, b, record.weight))
        return [*out_nodes, *out_arcs]
