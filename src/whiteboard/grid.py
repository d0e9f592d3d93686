"""Phoneme score matrices, top-k ranking, and grid connectivity.

A grid is a set of (span, label, score) nodes with no arcs: two nodes are
implicitly in sequence when the second begins no earlier, ends strictly
later, and its begin falls inside the gap/overlap window around the first
node's end. Converting a grid to a lattice layer makes that implicit
connectivity explicit as arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .board import Layer, TimeSpan
from .errors import InconsistentFrameCount, ParseError
from .wire import EdgeRecord, parse_line

Cell = tuple[int, int]  # (begin, end)


@dataclass(frozen=True)
class Thresholds:
    """Gapping and overlapping limits, in frames."""

    max_gap: int = 2
    max_overlap: int = 2

    def __post_init__(self):
        if self.max_gap < 0 or self.max_overlap < 0:
            raise ValueError("thresholds must be non-negative")


@dataclass
class PhonemeMatrix:
    """Score table for one phoneme: (begin, end) frame pair -> score."""

    phoneme: str
    scores: dict[Cell, float]
    frame_count: int

    def __post_init__(self):
        for begin, end in self.scores:
            if not (0 <= begin <= end <= self.frame_count):
                raise ValueError(
                    f"cell ({begin},{end}) outside 0..{self.frame_count}")


@dataclass
class RankedMatrix:
    """Rank-r cells: the r-th best (phoneme, score) per span."""

    rank: int
    cells: dict[Cell, tuple[str, float]]


@dataclass(frozen=True)
class GridNode:
    span: TimeSpan
    label: str
    score: float


class Spanned(Protocol):
    """A grid node, a white node or a chart edge: anything with a span."""

    span: TimeSpan


def grid_connected(n: Spanned, m: Spanned, th: Thresholds) -> bool:
    """True iff m may directly follow n under the gap/overlap window. Only
    the nodes' spans count."""
    return (n.span.begin <= m.span.begin
            and n.span.end < m.span.end
            and n.span.end - th.max_gap <= m.span.begin <= n.span.end + th.max_overlap)


def topk_matrices(matrices: list[PhonemeMatrix], k: int) -> list[RankedMatrix]:
    """Per-span k best (phoneme, score) pairs across all matrices.

    Ties break by phoneme label, then by matrix order, so results are
    identical across platforms.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not matrices:
        return []
    frame_count = matrices[0].frame_count
    for m in matrices[1:]:
        if m.frame_count != frame_count:
            raise InconsistentFrameCount(
                f"matrix {m.phoneme!r} has frame count {m.frame_count}, "
                f"expected {frame_count}")
    per_span: dict[Cell, list[tuple[float, str, int]]] = {}
    for idx, m in enumerate(matrices):
        for cell, score in m.scores.items():
            per_span.setdefault(cell, []).append((score, m.phoneme, idx))
    ranked: list[RankedMatrix] = [RankedMatrix(r + 1, {}) for r in range(k)]
    for cell, candidates in per_span.items():
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        for r, (score, phoneme, _) in enumerate(candidates[:k]):
            ranked[r].cells[cell] = (phoneme, score)
    return [rm for rm in ranked if rm.cells]


def add_grid_node(layer: Layer, node: GridNode, th: Thresholds) -> int:
    """Pack one grid node onto a layer and return its white node's id.

    A new white node gets an arc to and from every white node already on
    the layer that `grid_connected` allows; a node that packs into an
    existing one adds no arcs. Only nodes that begin inside the window
    around the new node's end, or end inside the window around its begin,
    can be connected to it, so only those are tested, in id order."""
    node_id, packed = layer.add_white_node(node.span, node.label, node.score)
    if packed:
        return node_id
    begin, end = node.span.begin, node.span.end
    peers = layer.nodes_in_window(
        begins=range(end - th.max_gap, end + th.max_overlap + 1),
        ends=range(begin - th.max_overlap, begin + th.max_gap + 1))
    for other_id in peers:
        if other_id == node_id:
            continue
        peer = layer.white_nodes[other_id]
        if grid_connected(node, peer, th):
            layer.add_arc_once(node_id, other_id)
        if grid_connected(peer, node, th):
            layer.add_arc_once(other_id, node_id)
    return node_id


def grid_to_lattice(nodes: list[GridNode], th: Thresholds, layer: Layer) -> None:
    """Populate an empty layer: one (packed) white node per grid node, one
    arc per connected ordered pair. The caller seals afterwards."""
    for node in nodes:
        add_grid_node(layer, node, th)


def parse_matrix_file(text: str) -> list[PhonemeMatrix]:
    """Parse an utterance fixture: one `(begin end phoneme score)` cell per
    line, blank lines, `;` comments and the spaces around a cell ignored.
    Each cell goes through the wire's reader, so it must be spaced as the
    wire writes it, one space between fields: `(0  3 h 0.9)` is refused.
    An error names the file's line and column."""
    cells: list[EdgeRecord] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        rec = parse_line(line, lineno, "edge-v1")
        if not isinstance(rec, EdgeRecord):
            raise ParseError("matrix files hold edge records only", lineno)
        if rec.begin < 0 or rec.end < rec.begin:
            raise ParseError(f"bad span ({rec.begin},{rec.end})", lineno)
        cells.append(rec)
    frame_count = max((c.end for c in cells), default=0)
    by_phoneme: dict[str, dict[Cell, float]] = {}
    for c in cells:
        by_phoneme.setdefault(c.phoneme, {})[(c.begin, c.end)] = c.score
    return [PhonemeMatrix(ph, scores, frame_count)
            for ph, scores in sorted(by_phoneme.items())]
