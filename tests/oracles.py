"""Brute-force reference implementations that the suite checks against.

Each oracle is written from the definitions alone, independently of the
package's data structures and algorithms, so agreement is meaningful.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from whiteboard.errors import NotSealed


def connected_oracle(n_begin: int, n_end: int, m_begin: int, m_end: int,
                     max_gap: int, max_overlap: int) -> bool:
    """Literal transcription of the sequencing definition: begins no later,
    ends strictly earlier, follower's begin inside the end window."""
    begins_earlier = n_begin <= m_begin
    ends_strictly_earlier = n_end < m_end
    lower = (n_end - max_gap) <= m_begin
    upper = m_begin <= (n_end + max_overlap)
    return begins_earlier and ends_strictly_earlier and lower and upper


def grid_lattice_oracle(nodes, max_gap: int, max_overlap: int, layer) -> None:
    """All-pairs grid conversion: pack every grid node onto the layer,
    then add one arc for every ordered pair of distinct white nodes that
    the sequencing definition connects."""
    for n in nodes:
        layer.add_white_node(n.span, n.label, n.score)
    whites = list(layer.white_nodes.values())
    for n in whites:
        for m in whites:
            if n.id != m.id and connected_oracle(
                    n.span.begin, n.span.end, m.span.begin, m.span.end,
                    max_gap, max_overlap):
                layer.add_arc(n.id, m.id)


def forward_pair(rng: random.Random, layer,
                 ids: list[int]) -> tuple[int, int] | None:
    """Draw two of a layer's white nodes and order them so an arc between
    them runs forward in time: the second begins no earlier than the first
    and ends strictly later. None when neither order runs forward."""
    a, b = (layer.white_nodes[rng.choice(ids)] for _ in range(2))
    for n, m in ((a, b), (b, a)):
        if n.span.begin <= m.span.begin and n.span.end < m.span.end:
            return n.id, m.id
    return None


def dfs_paths(layer) -> list[tuple[tuple[str, ...], float]]:
    """Every source-to-sink path over a layer's real arcs, by naive DFS.

    Sources/sinks are nodes without incoming/outgoing real arcs; an
    isolated node is a one-node path. Scores are node scores plus arc
    weights along the way.
    """
    nodes = {n.id: n for n in layer.white_nodes.values()}
    succ: dict[int, list[int]] = {i: [] for i in nodes}
    indeg: dict[int, int] = {i: 0 for i in nodes}
    weight = {}
    for arc in layer.arcs.values():
        succ[arc.origin].append(arc.extremity)
        indeg[arc.extremity] += 1
        weight[(arc.origin, arc.extremity)] = arc.weight
    out: list[tuple[tuple[str, ...], float]] = []

    def walk(node_id: int, labels: list[str], score: float):
        if not succ[node_id]:
            out.append((tuple(labels), score))
            return
        for nxt in succ[node_id]:
            walk(nxt, labels + [nodes[nxt].label],
                 score + weight[(node_id, nxt)] + nodes[nxt].score)

    for node_id, node in nodes.items():
        if indeg[node_id] == 0:
            walk(node_id, [node.label], node.score)
    return out


@dataclass
class LatticePath:
    labels: tuple[str, ...]
    score: float
    node_ids: tuple[int, ...]


# the two endpoints an oracle wires around a layer; board ids start at 1
INITIAL, FINAL = 0, -1


def wired_successors(layer) -> dict[int, list[int]]:
    """A layer's successor lists over its arcs, with two endpoints of the
    oracle's own: INITIAL goes before every white node that no arc enters,
    and FINAL after every one that no arc leaves."""
    succ: dict[int, list[int]] = {n: [] for n in layer.white_nodes}
    for arc in layer.arcs.values():
        succ[arc.origin].append(arc.extremity)
    entered = {arc.extremity for arc in layer.arcs.values()}
    succ[INITIAL] = [n for n in layer.white_nodes if n not in entered]
    for outs in list(succ.values()):
        if not outs:
            outs.append(FINAL)
    succ[FINAL] = []
    return succ


def enumerate_paths(layer) -> list[LatticePath]:
    """Every initial-to-final label sequence of a sealed layer, walking the
    oracle's own wiring around its arcs, with additive scores. Exponential
    in the layer's size, so only small layers are walked."""
    if not layer.sealed:
        raise NotSealed(f"layer {layer.name!r} is not sealed")
    succ = wired_successors(layer)
    weight_of = {(arc.origin, arc.extremity): arc.weight
                 for arc in layer.arcs.values()}
    paths: list[LatticePath] = []

    def walk(node_id: int, labels: list[str], ids: list[int], score: float):
        if node_id == FINAL:
            paths.append(LatticePath(tuple(labels), score, tuple(ids)))
            return
        for nxt in sorted(succ[node_id]):
            step = weight_of.get((node_id, nxt), 0.0)  # the wiring weighs 0
            node = layer.white_nodes.get(nxt)
            if node is None:  # the final endpoint
                walk(nxt, labels, ids, score + step)
            else:
                walk(nxt, labels + [node.label], ids + [nxt],
                     score + step + node.score)

    walk(INITIAL, [], [], 0.0)
    return paths


def valid_lattice(layer) -> bool:
    """A layer's graph, wired to the oracle's endpoints, is acyclic (Kahn),
    has the endpoints as its only first and last nodes, and puts every
    white node on an initial-to-final path."""
    succ = wired_successors(layer)
    nodes = list(succ)
    indeg = {n: 0 for n in nodes}
    for outs in succ.values():
        for m in outs:
            indeg[m] += 1
    firsts = [n for n in nodes if indeg[n] == 0]
    lasts = [n for n in nodes if not succ[n]]
    if firsts != [INITIAL] or lasts != [FINAL]:
        return False
    queue = list(firsts)
    seen = 0
    while queue:
        cur = queue.pop()
        seen += 1
        for m in succ[cur]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    if seen != len(nodes):
        return False
    pred: dict[int, list[int]] = {}
    for n, outs in succ.items():
        for m in outs:
            pred.setdefault(m, []).append(n)
    forward = _closure(INITIAL, succ)
    backward = _closure(FINAL, pred)
    return all(n in forward and n in backward for n in layer.white_nodes)


def _closure(start: int, link: dict[int, list[int]]) -> set[int]:
    stack, seen = [start], set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(link.get(cur, ()))
    return seen


def per_cell_topk(matrices, k: int):
    """Expected ranked cells: exhaustive sort per (begin, end) span.

    Returns {rank: {span: (phoneme, score)}} with ranks starting at 1.
    """
    candidates: dict[tuple[int, int], list] = {}
    for idx, matrix in enumerate(matrices):
        for span, score in matrix.scores.items():
            candidates.setdefault(span, []).append((score, matrix.phoneme, idx))
    expected: dict[int, dict] = {}
    for span, options in candidates.items():
        options.sort(key=lambda o: (-o[0], o[1], o[2]))
        for rank, (score, phoneme, _) in enumerate(options[:k], start=1):
            expected.setdefault(rank, {})[span] = (phoneme, score)
    return expected


Item = tuple[str, int, int]  # (category, begin, end)


def closure_oracle(terminals: set[Item], rules: list[tuple[str, tuple[str, ...]]],
                   max_gap: int, max_overlap: int) -> set[Item]:
    """Exhaustive bottom-up closure: every (category, begin, end) derivable
    by tiling rule right-hand sides with junction-compatible items.
    Returns derived items only (seeds excluded)."""
    items: set[Item] = set(terminals)
    while True:
        snapshot = sorted(items)
        by_cat: dict[str, list[Item]] = {}
        for item in snapshot:
            by_cat.setdefault(item[0], []).append(item)
        added = False
        for lhs, rhs in rules:
            for seq in _tilings(by_cat, rhs, max_gap, max_overlap):
                derived = (lhs, seq[0][1], seq[-1][2])
                if derived not in items:
                    items.add(derived)
                    added = True
        if not added:
            return items - set(terminals)


def _tilings(by_cat: dict[str, list[Item]], rhs: tuple[str, ...],
             max_gap: int, max_overlap: int):
    def extend(prefix: list[Item], pos: int):
        if pos == len(rhs):
            yield list(prefix)
            return
        for item in by_cat.get(rhs[pos], ()):
            if prefix and not connected_oracle(
                    prefix[-1][1], prefix[-1][2], item[1], item[2],
                    max_gap, max_overlap):
                continue
            prefix.append(item)
            yield from extend(prefix, pos + 1)
            prefix.pop()

    yield from extend([], 0)


def random_grammar(rng: random.Random, terminals: list[str],
                   max_rules: int = 6) -> list[tuple[str, tuple[str, ...]]]:
    """Random small grammar; single-symbol right-hand sides are kept
    terminal-only so unary nonterminal cycles cannot arise."""
    nonterminals = [f"N{i}" for i in range(rng.randint(1, 3))]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        lhs = rng.choice(nonterminals)
        length = rng.randint(1, 3)
        if length == 1:
            rhs = (rng.choice(terminals),)
        else:
            rhs = tuple(rng.choice(terminals + nonterminals)
                        for _ in range(length))
        rules.append((lhs, rhs))
    return rules


def identity_component(records) -> list:
    """The echo component: its reply to a batch is the batch itself, so a
    protocol test knows exactly what each connection must get back."""
    return list(records)


def whole_document_json(board) -> str:
    """The board's JSON export as one document: every layer's fields, nodes,
    grey nodes with their scores and arcs, sorted by id, in one compact
    `json.dumps` call."""
    def layer_doc(layer):
        return {
            "name": layer.name,
            "depends_on": sorted(layer.depends_on),
            "legal_labels": (sorted(layer.legal_labels)
                             if layer.legal_labels is not None else None),
            "sealed": layer.sealed,
            "nodes": [{"id": n.id, "begin": n.span.begin, "end": n.span.end,
                       "label": n.label, "score": n.score}
                      for n in sorted(layer.white_nodes.values(),
                                      key=lambda n: n.id)],
            "grey": [{"id": g.id, "rule": g.rule, "inputs": list(g.inputs),
                      "outputs": list(g.outputs), "score": g.score}
                     for g in sorted(layer.grey_nodes.values(),
                                     key=lambda g: g.id)],
            "arcs": [{"id": a.id, "origin": a.origin,
                      "extremity": a.extremity, "weight": a.weight}
                     for a in sorted(layer.arcs.values(), key=lambda a: a.id)],
        }
    doc = {"layers": [layer_doc(board.layers[name])
                      for name in board.dependency_order()]}
    return json.dumps(doc, separators=(",", ":"))
