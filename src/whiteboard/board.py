"""The layered, time-aligned, packed hypothesis lattice.

A :class:`Whiteboard` holds named layers arranged in a loop-free dependency
graph. Each layer is a lattice of white nodes (packed hypotheses keyed by
end frame, segment length and label) joined by explicit sequencing arcs,
plus grey connector nodes that record how white nodes were built without
taking part in the lattice structure itself.

Layers are mutable until sealed. Sealing wires two virtual endpoint nodes
around the real graph, checks acyclicity, unique first/last nodes and full
reachability, and freezes the layer; only sealed layers may enumerate
paths.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .errors import (
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
    UnreachableNode,
    WouldCreateCycle,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True, slots=True)
class TimeSpan:
    """Half-open-agnostic frame pair: begin and end frame indices."""

    begin: int
    end: int

    def __post_init__(self):
        if self.begin < 0:
            raise ValueError(f"begin frame must be >= 0, got {self.begin}")
        if self.end < self.begin:
            raise ValueError(f"span end {self.end} before begin {self.begin}")

    @property
    def length(self) -> int:
        return self.end - self.begin


@dataclass(frozen=True, slots=True)
class PackingKey:
    """Packing coordinate: (end frame, segment length, label)."""

    i: int
    j: int
    k: str

    @classmethod
    def of(cls, span: TimeSpan, label: str) -> "PackingKey":
        return cls(span.end, span.length, label)


@dataclass(slots=True)
class Reading:
    """One derivation packed into a white node."""

    payload: object
    score: float


@dataclass(slots=True)
class WhiteNode:
    id: int
    span: TimeSpan
    label: str | None  # None only for the virtual endpoints
    score: float
    readings: list[Reading] = field(default_factory=list)

    @property
    def virtual(self) -> bool:
        return self.label is None


@dataclass(slots=True)
class GreyNode:
    """Rule-instance connector: inputs were combined into outputs."""

    id: int
    rule: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


@dataclass(slots=True)
class Arc:
    id: int
    origin: int
    extremity: int
    weight: float


@dataclass
class SealReport:
    node_count: int
    arc_count: int
    acyclic: bool
    unique_first: bool
    unique_last: bool
    fully_reachable: bool
    wired_to_initial: list[int]
    wired_to_final: list[int]

    @property
    def ok(self) -> bool:
        return (self.acyclic and self.unique_first and self.unique_last
                and self.fully_reachable)


@dataclass
class LatticePath:
    labels: tuple[str, ...]
    score: float
    node_ids: tuple[int, ...]


class Layer:
    """One whiteboard layer; create through :meth:`Whiteboard.declare_layer`."""

    def __init__(self, board: "Whiteboard", name: str,
                 legal_labels: set[str] | None,
                 depends_on: frozenset[str],
                 packing_tolerance: int = 0):
        self.board = board
        self.name = name
        self.legal_labels = set(legal_labels) if legal_labels is not None else None
        self.depends_on = depends_on
        self.packing_tolerance = int(packing_tolerance)
        self.sealed = False
        self._seal_report: SealReport | None = None
        self.white_nodes: dict[int, WhiteNode] = {}
        self.grey_nodes: dict[int, GreyNode] = {}
        self.arcs: dict[int, Arc] = {}
        self._wiring_arcs: dict[int, Arc] = {}
        self._by_key: dict[PackingKey, int] = {}
        self._by_label: dict[str, list[int]] = {}
        self._succ: dict[int, list[int]] = {}
        self._pred: dict[int, list[int]] = {}
        self.virtual_initial = board._new_id()
        self.virtual_final = board._new_id()
        self._virtuals = {
            self.virtual_initial: WhiteNode(self.virtual_initial, TimeSpan(0, 0), None, 0.0),
            self.virtual_final: WhiteNode(self.virtual_final, TimeSpan(0, 0), None, 0.0),
        }

    # -- mutation ----------------------------------------------------------

    def add_white_node(self, span: TimeSpan, label: str, score: float,
                       reading: object = None) -> tuple[int, bool]:
        """Add (or pack) a hypothesis; returns (node id, packed flag).

        A node already holding the normalized packing key absorbs the new
        reading and keeps the max score; otherwise a fresh node is created.
        """
        self._check_unsealed()
        if self.legal_labels is not None and label not in self.legal_labels:
            raise IllegalLabel(f"label {label!r} not legal in layer {self.name!r}")
        score = float(score)
        target = self._find_packed(span, label)
        if target is not None:
            node = self.white_nodes[target]
            if not any(r.payload == reading and r.score == score
                       for r in node.readings):
                node.readings.append(Reading(reading, score))
            if score > node.score:
                node.score = score
            return target, True
        node = WhiteNode(self.board._new_id(), span, label, score,
                         [Reading(reading, score)])
        self._insert_node(node)
        return node.id, False

    def _insert_node(self, node: WhiteNode) -> None:
        """Enter a new node in the layer's and the board's indexes."""
        self.white_nodes[node.id] = node
        self.board._node_layer[node.id] = self.name
        self._by_key[PackingKey.of(node.span, node.label)] = node.id
        self._by_label.setdefault(node.label, []).append(node.id)
        self._succ[node.id] = []
        self._pred[node.id] = []

    def _find_packed(self, span: TimeSpan, label: str) -> int | None:
        eps = self.packing_tolerance
        if eps == 0:
            return self._by_key.get(PackingKey.of(span, label))
        best = None
        for node_id in self._by_label.get(label, ()):
            other = self.white_nodes[node_id].span
            if (abs(span.end - other.end) <= eps
                    and abs(span.length - other.length) <= eps):
                if best is None or node_id < best:
                    best = node_id
        return best

    def add_arc(self, origin: int, extremity: int, weight: float = 0.0) -> int:
        self._check_unsealed()
        for node_id in (origin, extremity):
            owner = self.board._node_layer.get(node_id)
            if owner is None or node_id not in self.board.layers[owner].white_nodes:
                raise UnknownNode(f"no white node with id {node_id}")
            if owner != self.name:
                raise CrossLayerArc(
                    f"node {node_id} belongs to layer {owner!r}, not {self.name!r}")
        if origin == extremity or self._reaches(extremity, origin):
            raise WouldCreateCycle(f"arc {origin}->{extremity} would close a cycle")
        arc = Arc(self.board._new_id(), origin, extremity, float(weight))
        self._insert_arc(arc)
        return arc.id

    def _insert_arc(self, arc: Arc) -> None:
        """Enter a checked arc in the layer's indexes."""
        self.arcs[arc.id] = arc
        self._succ[arc.origin].append(arc.extremity)
        self._pred[arc.extremity].append(arc.origin)

    def add_arc_once(self, origin: int, extremity: int,
                     weight: float = 0.0) -> None:
        """Add an arc unless it is a self-loop or the pair is already
        linked. An arc that would close a cycle is dropped with a warning,
        so one bad hypothesis cannot stop the layer from being built."""
        self._check_unsealed()
        if origin == extremity or extremity in self._succ.get(origin, ()):
            return
        try:
            self.add_arc(origin, extremity, weight)
        except WouldCreateCycle:
            log.warning("dropped arc %s->%s on %s: would create a cycle",
                        origin, extremity, self.name)

    def _reaches(self, start: int, goal: int) -> bool:
        stack, seen = [start], set()
        while stack:
            cur = stack.pop()
            if cur == goal:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._succ.get(cur, ()))
        return False

    def add_grey_node(self, rule: str, inputs, outputs) -> int:
        self._check_unsealed()
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        if not inputs or not outputs:
            raise EmptyEndpointList("grey node needs non-empty inputs and outputs")
        for node_id in inputs + outputs:
            owner = self.board._node_layer.get(node_id)
            if owner is None or node_id not in self.board.layers[owner].white_nodes:
                raise UnknownNode(f"no white node with id {node_id}")
        grey_id = self.board._new_id()
        self.grey_nodes[grey_id] = GreyNode(grey_id, rule, inputs, outputs)
        return grey_id

    def _check_unsealed(self):
        if self.sealed:
            raise LayerSealed(f"layer {self.name!r} is sealed")

    # -- sealing and traversal ----------------------------------------------

    def seal(self) -> SealReport:
        """Wire the virtual endpoints and validate the lattice shape."""
        if self.sealed:
            return self._seal_report
        if not self.white_nodes:
            raise EmptyLayer(f"layer {self.name!r} has no white nodes")
        sources = sorted(n for n in self.white_nodes if not self._pred[n])
        sinks = sorted(n for n in self.white_nodes if not self._succ[n])
        vi, vf = self.virtual_initial, self.virtual_final
        self._succ[vi] = list(sources)
        self._pred[vf] = list(sinks)
        self._succ[vf] = []
        self._pred[vi] = []
        for n in sources:
            arc_id = self.board._new_id()
            self._wiring_arcs[arc_id] = Arc(arc_id, vi, n, 0.0)
            self._pred[n].insert(0, vi)
        for n in sinks:
            arc_id = self.board._new_id()
            self._wiring_arcs[arc_id] = Arc(arc_id, n, vf, 0.0)
            self._succ[n].append(vf)
        report = SealReport(
            node_count=len(self.white_nodes),
            arc_count=len(self.arcs),
            acyclic=self._kahn_acyclic(),
            unique_first=self._unique_endpoint(self._pred, vi),
            unique_last=self._unique_endpoint(self._succ, vf),
            fully_reachable=True,
            wired_to_initial=sources,
            wired_to_final=sinks,
        )
        unreachable = self._unreachable_nodes()
        report.fully_reachable = not unreachable
        if not report.ok:
            # cycles cannot be built through add_arc, so only isolated
            # garbage can surface here
            raise UnreachableNode(
                f"layer {self.name!r} failed seal validation: "
                f"unreachable={sorted(unreachable)}")
        self.sealed = True
        self._seal_report = report
        return report

    def _all_ids(self):
        return list(self.white_nodes) + [self.virtual_initial, self.virtual_final]

    def _kahn_acyclic(self) -> bool:
        indeg = {n: len(self._pred.get(n, ())) for n in self._all_ids()}
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            cur = queue.pop()
            seen += 1
            for nxt in self._succ.get(cur, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        return seen == len(indeg)

    def _unique_endpoint(self, link: dict[int, list[int]], expected: int) -> bool:
        empty = [n for n in self._all_ids() if not link.get(n)]
        return empty == [expected]

    def _unreachable_nodes(self) -> set[int]:
        forward = self._closure(self.virtual_initial, self._succ)
        backward = self._closure(self.virtual_final, self._pred)
        return {n for n in self.white_nodes
                if n not in forward or n not in backward}

    @staticmethod
    def _closure(start: int, link: dict[int, list[int]]) -> set[int]:
        stack, seen = [start], set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(link.get(cur, ()))
        return seen

    def enumerate_paths(self) -> list[LatticePath]:
        """All initial-to-final label sequences with additive scores."""
        if not self.sealed:
            raise NotSealed(f"layer {self.name!r} is not sealed")
        weight_of = {}
        for arc in list(self.arcs.values()) + list(self._wiring_arcs.values()):
            weight_of[(arc.origin, arc.extremity)] = arc.weight
        paths: list[LatticePath] = []

        def walk(node: int, labels: list[str], ids: list[int], score: float):
            if node == self.virtual_final:
                paths.append(LatticePath(tuple(labels), score, tuple(ids)))
                return
            for nxt in sorted(self._succ.get(node, ())):
                step = weight_of.get((node, nxt), 0.0)
                nxt_node = self._node(nxt)
                if nxt_node.virtual:
                    walk(nxt, labels, ids, score + step)
                else:
                    walk(nxt, labels + [nxt_node.label], ids + [nxt],
                         score + step + nxt_node.score)

        walk(self.virtual_initial, [], [], 0.0)
        return paths

    def _node(self, node_id: int) -> WhiteNode:
        if node_id in self._virtuals:
            return self._virtuals[node_id]
        return self.white_nodes[node_id]

    def successors(self, node_id: int) -> list[int]:
        return list(self._succ.get(node_id, ()))


class Whiteboard:
    """The coordinator-owned board: layers plus their dependency graph."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._next_id = 1
        self._node_layer: dict[int, str] = {}

    def _new_id(self) -> int:
        out = self._next_id
        self._next_id += 1
        return out

    def declare_layer(self, name: str, legal_labels=None, depends_on=(),
                      packing_tolerance: int = 0) -> Layer:
        if name in self.layers:
            raise DuplicateLayer(f"layer {name!r} already declared")
        deps = frozenset(depends_on)
        if name in deps:
            raise DependencyCycle(f"layer {name!r} cannot depend on itself")
        for dep in sorted(deps):
            if dep not in self.layers:
                raise UnknownDependency(f"unknown dependency layer {dep!r}")
        layer = Layer(self, name, legal_labels, deps, packing_tolerance)
        self.layers[name] = layer
        if not self._deps_acyclic():
            del self.layers[name]
            raise DependencyCycle(f"declaring {name!r} would close a dependency loop")
        return layer

    def _deps_acyclic(self) -> bool:
        order = self.dependency_order()
        return len(order) == len(self.layers)

    def dependency_order(self) -> list[str]:
        """Layer names topologically sorted by dependencies, declaration
        order breaking ties."""
        names = list(self.layers)
        remaining = dict.fromkeys(names)
        out = []
        while remaining:
            progressed = False
            for name in list(remaining):
                if all(dep not in remaining for dep in self.layers[name].depends_on):
                    out.append(name)
                    del remaining[name]
                    progressed = True
            if not progressed:
                break
        return out

    def node(self, node_id: int) -> WhiteNode:
        layer = self._node_layer.get(node_id)
        if layer is None:
            raise UnknownNode(f"no white node with id {node_id}")
        return self.layers[layer].white_nodes[node_id]

    def node_layer(self, node_id: int) -> str:
        layer = self._node_layer.get(node_id)
        if layer is None:
            raise UnknownNode(f"no white node with id {node_id}")
        return layer


def filter_slice(nodes: list[WhiteNode], arcs: list[Arc],
                 threshold: float | None) -> tuple[list[WhiteNode], list[Arc]]:
    """Restrict a slice to nodes at or above the threshold and the arcs
    among the survivors. A missing threshold is the identity."""
    if threshold is None:
        return nodes, arcs
    keep_nodes = [n for n in nodes if n.score >= threshold]
    keep = {n.id for n in keep_nodes}
    return keep_nodes, [a for a in arcs if a.origin in keep and a.extremity in keep]


# -- export / import ---------------------------------------------------------

def _layer_dict(layer: Layer) -> dict:
    return {
        "name": layer.name,
        "depends_on": sorted(layer.depends_on),
        "legal_labels": (sorted(layer.legal_labels)
                         if layer.legal_labels is not None else None),
        "packing_tolerance": layer.packing_tolerance,
        "sealed": layer.sealed,
        "nodes": [
            {
                "id": n.id,
                "begin": n.span.begin,
                "end": n.span.end,
                "label": n.label,
                "score": n.score,
                "readings": [
                    {"payload": r.payload, "score": r.score} for r in n.readings
                ],
            }
            for n in sorted(layer.white_nodes.values(), key=lambda n: n.id)
        ],
        "grey": [
            {"id": g.id, "rule": g.rule,
             "inputs": list(g.inputs), "outputs": list(g.outputs)}
            for g in sorted(layer.grey_nodes.values(), key=lambda g: g.id)
        ],
        "arcs": [
            {"id": a.id, "origin": a.origin,
             "extremity": a.extremity, "weight": a.weight}
            for a in sorted(layer.arcs.values(), key=lambda a: a.id)
        ],
    }


def to_json(board: Whiteboard, indent: int | None = 2) -> str:
    """Deterministic JSON image of the board (virtual endpoints omitted)."""
    doc = {"layers": [_layer_dict(board.layers[name])
                      for name in board.dependency_order()]}
    return json.dumps(doc, indent=indent, sort_keys=False)


def from_json(text: str) -> Whiteboard:
    """Rebuild a board from :func:`to_json` output, preserving identifiers,
    legal labels and packing tolerances; layers exported sealed are sealed
    again."""
    doc = json.loads(text)
    board = Whiteboard()
    max_id = 0
    sealed: list[Layer] = []
    for layer_doc in doc["layers"]:
        layer = board.declare_layer(
            layer_doc["name"], legal_labels=layer_doc["legal_labels"],
            depends_on=layer_doc["depends_on"],
            packing_tolerance=layer_doc["packing_tolerance"])
        if layer_doc["sealed"]:
            sealed.append(layer)
        for node_doc in layer_doc["nodes"]:
            node = WhiteNode(
                node_doc["id"], TimeSpan(node_doc["begin"], node_doc["end"]),
                node_doc["label"], node_doc["score"],
                [Reading(r["payload"], r["score"]) for r in node_doc["readings"]],
            )
            layer._insert_node(node)
            max_id = max(max_id, node.id)
        for grey_doc in layer_doc["grey"]:
            grey = GreyNode(grey_doc["id"], grey_doc["rule"],
                            tuple(grey_doc["inputs"]), tuple(grey_doc["outputs"]))
            layer.grey_nodes[grey.id] = grey
            max_id = max(max_id, grey.id)
        for arc_doc in layer_doc["arcs"]:
            arc = Arc(arc_doc["id"], arc_doc["origin"],
                      arc_doc["extremity"], arc_doc["weight"])
            layer._insert_arc(arc)
            max_id = max(max_id, arc.id)
    board._next_id = max(board._next_id, max_id + 1)
    for layer in sealed:  # after the counter, so the wiring arcs get fresh ids
        layer.seal()
    return board


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(board: Whiteboard, layer: str | None = None,
           threshold: float | None = None, hide_grey: bool = False) -> str:
    """Graphviz rendering: white nodes as boxes, grey nodes as dashed
    diamonds, one cluster per layer in dependency order.

    A grey node is left out when the threshold drops one of its own
    layer's nodes, and its edges reach only the white nodes the output
    declares, so a single layer's rendering draws no edges into the
    layers it depends on."""
    lines = ["digraph whiteboard {", "  rankdir=LR;"]
    names = board.dependency_order()
    if layer is not None:
        names = [n for n in names if n == layer]
    slices = {name: filter_slice(
        sorted(board.layers[name].white_nodes.values(), key=lambda n: n.id),
        sorted(board.layers[name].arcs.values(), key=lambda a: a.id),
        threshold) for name in names}
    declared = {n.id for nodes, _ in slices.values() for n in nodes}
    for idx, name in enumerate(names):
        lay = board.layers[name]
        nodes, arcs = slices[name]
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f"    label={_dot_quote(name)};")
        for n in nodes:
            label = f"{n.label}\\n[{n.span.begin},{n.span.end}] {n.score:.3g}"
            lines.append(f'    n{n.id} [shape=box, label="{label}"];')
        if not hide_grey:
            for g in sorted(lay.grey_nodes.values(), key=lambda g: g.id):
                if not all(i in declared or i not in lay.white_nodes
                           for i in g.inputs + g.outputs):
                    continue
                lines.append(
                    f"    g{g.id} [shape=diamond, style=dashed, "
                    f"label={_dot_quote(g.rule)}];")
                for i in g.inputs:
                    if i in declared:
                        lines.append(f"    n{i} -> g{g.id} [style=dashed];")
                for o in g.outputs:
                    if o in declared:
                        lines.append(f"    g{g.id} -> n{o} [style=dashed];")
        for a in arcs:
            lines.append(
                f'    n{a.origin} -> n{a.extremity} [label="{a.weight:g}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonical_form(board: Whiteboard):
    """Identifier-free image of a board, for isomorphism comparison.

    Nodes are keyed by (layer, span, label), which packing makes unique;
    arcs and grey nodes are rewritten onto those keys.
    """
    form = []
    for name in board.dependency_order():
        lay = board.layers[name]
        key_of = {n.id: (n.span.begin, n.span.end, n.label)
                  for n in lay.white_nodes.values()}

        def global_key(node_id: int):
            owner = board.node_layer(node_id)
            node = board.node(node_id)
            return (owner, node.span.begin, node.span.end, node.label)

        nodes = sorted(
            (key_of[n.id], round(n.score, 9),
             tuple(sorted(json.dumps([r.payload, round(r.score, 9)],
                                     sort_keys=True) for r in n.readings)))
            for n in lay.white_nodes.values())
        arcs = sorted((key_of[a.origin], key_of[a.extremity],
                       round(a.weight, 9)) for a in lay.arcs.values())
        greys = sorted((g.rule, tuple(global_key(i) for i in g.inputs),
                        tuple(global_key(o) for o in g.outputs))
                       for g in lay.grey_nodes.values())
        form.append((name, tuple(sorted(lay.depends_on)),
                     tuple(nodes), tuple(arcs), tuple(greys)))
    return tuple(form)


def boards_isomorphic(a: Whiteboard, b: Whiteboard) -> bool:
    """Structural equality up to identifier renaming."""
    return canonical_form(a) == canonical_form(b)
