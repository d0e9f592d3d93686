"""The layered, time-aligned, packed hypothesis lattice.

A :class:`Whiteboard` holds named layers arranged in a loop-free dependency
graph. Each layer is a lattice of white nodes (packed hypotheses keyed by
end frame, segment length and label) joined by explicit sequencing arcs,
plus grey connector nodes, one per derivation, that record how white nodes
were built, and with what score, without taking part in the lattice
structure itself.

Everything enters a layer through :meth:`Layer.add_white_node`,
:meth:`Layer.add_grey_node` and :meth:`Layer.add_arc`, import included, so
every layer holds one node per exact packing key, legal labels only, and
arcs that run forward in time: an arc's extremity begins no earlier than
its origin begins and ends strictly later than its origin ends. End
frames rise along every path, so a layer is loop-free by construction.
Layers are mutable until sealed. Sealing wires two virtual endpoint nodes
to the sources and sinks of that loop-free graph, which gives it one
first node, one last node and every node on an initial-to-final path, and
freezes the layer.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import (
    BackwardArc,
    CrossLayerArc,
    DependencyCycle,
    DuplicateLayer,
    EmptyEndpointList,
    EmptyLayer,
    IllegalLabel,
    InvalidExport,
    LayerSealed,
    UnknownDependency,
    UnknownNode,
)


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
class WhiteNode:
    id: int
    span: TimeSpan
    label: str
    score: float


@dataclass(slots=True)
class GreyNode:
    """Rule-instance connector: inputs were combined into outputs, a
    derivation scoring `score`."""

    id: int
    rule: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    score: float


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
    wired_to_initial: list[int]
    wired_to_final: list[int]


class Layer:
    """One whiteboard layer; create through :meth:`Whiteboard.declare_layer`."""

    def __init__(self, board: "Whiteboard", name: str,
                 legal_labels: set[str] | None,
                 depends_on: frozenset[str]):
        self.board = board
        self.name = name
        self.legal_labels = set(legal_labels) if legal_labels is not None else None
        self.depends_on = depends_on
        self.sealed = False
        self._seal_report: SealReport | None = None
        self.white_nodes: dict[int, WhiteNode] = {}
        self.grey_nodes: dict[int, GreyNode] = {}
        self.arcs: dict[int, Arc] = {}
        self._wiring_arcs: dict[int, Arc] = {}
        self._by_key: dict[PackingKey, int] = {}
        # white-node ids by begin frame and by end frame, in creation order
        self._by_begin: dict[int, list[int]] = {}
        self._by_end: dict[int, list[int]] = {}
        self._succ: dict[int, list[int]] = {}
        self.virtual_initial = board._new_id()
        self.virtual_final = board._new_id()

    # -- mutation ----------------------------------------------------------

    def add_white_node(self, span: TimeSpan, label: str,
                       score: float) -> tuple[int, bool]:
        """Add (or pack) a hypothesis; returns (node id, packed flag).

        A node already holding the packing key keeps the max score;
        otherwise a fresh node is created. How a node was built is told
        by the grey nodes that output to it, not by the node.
        """
        self._check_unsealed()
        if self.legal_labels is not None and label not in self.legal_labels:
            raise IllegalLabel(f"label {label!r} not legal in layer {self.name!r}")
        score = float(score)
        key = PackingKey.of(span, label)
        target = self._by_key.get(key)
        if target is not None:
            node = self.white_nodes[target]
            node.score = max(node.score, score)
            return target, True
        node_id = self.board._new_id()
        self.white_nodes[node_id] = WhiteNode(node_id, span, label, score)
        self.board._node_layer[node_id] = self.name
        self._by_key[key] = node_id
        self._by_begin.setdefault(span.begin, []).append(node_id)
        self._by_end.setdefault(span.end, []).append(node_id)
        self._succ[node_id] = []
        return node_id, False

    def nodes_in_window(self, begins: range, ends: range) -> list[int]:
        """Ids of the white nodes whose begin frame lies in `begins` or
        whose end frame lies in `ends`, ascending."""
        found: set[int] = set()
        for frame in begins:
            found.update(self._by_begin.get(frame, ()))
        for frame in ends:
            found.update(self._by_end.get(frame, ()))
        return sorted(found)

    def add_arc(self, origin: int, extremity: int, weight: float = 0.0) -> int:
        """Link two of the layer's white nodes. An arc that does not run
        forward in time raises `BackwardArc`: a self-loop and an arc
        between two nodes of one span are refused too, so no arc can
        close a cycle."""
        self._check_unsealed()
        for node_id in (origin, extremity):
            if node_id not in self.white_nodes:
                raise CrossLayerArc(
                    f"node {node_id} belongs to layer "
                    f"{self.board.node_layer(node_id)!r}, not {self.name!r}")
        a = self.white_nodes[origin].span
        b = self.white_nodes[extremity].span
        if not (a.begin <= b.begin and a.end < b.end):
            raise BackwardArc(
                f"arc {origin}->{extremity} does not run forward in time: "
                f"[{a.begin},{a.end}] to [{b.begin},{b.end}]")
        arc_id = self.board._new_id()
        self.arcs[arc_id] = Arc(arc_id, origin, extremity, float(weight))
        self._succ[origin].append(extremity)
        return arc_id

    def add_arc_once(self, origin: int, extremity: int,
                     weight: float = 0.0) -> None:
        """Add an arc unless the pair is already linked."""
        self._check_unsealed()
        if extremity not in self._succ.get(origin, ()):
            self.add_arc(origin, extremity, weight)

    def add_grey_node(self, rule: str, inputs, outputs, score: float) -> int:
        """Record a derivation scoring `score`: `inputs`, nodes of this
        layer or of one it depends on, were combined into `outputs`, nodes
        of this layer. Each output's score is raised to at least `score`,
        which is how a derivation packs into its node."""
        self._check_unsealed()
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        if not inputs or not outputs:
            raise EmptyEndpointList("grey node needs non-empty inputs and outputs")
        for node_id in inputs:
            owner = self.board.node_layer(node_id)
            if owner != self.name and owner not in self.depends_on:
                raise CrossLayerArc(
                    f"grey node on {self.name!r} names node {node_id} of "
                    f"layer {owner!r}, which {self.name!r} does not depend on")
        for node_id in outputs:
            if node_id not in self.white_nodes:
                raise CrossLayerArc(
                    f"grey node on {self.name!r} outputs to node {node_id} "
                    f"of layer {self.board.node_layer(node_id)!r}")
        score = float(score)
        for node_id in outputs:
            node = self.white_nodes[node_id]
            node.score = max(node.score, score)
        grey_id = self.board._new_id()
        self.grey_nodes[grey_id] = GreyNode(grey_id, rule, inputs, outputs, score)
        return grey_id

    def _check_unsealed(self):
        if self.sealed:
            raise LayerSealed(f"layer {self.name!r} is sealed")

    # -- sealing and traversal ----------------------------------------------

    def seal(self) -> SealReport:
        """Wire the virtual endpoints to the sources and sinks and freeze
        the layer.

        Every arc runs forward in time, so the layer is loop-free, and the
        wiring leaves the initial endpoint as its only first node, the
        final one as its only last node, and every white node on an
        initial-to-final path.
        """
        if self.sealed:
            return self._seal_report
        if not self.white_nodes:
            raise EmptyLayer(f"layer {self.name!r} has no white nodes")
        sources = sorted(set(self.white_nodes).difference(
            a.extremity for a in self.arcs.values()))
        sinks = sorted(n for n in self.white_nodes if not self._succ[n])
        vi, vf = self.virtual_initial, self.virtual_final
        self._succ[vi] = list(sources)
        self._succ[vf] = []
        for n in sources:
            arc_id = self.board._new_id()
            self._wiring_arcs[arc_id] = Arc(arc_id, vi, n, 0.0)
        for n in sinks:
            arc_id = self.board._new_id()
            self._wiring_arcs[arc_id] = Arc(arc_id, n, vf, 0.0)
            self._succ[n].append(vf)
        self.sealed = True
        # only writers read the packing and frame indexes, and a sealed
        # layer takes no writes
        self._by_key.clear()
        self._by_begin.clear()
        self._by_end.clear()
        self._seal_report = SealReport(len(self.white_nodes), len(self.arcs),
                                       sources, sinks)
        return self._seal_report

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

    def declare_layer(self, name: str, legal_labels=None, depends_on=()) -> Layer:
        if name in self.layers:
            raise DuplicateLayer(f"layer {name!r} already declared")
        deps = frozenset(depends_on)
        if name in deps:
            raise DependencyCycle(f"layer {name!r} cannot depend on itself")
        for dep in sorted(deps):
            if dep not in self.layers:
                raise UnknownDependency(f"unknown dependency layer {dep!r}")
        layer = Layer(self, name, legal_labels, deps)
        self.layers[name] = layer
        return layer

    def dependency_order(self) -> list[str]:
        """Layer names, each after every layer it depends on: declaration
        order, since a layer may depend only on layers declared before it."""
        return list(self.layers)

    def node(self, node_id: int) -> WhiteNode:
        return self.layers[self.node_layer(node_id)].white_nodes[node_id]

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

def to_json(board: Whiteboard) -> str:
    """Deterministic compact JSON image of the board (virtual endpoints
    omitted), the text one `json.dumps` of the whole document writes.

    Each layer's scalar fields, nodes, grey nodes and arcs are encoded in
    turn, and each list is dropped before the next is built, so the
    scratch memory is bounded by the largest section, not the document."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    parts = ['{"layers":[']
    for name in board.dependency_order():
        layer = board.layers[name]
        if len(parts) > 1:
            parts.append(",")
        parts += [
            encode({"name": layer.name,
                    "depends_on": sorted(layer.depends_on),
                    "legal_labels": (sorted(layer.legal_labels)
                                     if layer.legal_labels is not None else None),
                    "sealed": layer.sealed})[:-1],  # the object stays open
            ',"nodes":',
            encode([{"id": n.id, "begin": n.span.begin, "end": n.span.end,
                     "label": n.label, "score": n.score}
                    for n in sorted(layer.white_nodes.values(), key=lambda n: n.id)]),
            ',"grey":',
            encode([{"id": g.id, "rule": g.rule, "inputs": list(g.inputs),
                     "outputs": list(g.outputs), "score": g.score}
                    for g in sorted(layer.grey_nodes.values(), key=lambda g: g.id)]),
            ',"arcs":',
            encode([{"id": a.id, "origin": a.origin,
                     "extremity": a.extremity, "weight": a.weight}
                    for a in sorted(layer.arcs.values(), key=lambda a: a.id)]),
            "}",
        ]
    parts.append("]}")
    return "".join(parts)


def from_json(text: str) -> Whiteboard:
    """Rebuild a board from :func:`to_json` output.

    Every field must be present with its JSON type, and no other field
    may be. Every node, grey node and arc is then written again through
    its layer's writer under its exported id, so an import checks what a
    build checks: legal labels, one node per packing key, known nodes,
    grey nodes on their layer and the layers it depends on, and arcs that
    run forward in time. Ids must be unique, and no grey node may raise
    the exported score of a node it outputs to. Layers exported sealed
    are sealed again.
    """
    doc = json.loads(text)
    _check_fields(doc, "board")
    layer_docs = doc["layers"]
    uses = Counter(item["id"] for layer_doc in layer_docs
                   for kind in ("nodes", "grey", "arcs")
                   for item in layer_doc[kind])
    repeated = [i for i, count in uses.items() if count > 1]
    if repeated:
        raise InvalidExport(f"id {repeated[0]} is used more than once")
    board = Whiteboard()
    # the virtual endpoints and the seal's wiring arcs take ids above
    # every exported one
    board._next_id = max(uses, default=0) + 1
    layers = [board.declare_layer(d["name"], legal_labels=d["legal_labels"],
                                  depends_on=d["depends_on"])
              for d in layer_docs]
    fresh = board._next_id
    # a layer is declared after the layers it depends on, so their nodes
    # are written before its grey nodes name them
    for layer, layer_doc in zip(layers, layer_docs):
        for node_doc in layer_doc["nodes"]:
            board._next_id = node_id = node_doc["id"]
            got, _ = layer.add_white_node(
                TimeSpan(node_doc["begin"], node_doc["end"]),
                node_doc["label"], node_doc["score"])
            if got != node_id:
                raise InvalidExport(
                    f"node {node_id} repeats the packing key of node {got}")
        scores = {n["id"]: n["score"] for n in layer_doc["nodes"]}
        for grey_doc in layer_doc["grey"]:
            board._next_id = grey_doc["id"]
            layer.add_grey_node(grey_doc["rule"], grey_doc["inputs"],
                                grey_doc["outputs"], grey_doc["score"])
            for node_id in grey_doc["outputs"]:
                if layer.white_nodes[node_id].score != scores[node_id]:
                    raise InvalidExport(
                        f"grey node {grey_doc['id']} scores "
                        f"{grey_doc['score']!r}, above the {scores[node_id]!r} "
                        f"of node {node_id} it outputs to")
        for arc_doc in layer_doc["arcs"]:
            board._next_id = arc_doc["id"]
            layer.add_arc(arc_doc["origin"], arc_doc["extremity"],
                          arc_doc["weight"])
    board._next_id = fresh
    for layer, layer_doc in zip(layers, layer_docs):
        if layer_doc["sealed"]:
            layer.seal()
    return board


# The JSON type of every exported field, by the kind of object holding it.
# A one-item list is a list of that type, a tuple is a choice, and a list
# of objects is checked as the kind its field names.
_NUMBER = (int, float)
_FIELDS = {
    "board": {"layers": [dict]},
    "layers": {"name": str, "depends_on": [str], "legal_labels": ([str], None),
               "sealed": bool, "nodes": [dict], "grey": [dict], "arcs": [dict]},
    "nodes": {"id": int, "begin": int, "end": int, "label": str,
              "score": _NUMBER},
    "grey": {"id": int, "rule": str, "inputs": [int], "outputs": [int],
             "score": _NUMBER},
    "arcs": {"id": int, "origin": int, "extremity": int, "weight": _NUMBER},
}


def _has_type(value, spec) -> bool:
    if spec is None:
        return value is None
    if isinstance(spec, tuple):
        return any(_has_type(value, choice) for choice in spec)
    if isinstance(spec, list):
        return (isinstance(value, list)
                and all(_has_type(item, spec[0]) for item in value))
    if isinstance(value, bool):  # JSON's true is no number
        return spec is bool
    return isinstance(value, spec)


def _check_fields(doc, kind: str) -> None:
    """Raise `InvalidExport` unless `doc` is an object of this kind with
    every field present and of its type and no other field, the objects
    it holds included."""
    if not isinstance(doc, dict):
        raise InvalidExport(f"expected a {kind} object, got {doc!r}")
    fields = _FIELDS[kind]
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise InvalidExport(f"a {kind} object has the unknown field {unknown[0]!r}")
    for key, spec in fields.items():
        if key not in doc:
            raise InvalidExport(f"a {kind} object has no {key!r} field")
        if not _has_type(doc[key], spec):
            raise InvalidExport(f"field {key!r} has the wrong type: {doc[key]!r}")
        if spec == [dict]:
            for item in doc[key]:
                _check_fields(item, key)


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

        nodes = sorted((key_of[n.id], round(n.score, 9))
                       for n in lay.white_nodes.values())
        arcs = sorted((key_of[a.origin], key_of[a.extremity],
                       round(a.weight, 9)) for a in lay.arcs.values())
        greys = sorted((g.rule, tuple(global_key(i) for i in g.inputs),
                        tuple(global_key(o) for o in g.outputs),
                        round(g.score, 9))
                       for g in lay.grey_nodes.values())
        form.append((name, tuple(sorted(lay.depends_on)),
                     tuple(nodes), tuple(arcs), tuple(greys)))
    return tuple(form)


def boards_isomorphic(a: Whiteboard, b: Whiteboard) -> bool:
    """Structural equality up to identifier renaming."""
    return canonical_form(a) == canonical_form(b)
