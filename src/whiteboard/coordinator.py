"""The coordinator: single owner of the whiteboard.

Components never see the board. Each pump round drains whatever their
managers have deposited, integrates the records into the bound output
layers, and then forwards the newly integrated, threshold-filtered slice
of every binding's input layers into its in box as plain wire records.

Board ids come from one counter, so a binding's slice is every node and
arc of its input layers above a cursor, the highest id already examined.
A threshold judges each node once, when it first appears: a node turned
away is never forwarded, even if packing later raises its score (as a
forwarded node's later rise is never re-sent), nor is an arc touching it.

Integration goes through one writer per record kind, the same functions
the in-process batch builders loop over: `grid.add_grid_node` for edge
records (packing, and deriving sequencing arcs), `chart.add_derivation`
for inactive-edge and node records, and `Layer.add_arc_once` for arc
records. So a repeated edge or arc record leaves the board as it was. A
node record's source ids must name nodes of the binding's input layers;
they become the derivation's children, as a translation's syntax node
does in `translate.translate_layer`.

Every mailbox operation in the pump is non-blocking: a busy manager makes
a binding wait until the next round, never the whole pipeline.

Managers end their reply to every batch with a `done` record, so each
connection knows how many of its batches are still outstanding. The
pipeline has settled when every source has been triggered, no batch is
outstanding and the last round had nothing left to forward.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path

from . import wire
from .board import Arc, Layer, TimeSpan, Whiteboard, WhiteNode, filter_slice
from .chart import add_derivation
from .errors import (
    BoxRemoved,
    LayerMismatch,
    ManagerUnavailable,
    ParseError,
    UnknownFormatCode,
    WhiteboardError,
)
from .grid import GridNode, Thresholds, add_grid_node
from .grid import grid_connected  # noqa: F401  (perfbench's probes patch this name)
from .manager import Connection, ConnectionParams, send_open
from .manager import request_connection  # noqa: F401  (perfbench's probes patch this name)

log = logging.getLogger(__name__)

# bound on batches drained from one out box per round, against livelock
MAX_COLLECTS_PER_ROUND = 100


@dataclass
class ComponentBinding:
    name: str
    request_root: Path
    input_layers: list[str]
    output_layer: str
    params: ConnectionParams = field(default_factory=ConnectionParams)
    # a node scoring below it when first forwarded is never sent, nor its arcs
    filter_threshold: float | None = None


@dataclass
class PumpReport:
    collected: int = 0
    deposited: int = 0
    errors: int = 0

    @property
    def progress(self) -> int:
        return self.collected + self.deposited


class _Bound:
    """Per-binding runtime state."""

    def __init__(self, binding: ComponentBinding, conn: Connection):
        self.binding = binding
        self.conn = conn
        self.errors: list[str] = []
        self.collected = 0
        self.deposited = 0
        self.triggered = False
        # highest board id examined; the nodes the threshold turned away
        self.cursor = 0
        self.rejected: set[int] = set()
        # maps from the connection's record id space onto board node ids
        self.node_of_record: dict[int, int] = {}

    def note(self, message: str):
        log.warning("binding %s: %s", self.binding.name, message)
        self.errors.append(message)


class Coordinator:
    def __init__(self, board: Whiteboard, thresholds: Thresholds | None = None):
        self.board = board
        self.thresholds = thresholds or Thresholds()
        self.bound: dict[str, _Bound] = {}
        self.rounds = 0
        # bindings whose records could not be forwarded in the last round
        self.backlog: list[str] = []

    # -- registration -----------------------------------------------------------

    def register(self, *bindings: ComponentBinding) -> None:
        """Open each binding's connection and activate it. Every open
        request is sent before any reply is awaited, so the managers set
        their connections up at once. Each output layer must declare every
        input layer among its dependencies.

        If a manager does not answer, or refuses, the bindings whose
        connections did open are still activated, and the first failure is
        raised once every reply has been awaited."""
        for binding in bindings:
            self._check(binding)
        openings = [(binding, send_open(binding.request_root, binding.params))
                    for binding in bindings]
        failure = None
        for binding, opening in openings:
            try:
                self.bound[binding.name] = _Bound(binding, opening.wait())
            except ManagerUnavailable as exc:
                failure = failure or exc
        if failure is not None:
            raise failure

    def _check(self, binding: ComponentBinding) -> None:
        if binding.output_layer not in self.board.layers:
            raise LayerMismatch(f"unknown output layer {binding.output_layer!r}")
        out_deps = self.board.layers[binding.output_layer].depends_on
        for name in binding.input_layers:
            if name not in self.board.layers:
                raise LayerMismatch(f"unknown input layer {name!r}")
            if name not in out_deps:
                raise LayerMismatch(
                    f"output layer {binding.output_layer!r} does not depend "
                    f"on input layer {name!r}")
        if binding.input_layers and binding.params.import_format not in (
                "edge-v1", "node-v1"):
            raise UnknownFormatCode(
                f"cannot encode layer slices as {binding.params.import_format}")

    def connections(self) -> dict[str, Connection]:
        return {name: b.conn for name, b in self.bound.items()}

    # -- one scheduling round ------------------------------------------------------

    def pump(self) -> PumpReport:
        report = PumpReport()
        for bound in self.bound.values():
            try:
                self._collect_from(bound, report)
            except (BoxRemoved, WhiteboardError) as exc:
                bound.note(f"collect failed: {exc}")
                report.errors += 1
        self.backlog = []
        for bound in self.bound.values():
            try:
                forwarded = self._deposit_to(bound, report)
            except (BoxRemoved, WhiteboardError) as exc:
                bound.note(f"deposit failed: {exc}")
                report.errors += 1
                forwarded = False
            if not forwarded:
                self.backlog.append(bound.binding.name)
        self.rounds += 1
        return report

    def _collect_from(self, bound: _Bound, report: PumpReport):
        layer = self.board.layers[bound.binding.output_layer]
        for _ in range(MAX_COLLECTS_PER_ROUND):
            try:
                records = bound.conn.try_collect()
            except ParseError as exc:
                bound.note(f"unparseable batch: {exc}")
                report.errors += 1
                continue
            if records is None:
                return
            for record in records:
                if isinstance(record, wire.ErrorRecord):
                    bound.note(f"component error: {record.message}")
                    report.errors += 1
                    continue
                try:
                    self._integrate(bound, record, layer)
                    bound.collected += 1
                    report.collected += 1
                except WhiteboardError as exc:
                    bound.note(f"record rejected: {exc}")
                    report.errors += 1

    def _integrate(self, bound: _Bound, record, layer: Layer):
        if isinstance(record, wire.EdgeRecord):
            add_grid_node(layer, GridNode(TimeSpan(record.begin, record.end),
                                          record.phoneme, record.score),
                          self.thresholds)
        elif isinstance(record, wire.InactiveEdgeRecord):
            if record.edge_id in bound.node_of_record:
                return
            children = []
            for child_id in record.children:
                node_id = bound.node_of_record.get(child_id)
                if node_id is None:
                    raise WhiteboardError(
                        f"edge {record.edge_id} references unknown child {child_id}")
                children.append(node_id)
            bound.node_of_record[record.edge_id] = add_derivation(
                layer, TimeSpan(record.begin, record.end), record.category,
                record.score, children)
        elif isinstance(record, wire.NodeRecord):
            if record.node_id in bound.node_of_record:
                return
            for source in record.sources:
                if self.board.node_layer(source) not in bound.binding.input_layers:
                    raise WhiteboardError(
                        f"node {record.node_id} names source {source} outside "
                        f"the input layers")
            bound.node_of_record[record.node_id] = add_derivation(
                layer, TimeSpan(record.begin, record.end), record.label,
                record.score, list(record.sources))
        elif isinstance(record, wire.ArcRecord):
            origin = bound.node_of_record.get(record.origin)
            extremity = bound.node_of_record.get(record.extremity)
            if origin is None or extremity is None:
                raise WhiteboardError(
                    f"arc {record.arc_id} references unknown node")
            layer.add_arc_once(origin, extremity, record.weight)
        else:
            raise WhiteboardError(
                f"unexpected record on out box: {type(record).__name__}")

    def _deposit_to(self, bound: _Bound, report: PumpReport) -> bool:
        """Forward what the binding has not seen yet. Returns False if
        something was left over because its in box was busy."""
        binding = bound.binding
        if not binding.input_layers:
            # a source component gets a single empty trigger batch
            if not bound.triggered and bound.conn.try_deposit([]):
                bound.triggered = True
            return bound.triggered
        nodes, arcs = self._new_slice(bound)
        cursor = max((item.id for item in (*nodes, *arcs)), default=bound.cursor)
        kept, _ = filter_slice(nodes, [], binding.filter_threshold)
        turned_away = {n.id for n in nodes}.difference(n.id for n in kept)
        rejected = bound.rejected | turned_away if turned_away else bound.rejected
        arcs = [a for a in arcs
                if a.origin not in rejected and a.extremity not in rejected]
        records = self._encode_slice(kept, arcs, binding.params.import_format)
        if records and not bound.conn.try_deposit(records):
            return False  # busy: the next round retries this same slice
        bound.cursor, bound.rejected = cursor, rejected
        bound.deposited += len(records)
        report.deposited += len(records)
        return True

    def _new_slice(self, bound: _Bound) -> tuple[list[WhiteNode], list[Arc]]:
        """The nodes and arcs of the input layers above the binding's cursor,
        in ascending id order. Ids grow in creation order, so only the
        newest end of each layer is walked."""
        nodes: list[WhiteNode] = []
        arcs: list[Arc] = []
        for name in bound.binding.input_layers:
            layer = self.board.layers[name]
            for items, into in ((layer.white_nodes, nodes), (layer.arcs, arcs)):
                into.extend(reversed(list(takewhile(
                    lambda item: item.id > bound.cursor,
                    reversed(items.values())))))
        return nodes, arcs

    @staticmethod
    def _encode_slice(nodes: list[WhiteNode], arcs: list[Arc],
                      import_format: str) -> list[wire.WireRecord]:
        if import_format == "edge-v1":
            return [wire.EdgeRecord(n.span.begin, n.span.end, n.label, n.score)
                    for n in nodes]
        records: list[wire.WireRecord] = [
            wire.NodeRecord(n.id, n.span.begin, n.span.end, n.label, n.score)
            for n in nodes]
        records.extend(wire.ArcRecord(a.id, a.origin, a.extremity, a.weight)
                       for a in arcs)
        return records

    # -- status and quiescence ---------------------------------------------------

    def status(self) -> dict:
        per_layer = {}
        for name, layer in self.board.layers.items():
            high_water = max((n.span.end for n in layer.white_nodes.values()),
                             default=0)
            per_layer[name] = {"nodes": len(layer.white_nodes),
                               "arcs": len(layer.arcs),
                               "high_water_frame": high_water}
        per_binding = {}
        for name, bound in self.bound.items():
            per_binding[name] = {"deposited": bound.deposited,
                                 "collected": bound.collected,
                                 "outstanding": bound.conn.outstanding,
                                 "done_frame": bound.conn.done_frame,
                                 "errors": list(bound.errors)}
        return {"settled": self.settled(), "rounds": self.rounds,
                "per_layer": per_layer, "per_binding": per_binding}

    def settled(self) -> bool:
        """True once the last round left nothing to forward (every source
        triggered, no busy in box) and every deposited batch has come back
        with its `done` record."""
        return self.rounds > 0 and not self.backlog and not any(
            bound.conn.outstanding for bound in self.bound.values())

    def unsettled(self) -> str:
        """What keeps the pipeline from settling, binding by binding."""
        parts = [f"{name} has {bound.conn.outstanding} outstanding batches"
                 for name, bound in self.bound.items() if bound.conn.outstanding]
        parts += [f"{name} has records left to forward" for name in self.backlog]
        return "; ".join(parts) or "nothing"
