"""The coordinator: single owner of the whiteboard.

Components never see the board. Each pump round collects what their
managers have written, integrates the records into the bound output
layers, and then forwards the newly integrated, threshold-filtered slice
of every binding's input layers into its connection as plain wire records.

A round pays only for what arrived. It reads at most one frame from each
connection: after a `wait`, from those the wait found readable, touching
no other; with no wait before it (the first round, or a step), from every
live one. A socket that still holds a frame stays readable, so the next
wait returns at once.

Board ids come from one counter, so a binding's slice is every node and
arc of its input layers above a cursor, the highest id already examined.
A binding whose input layers hold no id above its cursor is passed over
without building a slice: each layer's newest id is the last key of its
node and arc dicts. A threshold judges each node once, when it first
appears: a node turned away is never forwarded, even if packing later
raises its score (as a forwarded node's later rise is never re-sent), nor
is an arc touching it.

Integration goes through one writer per record kind, the same functions
the in-process batch builders loop over: `grid.add_grid_node` for edge
records (packing, and deriving sequencing arcs), `chart.add_derivation`
for inactive-edge and node records, and `Layer.add_arc_once` for arc
records. So a repeated edge or arc record leaves the board as it was. A
node record's source ids must name nodes of the binding's input layers;
they become the derivation's children, as a translation's syntax node
does in `translate.translate_layer`. Arcs run forward in time, so an arc
record whose extremity begins before its origin, or ends no later, is
refused by the board and noted as the binding's error, like any other
rejected record; the demo ends the utterance at the first round that
notes one.

Every connection operation in the pump is non-blocking: a busy manager
makes a binding wait until the next round, never the whole pipeline. A
batch that does not fit in a binding's connection leaves its tail there,
and the binding takes no new batch until a later round has written it.
Between rounds, `wait` blocks until a binding's connection is readable,
or writable while it holds a tail, so the next round starts as soon as
there is something to collect or room to write what the last round could
not. A manager that dies, stops or refuses a connection hangs it up,
whether or not it had taken it: the connection turns readable, and once
a round has read what came before, its read fails. The binding notes
that its manager hung up, and no later round or wait looks at that
connection again.

Managers end their reply to every batch with a `done` record, so each
connection knows how many of its batches are still outstanding. The
pipeline has settled when every source has been triggered, no batch is
outstanding and the last round had nothing left to forward. `status`
reports how far each binding trails what the sources have put on the
board, in frames, and the tail: the time from the round that collected
the sources' last `done` to the first round that left the pipeline
settled.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path

from . import wire
from .board import Arc, Layer, TimeSpan, Whiteboard, WhiteNode, filter_slice
from .chart import add_derivation
from .errors import (
    LayerMismatch,
    ManagerUnavailable,
    ParseError,
    PeerGone,
    UnknownFormatCode,
    WhiteboardError,
)
from .grid import GridNode, Thresholds, add_grid_node
from .grid import grid_connected  # noqa: F401  (perfbench's probes patch this name)
from .mailbox import wait_ready
from .manager import Connection, ConnectionParams, request_connection

log = logging.getLogger(__name__)


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


class _Bound:
    """Per-binding runtime state."""

    def __init__(self, binding: ComponentBinding, conn: Connection):
        self.binding = binding
        self.conn = conn
        self.errors: list[str] = []
        self.collected = 0
        self.deposited = 0
        self.triggered = False
        # its manager hung up the connection: nothing more will come
        self.gone = False
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
        # monotonic start of the round that collected the sources' last
        # `done`, and end of the first round that left the pipeline settled
        self.sources_done_at: float | None = None
        self.settled_at: float | None = None
        # what the last `wait` found ready, until a round takes it; None
        # when no wait came since the last round
        self._ready: list | None = None

    # -- registration -----------------------------------------------------------

    def register(self, *bindings: ComponentBinding) -> None:
        """Open each binding's connection and activate it. A connection is
        live once asked for, so no binding waits for its manager to set
        the connection up. Each output layer must declare every input
        layer among its dependencies.

        If a manager does not take the request, the bindings whose
        requests were taken are still activated, and the first failure is
        raised once every request has been sent. A manager that refuses a
        connection answers with an error record and hangs up, which the
        pump rounds note on the binding."""
        for binding in bindings:
            self._check(binding)
        failure = None
        for binding in bindings:
            try:
                self.bound[binding.name] = _Bound(binding, request_connection(
                    binding.request_root, binding.params))
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
        """One round: collect, then forward to every binding whose manager
        has not hung up. It reads at most one frame per connection: after a
        `wait`, from each connection the wait found readable; with no wait
        before it, from every live one."""
        start = time.monotonic()
        report = PumpReport()
        ready, self._ready = self._ready, None
        for bound in self.bound.values():
            if bound.gone or (ready is not None
                                 and bound.conn.channel not in ready):
                continue
            try:
                self._collect_from(bound, report)
            except WhiteboardError as exc:
                bound.note(f"collect failed: {exc}")
                report.errors += 1
        if self.sources_done_at is None and self._sources_done():
            self.sources_done_at = start
        self.backlog = []
        for bound in self.bound.values():
            if bound.gone:
                continue
            try:
                forwarded = self._deposit_to(bound, report)
            except WhiteboardError as exc:
                bound.note(f"deposit failed: {exc}")
                report.errors += 1
                forwarded = False
            if not forwarded:
                self.backlog.append(bound.binding.name)
        self.rounds += 1
        if self.settled_at is None and self.settled():
            self.settled_at = time.monotonic()
        return report

    def wait(self, timeout: float) -> bool:
        """Block until a binding's connection is readable, or writable
        while it holds a tail, or `timeout` seconds pass. Returns True if
        one was. The next round reads only the readable connections. A
        connection that hung up is readable for good, so it is left out."""
        live = [b.conn.channel for b in self.bound.values() if not b.gone]
        self._ready = wait_ready(live, [c for c in live if c.pending], timeout)
        return bool(self._ready)

    def _collect_from(self, bound: _Bound, report: PumpReport):
        """Read the binding's connection's next frame, if one has come, and
        integrate its records."""
        try:
            records = bound.conn.try_collect()
        except ParseError as exc:
            bound.note(f"unparseable batch: {exc}")
            report.errors += 1
            return
        except PeerGone:
            bound.gone = True
            bound.note("its manager hung up")
            report.errors += 1
            return
        if records is None:
            return
        layer = self.board.layers[bound.binding.output_layer]
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
                f"unexpected record on out channel: {type(record).__name__}")

    def _deposit_to(self, bound: _Bound, report: PumpReport) -> bool:
        """Forward what the binding has not seen yet. Returns False if
        something was left over because its connection was busy."""
        binding = bound.binding
        if not bound.conn.flush():
            return False  # the tail of an earlier batch goes first
        if not binding.input_layers:
            # a source component gets a single empty trigger batch
            if not bound.triggered and bound.conn.try_deposit([]):
                bound.triggered = True
            return bound.triggered
        cursor = self._newest_id(bound)
        if cursor <= bound.cursor:
            return True  # nothing new on its input layers
        nodes, arcs = self._new_slice(bound)
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

    def _newest_id(self, bound: _Bound) -> int:
        """The highest node or arc id on the binding's input layers. Ids
        grow in creation order, so it is the last key of a dict."""
        layers = self.board.layers
        return max(next(reversed(items), 0)
                   for name in bound.binding.input_layers
                   for items in (layers[name].white_nodes, layers[name].arcs))

    def _new_slice(self, bound: _Bound) -> tuple[list[WhiteNode], list[Arc]]:
        """The nodes and arcs (none for edge-v1, which has no arc record) of
        the input layers above the binding's cursor, in ascending id order.
        Ids grow in creation order, so only the newest end is walked."""
        with_arcs = bound.binding.params.import_format != "edge-v1"
        nodes: list[WhiteNode] = []
        arcs: list[Arc] = []
        for name in bound.binding.input_layers:
            layer = self.board.layers[name]
            for items, into in ((layer.white_nodes, nodes),
                                (layer.arcs if with_arcs else {}, arcs)):
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

    def _sources(self) -> list[_Bound]:
        return [b for b in self.bound.values() if not b.binding.input_layers]

    def _sources_done(self) -> bool:
        sources = self._sources()
        return bool(sources) and all(b.triggered and not b.conn.outstanding
                                     for b in sources)

    def status(self) -> dict:
        """Counts per layer and per binding. A binding's `frames_behind` is
        the highest end frame on the sources' output layers less its own
        `done_frame` (0 for a source); `tail_s` is None until the pipeline
        has settled after its sources finished."""
        per_layer = {}
        for name, layer in self.board.layers.items():
            high_water = max((n.span.end for n in layer.white_nodes.values()),
                             default=0)
            per_layer[name] = {"nodes": len(layer.white_nodes),
                               "arcs": len(layer.arcs),
                               "high_water_frame": high_water}
        source_frame = max((per_layer[b.binding.output_layer]["high_water_frame"]
                            for b in self._sources()), default=0)
        per_binding = {}
        for name, bound in self.bound.items():
            per_binding[name] = {
                "deposited": bound.deposited,
                "collected": bound.collected,
                "outstanding": bound.conn.outstanding,
                "done_frame": bound.conn.done_frame,
                "frames_behind": (max(0, source_frame - bound.conn.done_frame)
                                  if bound.binding.input_layers else 0),
                "errors": list(bound.errors)}
        tail_s = None
        if self.sources_done_at is not None and self.settled_at is not None:
            tail_s = self.settled_at - self.sources_done_at
        return {"settled": self.settled(), "rounds": self.rounds,
                "tail_s": tail_s, "per_layer": per_layer,
                "per_binding": per_binding}

    def settled(self) -> bool:
        """True once the last round left nothing to forward (every source
        triggered, no busy connection) and every deposited batch has come
        back with its `done` record."""
        return self.rounds > 0 and not self.backlog and not any(
            bound.conn.outstanding for bound in self.bound.values())

    def unsettled(self) -> str:
        """What keeps the pipeline from settling, binding by binding."""
        parts = [f"{name} has {bound.conn.outstanding} outstanding batches"
                 for name, bound in self.bound.items() if bound.conn.outstanding]
        parts += [f"{name} has records left to forward" for name in self.backlog]
        return "; ".join(parts) or "nothing"
