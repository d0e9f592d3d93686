"""Observation of the program from outside, by wrapping its public calls.

`Probe` replaces module and class attributes of the `whiteboard` package
with timing wrappers for the length of one run and puts the originals back
afterwards. Untraced, it keeps only what the end-to-end metrics need: the
start and end of each utterance and, per pump round, its timestamps, its
`PumpReport` and the `ww` node count. Traced, it also records one span
(id, name, start, end, parent, utterance, time in child spans) around each
layer boundary, plus counts, all kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import logging
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

from whiteboard import board, chart, components, coordinator, demo, grid
from whiteboard import translate, wire
from whiteboard.board import Layer
from whiteboard.coordinator import Coordinator
from whiteboard.mailbox import Mailbox
from whiteboard.manager import Connection

perf = time.perf_counter


class StopRun(Exception):
    """Ends the demo run between utterances once the measuring time is up."""


@dataclass
class Round:
    start: float
    end: float
    ww_nodes: int
    collected: int
    deposited: int
    errors: int


@dataclass
class Utterance:
    index: int
    start: float
    setup_from: float
    end: float | None = None
    board: object = None
    error: str | None = None
    rounds: list[Round] = field(default_factory=list)
    # wire batches the coordinator deposited, per binding, for the replay
    deposits: dict[str, list] = field(default_factory=dict)

    @property
    def first_ww(self) -> float | None:
        return next((r.end for r in self.rounds if r.ww_nodes), None)

    @property
    def last_ww(self) -> float | None:
        grew = [r.end for prev, r in zip([None, *self.rounds], self.rounds)
                if r.ww_nodes > (prev.ww_nodes if prev else 0)]
        return grew[-1] if grew else None


def rusage() -> tuple[float, float, float]:
    """(CPU seconds of this process and its reaped children, peak RSS of
    this process in MB, peak RSS of the largest reaped child in MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss / 1024, kids.ru_maxrss / 1024


class _LogCounter(logging.Handler):
    """Counts the program's warning and error log records by kind."""

    KINDS = (("breaking stale lock", "mailbox.stale_locks_broken"),
             ("dropped arc", "board.arcs_dropped"),
             ("utterance ", "demo.utterance_errors"))

    def __init__(self, probe: "Probe"):
        super().__init__(logging.WARNING)
        self.probe = probe

    def emit(self, record: logging.LogRecord) -> None:
        for prefix, name in self.KINDS:
            if str(record.msg).startswith(prefix):
                self.probe.count(name)
                if name == "demo.utterance_errors" and self.probe.current:
                    self.probe.current.error = record.getMessage()
                return


class _Span:
    __slots__ = ("probe", "name", "frame", "parent", "start")

    def __init__(self, probe: "Probe", name: str):
        self.probe = probe
        self.name = name

    def __enter__(self):
        stack = self.probe._stack
        self.parent = stack[-1][0] if stack else None
        self.frame = [next(self.probe._ids), 0.0]
        stack.append(self.frame)
        self.start = perf()

    def __exit__(self, *exc):
        end = perf()
        probe = self.probe
        probe._stack.pop()
        if probe._stack:
            probe._stack[-1][1] += end - self.start
        probe.spans.append((self.frame[0], self.name, self.start, end,
                            self.parent, probe.utterance_id(), self.frame[1]))
        return False


class Probe:
    def __init__(self, traced: bool, seconds: float):
        self.traced = traced
        self.seconds = seconds
        self.utterances: list[Utterance] = []
        self.current: Utterance | None = None
        self.run_start = 0.0
        self.last_end = 0.0
        self.usage_at_end = (0.0, 0.0, 0.0)
        # traced only: (id, name, start, end, parent id, utterance, child time)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # keyed by (utterance, name)
        self._stack: list[list] = []  # open spans: [id, time in children]
        self._ids = itertools.count()
        self.handoff_s: dict = {}  # per utterance: summed mailbox handoffs
        self.distinct_cells: dict = {}  # per utterance: cells fed to the parser
        self.final_edges: dict = {}  # per utterance: edges of the last parse
        self._patches: list[tuple] = []
        self._log = _LogCounter(self)

    # -- bookkeeping ---------------------------------------------------------

    def utterance_id(self) -> int | None:
        return self.current.index if self.current else None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.utterance_id(), name)] += n

    def begin_utterance(self) -> Utterance:
        now = perf()
        utt = Utterance(len(self.utterances), now, self.last_end or self.run_start)
        self.utterances.append(utt)
        self.current = utt
        return utt

    def end_utterance(self, board_=None) -> None:
        self.last_end = self.current.end = perf()
        self.current.board = board_
        self.usage_at_end = rusage()

    def completed(self) -> list[Utterance]:
        return [u for u in self.utterances if u.end is not None]

    def median_duration(self) -> float:
        done = sorted(u.end - u.start for u in self.completed())
        return done[len(done) // 2] if done else 0.0

    def time_left(self) -> bool:
        """True while one more utterance of median length fits."""
        return perf() - self.run_start + self.median_duration() < self.seconds

    def process_hook(self, role, proc) -> None:
        """demo_run's hook: refuse to start another utterance past the time."""
        if role == "source" and self.completed() and not self.time_left():
            raise StopRun()

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap owner.attr in a span; `after(result, *args)` may count."""
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def install(self) -> None:
        logging.getLogger("whiteboard").addHandler(self._log)
        self._install_boundaries()
        if self.traced:
            self._install_layers()

    def uninstall(self) -> None:
        logging.getLogger("whiteboard").removeHandler(self._log)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.current = None

    def _install_boundaries(self) -> None:
        probe = self

        def make_init(fn):
            def __init__(coord, *args, **kwargs):
                probe.begin_utterance()
                fn(coord, *args, **kwargs)
            return __init__

        def make_pump(fn):
            def pump(coord):
                start = perf()
                if probe.traced:
                    with probe.span("coordinator.pump"):
                        report = fn(coord)
                else:
                    report = fn(coord)
                probe.current.rounds.append(Round(
                    start, perf(), len(coord.board.layers["ww"].white_nodes),
                    report.collected, report.deposited, report.errors))
                return report
            return pump

        def make_to_json(fn):
            def to_json(board_, *args, **kwargs):
                if probe.traced:
                    with probe.span("board.to_json"):
                        text = fn(board_, *args, **kwargs)
                else:
                    text = fn(board_, *args, **kwargs)
                probe.end_utterance(board_)
                return text
            return to_json

        self._patch(Coordinator, "__init__", make_init)
        self._patch(Coordinator, "pump", make_pump)
        self._patch(demo, "to_json", make_to_json)

    def _install_layers(self) -> None:
        probe = self

        def packed(result, *args):
            probe.count("board.add_white_node_calls")
            probe.count("board.packed", bool(result[1]))

        def collected(result, *args):
            probe.count("mailbox.collect_calls")
            probe.count("mailbox.collect_empty", result is None)

        def deposited(result, *args):
            probe.count("mailbox.deposit_calls")
            probe.count("mailbox.deposit_busy", not result)

        def serialized(text, records, *args):
            probe.count("wire.bytes", len(text))
            probe.count("wire.records", len(records))

        def parsed(records, text, *args):
            probe.count("wire.bytes", len(text))
            probe.count("wire.records", len(records))

        def fed(chart_, cells, *args):
            probe.count("chart.cells_fed", len(cells))
            probe.distinct_cells.setdefault(probe.utterance_id(), set()).update(cells)

        def parsed_chart(result, chart_, *args):
            probe.count("chart.island_parse_calls")
            probe.final_edges[probe.utterance_id()] = len(chart_.edges)

        self._span(coordinator, "request_connection", "manager.open")
        self._span(Connection, "close", "manager.close")
        self._span(Mailbox, "try_deposit", "mailbox.try_deposit", deposited)
        self._span(wire, "serialize", "wire.serialize", serialized)
        self._span(wire, "parse", "wire.parse", parsed)
        self._span(Layer, "add_white_node", "board.add_white_node", packed)
        self._span(Layer, "add_arc", "board.add_arc")
        self._span(Layer, "seal", "board.seal")
        self._span(board, "to_json", "board.to_json")
        self._span(board, "from_json", "board.from_json")
        for owner in (grid, components):
            self._span(owner, "topk_matrices", "grid.topk")
        self._span(grid, "grid_to_lattice", "grid.to_lattice")
        for owner in (chart, components):
            self._span(owner, "chart_from_cells", "chart.from_cells", fed)
            self._span(owner, "island_parse", "chart.island_parse", parsed_chart)
        self._span(chart, "chart_to_lattice", "chart.to_lattice")
        self._span(translate, "translate_layer", "translate.translate_layer")

        def make_connected(fn):
            def grid_connected(*args):
                probe.count("grid.connected_calls")
                return fn(*args)
            return grid_connected

        for owner in (grid, coordinator):
            self._patch(owner, "grid_connected", make_connected)

        def make_collect(fn):
            def try_collect(box):
                try:
                    mtime = box.batch_path.stat().st_mtime
                except OSError:
                    mtime = None
                with probe.span("mailbox.try_collect"):
                    text = fn(box)
                collected(text)
                if text is not None and mtime is not None:
                    probe.count("mailbox.handoffs")
                    probe.handoff_s[probe.utterance_id()] = (
                        probe.handoff_s.get(probe.utterance_id(), 0.0)
                        + time.time() - mtime)
                return text
            return try_collect

        def make_deposit(fn):
            def try_deposit(conn, records):
                records = list(records)
                ok = fn(conn, records)
                if ok:
                    binding = conn.request_root.parent.name
                    probe.current.deposits.setdefault(binding, []).append(records)
                return ok
            return try_deposit

        self._patch(Mailbox, "try_collect", make_collect)
        self._patch(Connection, "try_deposit", make_deposit)

    # -- replay of the worker-side components ------------------------------------

    def replay(self, utt: Utterance, matrix_file, grammar, dictionary,
               thresholds, topk: int, beam: int) -> None:
        """Run the components in this process on the batches the
        coordinator deposited, so their time shows in the trace."""
        self.current = utt
        source = components.MatrixSource(matrix_file, topk)
        with self.span("components.source"):
            source([])
        parser = components.IslandParser(grammar, thresholds, beam)
        for batch in utt.deposits.get("parser", ()):
            with self.span("components.parser"):
                parser(batch)
        translator = components.WordForWordTranslator(
            dictionary, grammar.lexical_labels)
        for batch in utt.deposits.get("translator", ()):
            with self.span("components.translator"):
                translator(batch)
        self.current = None
