import fcntl
import random
import struct
import subprocess
import sys
import termios
import threading
import time
from pathlib import Path

import pytest

from whiteboard import (
    ComponentBinding,
    ConnectionParams,
    Coordinator,
    Thresholds,
    TimeSpan,
    Whiteboard,
    canonical_form,
    filter_slice,
    load_dictionary,
    load_grammar,
    run_manager,
    wire,
)
from whiteboard import manager
from whiteboard.components import IslandParser, MatrixSource, WordForWordTranslator
from whiteboard.coordinator import _Bound
from whiteboard.errors import (
    LayerMismatch,
    MailboxTimeout,
    ManagerUnavailable,
    UnknownFormatCode,
)
from whiteboard.mailbox import Mailbox
from conftest import worker_command
from oracles import identity_component, valid_lattice
from stopping import PipeStop
from utterances import spliced_utterances

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workload  # noqa: E402  (the benchmark's in-process build is the reference)

SLEEP = 0.005


class Hosts:
    """Manager threads serving under one directory, plus the coordinators
    talking to them. `shutdown` closes every connection still open, then
    stops the managers and joins their threads."""

    def __init__(self, root):
        self.root = root
        self.stop = PipeStop()
        self.threads: list[threading.Thread] = []
        self.coordinators: list[Coordinator] = []

    def __call__(self, name, component, pace=None, factory=None):
        """Serve `component`, one instance for every connection, or a
        fresh one per connection from `factory`, its replies paced by
        `pace`."""
        request_root = self.root / name / "request"
        thread = threading.Thread(
            target=run_manager,
            args=(factory or (lambda _input: component), request_root),
            kwargs={"pace": pace, "name": name, "stop": self.stop},
            daemon=True)
        thread.start()
        self.threads.append(thread)
        return request_root

    def coordinator(self, board, thresholds=None) -> Coordinator:
        coordinator = Coordinator(board, thresholds)
        self.coordinators.append(coordinator)
        return coordinator

    def shutdown(self):
        try:
            for coordinator in self.coordinators:
                for conn in coordinator.connections().values():
                    if conn.channel.fileno() != -1:
                        conn.close(timeout=5.0)
        finally:
            self.stop.join(*self.threads)


@pytest.fixture
def host(tmp_path):
    hosts = Hosts(tmp_path)
    yield hosts
    hosts.shutdown()


def params(imp, exp):
    return ConnectionParams(imp, exp)


def pump_until(coordinator, predicate, timeout=10.0):
    """Pump, waiting on the bindings' channels between rounds, until the
    deadline at the latest."""
    deadline = time.monotonic() + timeout
    while True:
        coordinator.pump()
        if predicate():
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise AssertionError("pipeline did not reach the expected state")
        coordinator.wait(remaining)


def make_board():
    board = Whiteboard()
    board.declare_layer("phonemes")
    board.declare_layer("syntax", depends_on={"phonemes"})
    board.declare_layer("ww", depends_on={"syntax"})
    return board


def test_register_checks_layer_dependencies(tmp_path):
    board = make_board()
    coordinator = Coordinator(board)
    with pytest.raises(LayerMismatch):
        coordinator.register(ComponentBinding(
            "bad", tmp_path / "x", ["ww"], "phonemes",
            params("edge-v1", "edge-v1")))
    with pytest.raises(LayerMismatch):
        coordinator.register(ComponentBinding(
            "bad", tmp_path / "x", ["nope"], "syntax",
            params("edge-v1", "edge-v1")))
    with pytest.raises(LayerMismatch, match="unknown output layer"):
        coordinator.register(ComponentBinding(
            "bad", tmp_path / "x", ["phonemes"], "nope",
            params("edge-v1", "edge-v1")))
    with pytest.raises(UnknownFormatCode, match="inactive-edge-v1"):
        coordinator.register(ComponentBinding(
            "bad", tmp_path / "x", ["phonemes"], "syntax",
            params("inactive-edge-v1", "edge-v1")))
    assert not coordinator.bound and not list(tmp_path.iterdir())


def test_register_activates_the_bindings_that_open_when_others_fail(
        host, tmp_path):
    """The failing binding comes first: a request that nobody takes stops
    no other opening. A refusal comes later, on the refused connection."""
    # a request box whose manager died: nobody listens on it
    (tmp_path / "dead").mkdir()
    Mailbox(tmp_path / "dead" / "request").open()._sock.close()

    def refuse(_input):
        raise ValueError("no component here")

    bindings = [
        ComponentBinding("dead", tmp_path / "dead" / "request", ["phonemes"],
                         "syntax", params("edge-v1", "node-v1")),
        ComponentBinding("refusing", host("refusing", None, factory=refuse),
                         ["phonemes"], "syntax", params("edge-v1", "node-v1")),
        ComponentBinding("live", host("live", identity_component),
                         ["syntax"], "ww", params("node-v1", "node-v1"))]
    coordinator = host.coordinator(make_board())
    start = time.monotonic()
    with pytest.raises(ManagerUnavailable, match="nobody listens"):
        coordinator.register(*bindings)
    assert time.monotonic() - start < 1.0  # not the open's 10 s timeout
    conns = coordinator.connections()
    assert list(conns) == ["refusing", "live"]
    pump_until(coordinator, lambda: coordinator.bound["refusing"].gone)
    assert coordinator.bound["refusing"].errors == [
        "component error: component-error_no_component_here",
        "its manager hung up"]
    # the hung-up connection stays readable: no later round or wait looks at it
    coordinator.pump()  # with no wait before it, a round reads every channel
    assert len(coordinator.bound["refusing"].errors) == 2
    assert not coordinator.wait(0)
    with pytest.raises(ManagerUnavailable, match="without acknowledging"):
        conns["refusing"].close(timeout=5.0)
    assert coordinator.bound["live"].errors == []


def test_pump_without_pending_data_reports_zero(host):
    board = make_board()
    coordinator = host.coordinator(board)
    root = host("echo", identity_component)
    coordinator.register(ComponentBinding(
        "echo", root, ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    report = coordinator.pump()
    assert report.collected + report.deposited == 0


def run_pipeline(run_dir, matrix_file, grammar, dictionary, thresholds, pace):
    """Build one utterance's board through the three components, each
    behind a manager thread, the source's paced by `pace`, and pump until
    the coordinator settles."""
    board = make_board()
    hosts = Hosts(run_dir)
    coordinator = hosts.coordinator(board, thresholds)

    def bind(name, component, inputs, output, imp, exp, pace=None):
        coordinator.register(ComponentBinding(
            name, hosts(name, component, pace), inputs, output,
            params(imp, exp)))

    try:
        bind("source", MatrixSource(matrix_file, 3), [], "phonemes",
             "edge-v1", "edge-v1", pace)
        bind("parser", IslandParser(grammar, thresholds, 16), ["phonemes"],
             "syntax", "edge-v1", "inactive-edge-v1")
        bind("translator",
             WordForWordTranslator(dictionary, grammar.lexical_labels),
             ["syntax"], "ww", "node-v1", "node-v1")

        pump_until(coordinator, lambda: board.layers["ww"].white_nodes)
        # monotone integration: pumping on never shrinks anything
        counts = [(len(layer.white_nodes), len(layer.arcs))
                  for layer in board.layers.values()]
        for _ in range(3):
            coordinator.pump()
        assert [(len(layer.white_nodes), len(layer.arcs))
                for layer in board.layers.values()] >= counts

        # quiescence: with the finite utterance consumed, the coordinator
        # settles, and pumping on gives zero-progress rounds that stay settled
        pump_until(coordinator, coordinator.settled)
        for _ in range(3):
            report = coordinator.pump()
            assert report.collected + report.deposited == 0
            assert coordinator.settled()
            time.sleep(pace)
        assert coordinator.status()["per_binding"]["parser"]["errors"] == []
        return board, coordinator.status()
    finally:
        hosts.shutdown()


def phrase_utterances(work, words_per_utterance=(3, 4, 5), seed=17):
    """Seeded utterances of a few words each from the benchmark's generator,
    with its phrase grammar, whose two-word rules give `ww` arcs."""
    files = []
    for words in words_per_utterance:
        [utterance], grammar_path, _ = workload.write_inputs(
            REPO, work / f"{words}-words", "long", seed, 1, words)
        files.append(utterance.path)
    return load_grammar(grammar_path.read_text()), files


def test_full_pipeline_in_process(tmp_path, fixtures_dir):
    grammar = load_grammar((fixtures_dir / "words.grammar").read_text())
    dictionary = load_dictionary((fixtures_dir / "words.dict").read_text())
    thresholds = Thresholds(2, 2)
    phrase_grammar, phrase_files = phrase_utterances(tmp_path / "phrase")
    rng = random.Random(29)
    # two paces per shipped utterance; the phrase utterances are longer
    # (about four pieces per word, one piece per pace), so their paces stay
    # short to keep the test quick
    runs = [(matrix_file, grammar, rng.uniform(0.003, 0.05))
            for matrix_file in (sorted(fixtures_dir.glob("*.mat"))
                                + spliced_utterances(fixtures_dir,
                                                     tmp_path / "spliced"))
            for _ in range(2)]
    runs += [(matrix_file, phrase_grammar, rng.uniform(0.003, 0.02))
             for matrix_file in phrase_files]
    phrase_ww_arcs = []
    for i, (matrix_file, grammar_, pace) in enumerate(runs):
        board, status = run_pipeline(tmp_path / f"run-{i}", matrix_file,
                                     grammar_, dictionary, thresholds, pace)
        reference = workload.build_board(matrix_file.read_text(), grammar_,
                                         dictionary)
        where = f"{matrix_file.name} at a {pace:.4f}s pace"
        # every layer is written by the same functions either way: white
        # nodes, grey nodes with their scores and arcs all agree
        assert canonical_form(board) == canonical_form(reference), where
        assert board.layers["ww"].white_nodes, where
        if grammar_ is phrase_grammar:
            phrase_ww_arcs.append(len(board.layers["ww"].arcs))

        if matrix_file.stem != "hai":
            continue
        ww = board.layers["ww"]
        labels = sorted(n.label for n in ww.white_nodes.values())
        assert labels == ["ashes", "the-lungs", "yes", "yes-sir"]
        spans = {(n.span.begin, n.span.end) for n in ww.white_nodes.values()}
        assert spans == {(0, 9)}
        # the phonemes used by the retained structure appear again at syntax
        syntax_labels = sorted(n.label for n in
                               board.layers["syntax"].white_nodes.values())
        assert syntax_labels == ["B", "a", "h", "hai", "i"]
        assert status["per_layer"]["ww"]["nodes"] == 4
    # the translator's arc mirroring is compared too
    assert max(phrase_ww_arcs) > 0, phrase_ww_arcs


def test_node_record_sources_must_be_input_layer_nodes(host):
    board = make_board()
    word, _ = board.layers["syntax"].add_white_node(TimeSpan(0, 9), "hai", 2.7)
    own, _ = board.layers["ww"].add_white_node(TimeSpan(0, 9), "yes", 2.7)

    def translator(records):
        return [wire.NodeRecord(1, 0, 9, "yes", 2.7, (10**6,)),  # unknown id
                wire.NodeRecord(2, 0, 9, "yes", 2.7, (word, own)),  # own layer
                wire.NodeRecord(3, 0, 9, "ashes", 2.7, (word,))]

    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "translator", host("translator", translator),
        ["syntax"], "ww", params("node-v1", "node-v1")))
    pump_until(coordinator, coordinator.settled)
    errors = coordinator.status()["per_binding"]["translator"]["errors"]
    assert len(errors) == 2 and all("record rejected" in e for e in errors)
    ww = board.layers["ww"]
    # the rejected records wrote nothing, not even a derivation of `own`
    [(node_id, ashes)] = [(i, n) for i, n in ww.white_nodes.items() if i != own]
    [grey] = ww.grey_nodes.values()
    assert (grey.rule, grey.inputs, grey.outputs, grey.score) == (
        "ashes<-hai", (word,), (node_id,), 2.7)
    assert not ww.arcs


def arc_source(*arcs):
    """A source component writing nodes 1 ([0,3] "a") and 2 ([3,6] "b")
    and then the given arc records."""
    def source(records):
        return [wire.NodeRecord(1, 0, 3, "a", 0.5),
                wire.NodeRecord(2, 3, 6, "b", 0.5), *arcs]
    return source


def test_arc_records_skip_repeats(host):
    source = arc_source(wire.ArcRecord(10, 1, 2, 0.0),
                        wire.ArcRecord(10, 1, 2, 0.0),   # verbatim repeat
                        wire.ArcRecord(11, 1, 2, 0.3))   # same pair, new id
    board = make_board()
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "source", host("source", source),
        [], "phonemes", params("node-v1", "node-v1")))
    pump_until(coordinator, coordinator.settled)
    layer = board.layers["phonemes"]
    assert [(layer.white_nodes[a.origin].label,
             layer.white_nodes[a.extremity].label, a.weight)
            for a in layer.arcs.values()] == [("a", "b", 0.0)]
    assert coordinator.bound["source"].errors == []
    layer.seal()
    assert valid_lattice(layer)


@pytest.mark.parametrize("origin, extremity", [(2, 2), (2, 1)],
                         ids=["self-loop", "reversed"])
def test_a_backward_arc_record_is_rejected(host, origin, extremity):
    source = arc_source(wire.ArcRecord(10, 1, 2, 0.0),
                        wire.ArcRecord(13, origin, extremity, 0.0))
    board = make_board()
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "source", host("source", source),
        [], "phonemes", params("node-v1", "node-v1")))
    pump_until(coordinator, coordinator.settled)
    bound = coordinator.bound["source"]
    node_of = bound.node_of_record
    spans = {1: "[0,3]", 2: "[3,6]"}
    assert bound.errors == [
        f"record rejected: arc {node_of[origin]}->{node_of[extremity]} does "
        f"not run forward in time: {spans[origin]} to {spans[extremity]}"]
    layer = board.layers["phonemes"]
    assert [(a.origin, a.extremity) for a in layer.arcs.values()] == [
        (node_of[1], node_of[2])]


def test_repeated_edge_record_packs_into_one_node(host):
    def source(records):
        return [wire.EdgeRecord(0, 3, "h", 0.5), wire.EdgeRecord(0, 3, "h", 0.5)]

    def build(repeat: bool):
        """The board of a source and two bindings, which send each of their
        records once more under the same id, scoring higher, if `repeat`."""
        def parser(records):
            return [wire.InactiveEdgeRecord(1, 0, 3, "NP", 0.5)] + repeat * [
                wire.InactiveEdgeRecord(1, 0, 3, "NP", 0.9)]

        def translator(records):
            return [wire.NodeRecord(1, 0, 3, "yes", 0.5)] + repeat * [
                wire.NodeRecord(1, 0, 3, "yes", 0.9)]

        board = make_board()
        coordinator = host.coordinator(board)
        coordinator.register(
            ComponentBinding("source", host(f"source-{repeat}", source),
                             [], "phonemes", params("edge-v1", "edge-v1")),
            ComponentBinding("parser", host(f"parser-{repeat}", parser),
                             ["phonemes"], "syntax",
                             params("edge-v1", "inactive-edge-v1")),
            ComponentBinding("translator", host(f"translator-{repeat}", translator),
                             ["syntax"], "ww", params("node-v1", "node-v1")))
        pump_until(coordinator, coordinator.settled)
        assert all(not bound.errors for bound in coordinator.bound.values())
        return board

    board = build(repeat=True)
    [node] = board.layers["phonemes"].white_nodes.values()
    assert node.score == 0.5
    # the higher scores the repeated records carried were dropped with them
    for name in ("syntax", "ww"):
        assert [n.score for n in board.layers[name].white_nodes.values()] == [0.5]
    # a repeated inactive-edge or node record leaves the board as it was
    assert canonical_form(board) == canonical_form(build(repeat=False))


def test_component_errors_surface_without_halting_others(host):
    def broken(records):
        raise RuntimeError("nope")

    board = make_board()
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "broken", host("broken", broken),
        [], "phonemes", params("edge-v1", "edge-v1")))
    root = host("echo", identity_component)
    coordinator.register(ComponentBinding(
        "echo", root, ["phonemes"], "syntax", params("edge-v1", "edge-v1")))

    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        coordinator.pump()
        if coordinator.bound["broken"].errors:
            break
        time.sleep(SLEEP)
    assert any("component-error" in e for e in coordinator.bound["broken"].errors)
    assert coordinator.bound["echo"].errors == []
    assert coordinator.status()["per_binding"]["broken"]["errors"]


@pytest.mark.parametrize("export, records, why", [
    ("inactive-edge-v1", [wire.InactiveEdgeRecord(1, 0, 3, "NP", 0.5, (99,))],
     "edge 1 references unknown child 99"),
    ("node-v1", [wire.NodeRecord(1, 0, 3, "a", 0.5), wire.ArcRecord(10, 1, 2, 0.0)],
     "arc 10 references unknown node"),
    ("node-v1", [wire.CloseReply()], "unexpected record on out channel: CloseReply")])
def test_a_record_the_board_cannot_place_is_rejected_and_noted(
        host, export, records, why):
    board = make_board()
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "source", host("source", lambda _records: records),
        [], "phonemes", params("edge-v1", export)))
    pump_until(coordinator, coordinator.settled)
    assert coordinator.bound["source"].errors == [f"record rejected: {why}"]
    # the records before the rejected one are on the board
    assert len(board.layers["phonemes"].white_nodes) == len(records) - 1


def test_an_unparseable_frame_is_noted_and_the_frames_after_it_are_read(
        tmp_path):
    """This test plays the manager, on a request box it listens on itself."""
    (tmp_path / "m").mkdir()
    box = Mailbox(tmp_path / "m" / "request").open()
    ends = []
    try:
        conn = manager.request_connection(box.path, params("edge-v1", "edge-v1"))
        served = box.try_collect()
        ends = [served, conn.channel]
        assert wire.parse(served.collect(timeout=5.0)) == [
            wire.OpenRequest("edge-v1", "edge-v1", None)]
        coordinator = Coordinator(make_board())
        coordinator.bound["played"] = _Bound(ComponentBinding(
            "played", box.path, [], "phonemes", params("edge-v1", "edge-v1")),
            conn)
        served.deposit("(0 3 h\n", timeout=5.0)
        served._sock.sendall(b"\x00\x00\x00\x02\xff\n")  # not UTF-8
        served.deposit(wire.serialize([wire.EdgeRecord(0, 3, "h", 0.5)],
                                      "edge-v1"), timeout=5.0)
        # one frame a round
        reports = [coordinator.pump() for _ in range(3)]
    finally:
        for end in ends:
            end.close()
        box.close()
    errors = coordinator.bound["played"].errors
    assert len(errors) == 2
    assert all(error.startswith("unparseable batch: ") for error in errors)
    assert "not UTF-8" in errors[1]
    assert [(report.errors, report.collected) for report in reports] == [
        (1, 0), (1, 0), (0, 1)]
    assert [n.label for n in coordinator.board.layers["phonemes"]
            .white_nodes.values()] == ["h"]


def test_a_frame_naming_an_unknown_format_code_is_noted_as_a_failed_collect(
        host):
    def opener(_records):  # a control record no reader of the frame knows
        return [wire.OpenRequest("bogus-v9", "edge-v1", None)]

    coordinator = host.coordinator(make_board())
    coordinator.register(ComponentBinding(
        "source", host("source", opener), [], "phonemes",
        params("edge-v1", "edge-v1")))
    pump_until(coordinator, lambda: coordinator.bound["source"].errors)
    assert coordinator.bound["source"].errors == [
        "collect failed: unknown format code: bogus-v9"]


def test_a_deposit_that_fails_is_noted_and_left_for_the_next_round(tmp_path):
    """This test listens on the request box itself, and serves nothing."""
    (tmp_path / "m").mkdir()
    box = Mailbox(tmp_path / "m" / "request").open()
    board = make_board()
    board.layers["phonemes"].add_white_node(TimeSpan(0, 3), "h", 0.9)
    coordinator = Coordinator(board)
    try:
        coordinator.register(ComponentBinding(
            "late", box.path, ["phonemes"], "syntax",
            params("edge-v1", "edge-v1")))
        conn = coordinator.bound["late"].conn
        conn.channel.hang_up(timeout=5.0)  # shut for writing
        report = coordinator.pump()
        with pytest.raises(MailboxTimeout):
            conn.close(timeout=0.1)
    finally:
        box.close()
    assert report.errors == 1
    assert coordinator.bound["late"].errors == [
        "deposit failed: the channel is closed for writing"]
    assert coordinator.backlog == ["late"]


def test_filter_slice_matches_brute_force(tmp_path):
    board = make_board()
    layer = board.layers["phonemes"]
    import random
    rng = random.Random(41)
    from whiteboard import TimeSpan
    for i in range(10):
        layer.add_white_node(TimeSpan(i, i + 1), f"p{i}", rng.uniform(0, 1))
    everything = (sorted(layer.white_nodes.values(), key=lambda n: n.id),
                  sorted(layer.arcs.values(), key=lambda a: a.id))
    nodes, arcs = filter_slice(*everything, None)
    assert len(nodes) == 10  # absent threshold is the identity
    nodes, arcs = filter_slice(*everything, float("inf"))
    assert nodes == []
    threshold = 0.5
    nodes, _ = filter_slice(*everything, threshold)
    expected = {n.id for n in layer.white_nodes.values()
                if n.score >= threshold}
    assert {n.id for n in nodes} == expected


def test_filter_threshold_gates_forwarded_slices(host):
    received = []

    def capture(records):
        received.extend(records)
        return []

    board = make_board()
    from whiteboard import TimeSpan
    layer = board.layers["phonemes"]
    layer.add_white_node(TimeSpan(0, 1), "lo", 0.1)
    layer.add_white_node(TimeSpan(1, 2), "hi", 0.9)
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "capture", host("capture", capture),
        ["phonemes"], "syntax", params("edge-v1", "edge-v1"),
        filter_threshold=0.5))
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not received:
        coordinator.pump()
        time.sleep(SLEEP)
    assert [r.phoneme for r in received] == ["hi"]


def test_threshold_forwards_an_arc_to_a_node_sent_in_an_earlier_round(host):
    received = []

    def capture(records):
        received.extend(records)
        return []

    board = make_board()
    layer = board.layers["phonemes"]
    a, _ = layer.add_white_node(TimeSpan(0, 3), "a", 0.5)
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "capture", host("capture", capture),
        ["phonemes"], "syntax", params("node-v1", "node-v1"),
        filter_threshold=0.0))  # keeps every node
    pump_until(coordinator, coordinator.settled)
    b, _ = layer.add_white_node(TimeSpan(3, 6), "b", 0.5)
    layer.add_arc(a, b)
    pump_until(coordinator, coordinator.settled)
    assert [type(r).__name__ for r in received] == [
        "NodeRecord", "NodeRecord", "ArcRecord"]
    assert (received[2].origin, received[2].extremity) == (a, b)


def test_threshold_judges_each_node_once(host):
    received = []

    def capture(records):
        received.extend(records)
        return []

    board = make_board()
    layer = board.layers["phonemes"]
    hi, _ = layer.add_white_node(TimeSpan(0, 3), "h", 0.9)
    lo, _ = layer.add_white_node(TimeSpan(3, 6), "a", 0.1)
    layer.add_arc(hi, lo)
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "capture", host("capture", capture),
        ["phonemes"], "syntax", params("node-v1", "node-v1"),
        filter_threshold=0.5))
    pump_until(coordinator, coordinator.settled)
    # packing raises the turned-away node above the threshold
    assert layer.add_white_node(TimeSpan(3, 6), "a", 0.8) == (lo, True)
    late, _ = layer.add_white_node(TimeSpan(6, 9), "i", 0.9)
    layer.add_arc(lo, late)
    layer.add_arc(hi, late)
    pump_until(coordinator, coordinator.settled)
    assert [r.node_id for r in received
            if isinstance(r, wire.NodeRecord)] == [hi, late]
    assert [(r.origin, r.extremity) for r in received
            if isinstance(r, wire.ArcRecord)] == [(hi, late)]
    assert coordinator.bound["capture"].rejected == {lo}


def test_a_busy_in_channel_retries_the_same_slice(tmp_path):
    class BusyOnce:
        """A connection whose in channel is busy for the first deposit."""
        outstanding = 0
        busy = True

        def __init__(self):
            self.batches = []

        def try_collect(self):
            return None

        def flush(self):
            return True

        def try_deposit(self, records):
            if self.busy:
                self.busy = False
                return False
            self.batches.append(list(records))
            return True

    board = make_board()
    layer = board.layers["phonemes"]
    layer.add_white_node(TimeSpan(0, 3), "h", 0.9)
    coordinator = Coordinator(board)
    conn = BusyOnce()
    coordinator.bound["busy"] = _Bound(ComponentBinding(
        "busy", tmp_path, ["phonemes"], "syntax",
        params("edge-v1", "edge-v1"), filter_threshold=0.5), conn)
    coordinator.pump()
    assert coordinator.backlog == ["busy"] and not coordinator.settled()
    layer.add_white_node(TimeSpan(3, 6), "a", 0.8)
    coordinator.pump()
    assert [[r.phoneme for r in batch] for batch in conn.batches] == [["h", "a"]]
    assert coordinator.settled()


def test_an_edge_binding_is_sent_no_arcs_and_its_cursor_passes_them(tmp_path):
    class Recording:
        """A connection that takes every batch."""
        outstanding = 0

        def __init__(self):
            self.batches = []

        def try_collect(self):
            return None

        def flush(self):
            return True

        def try_deposit(self, records):
            self.batches.append(list(records))
            return True

    board = make_board()
    layer = board.layers["phonemes"]
    h, _ = layer.add_white_node(TimeSpan(0, 3), "h", 0.9)
    a, _ = layer.add_white_node(TimeSpan(3, 6), "a", 0.8)
    coordinator = Coordinator(board)
    conn = Recording()
    bound = coordinator.bound["parser"] = _Bound(ComponentBinding(
        "parser", tmp_path, ["phonemes"], "syntax",
        params("edge-v1", "edge-v1")), conn)
    coordinator.pump()
    assert [[r.phoneme for r in batch] for batch in conn.batches] == [["h", "a"]]
    # a round whose only new items are arcs sends nothing, yet moves past them
    arc = layer.add_arc(h, a)
    coordinator.pump()
    assert len(conn.batches) == 1 and bound.cursor == arc
    # a later node goes alone
    layer.add_white_node(TimeSpan(6, 9), "i", 0.7)
    coordinator.pump()
    assert [[r.phoneme for r in batch] for batch in conn.batches] == [
        ["h", "a"], ["i"]]
    assert coordinator.settled()


def test_a_slice_larger_than_a_channel_holds_goes_over_whole(host):
    release = threading.Event()

    def held(records):  # holds the manager up while the big slice is written
        release.wait(timeout=10.0)
        return records

    board = make_board()
    phonemes = board.layers["phonemes"]
    phonemes.add_white_node(TimeSpan(0, 1), "h", 0.5)
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "echo", host("echo", held),
        ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    conn = coordinator.bound["echo"].conn
    try:
        coordinator.pump()
        # about 400 KB each way: the coordinator's batch and the echo's
        # reply both leave a tail that later rounds and cycles must write
        for begin in range(1, 20_000):
            phonemes.add_white_node(TimeSpan(begin, begin + 1), "h", 0.5)
        coordinator.pump()
        assert conn.channel.pending and conn.outstanding == 2
        assert coordinator.backlog == []  # the slice was taken, cursor moved
    finally:
        release.set()
    pump_until(coordinator, coordinator.settled)
    assert coordinator.bound["echo"].deposited == 20_000
    assert len(board.layers["syntax"].white_nodes) == 20_000


def test_status_counts_rounds_and_reports_settled():
    coordinator = Coordinator(make_board())
    assert coordinator.status()["settled"] is False  # no round yet
    for _ in range(3):
        coordinator.pump()
    status = coordinator.status()
    assert status["rounds"] == 3
    assert status["settled"] is True  # nothing bound, nothing in flight


def test_settled_waits_out_a_component_slower_than_the_old_quiet_window(
        host, fixtures_dir):
    produced = []

    def slow(records):
        time.sleep(0.3)  # the old rule quit after 30 silent polls, 150 ms
        out = [r for r in records if isinstance(r, wire.EdgeRecord)]
        produced.extend(out)
        return out

    board = make_board()
    coordinator = host.coordinator(board, Thresholds(2, 2))
    coordinator.register(ComponentBinding(
        "source", host("source",
                       MatrixSource(fixtures_dir / "hai.mat", 3),
                       pace=SLEEP),
        [], "phonemes", params("edge-v1", "edge-v1")))
    coordinator.register(ComponentBinding(
        "slow", host("slow", slow),
        ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    slow_conn = coordinator.bound["slow"].conn

    rounds_outstanding = 0
    quiet_since, longest_quiet = None, 0.0
    deadline = time.monotonic() + 20.0
    while not coordinator.settled():
        assert time.monotonic() < deadline, coordinator.unsettled()
        report = coordinator.pump()
        now = time.monotonic()
        if slow_conn.outstanding:
            rounds_outstanding += 1
            assert not coordinator.settled()
        if report.collected or report.deposited or not slow_conn.outstanding:
            quiet_since = None
        elif quiet_since is None:
            quiet_since = now
        longest_quiet = max(longest_quiet, now - (quiet_since or now))
        time.sleep(SLEEP)

    assert rounds_outstanding > 0
    # the old quiet window would have ended the run during this silence
    assert longest_quiet > 30 * SLEEP
    assert produced
    syntax = board.layers["syntax"].white_nodes.values()
    assert ({(n.span.begin, n.span.end, n.label) for n in syntax}
            == {(r.begin, r.end, r.phoneme) for r in produced})
    assert len(produced) == len(board.layers["phonemes"].white_nodes)


def test_status_shows_outstanding_batches_and_done_frame(host):
    from whiteboard import TimeSpan
    release = threading.Event()

    def gated(records):
        release.wait(timeout=10.0)
        return records

    board = make_board()
    board.layers["phonemes"].add_white_node(TimeSpan(0, 3), "h", 0.9)
    board.layers["phonemes"].add_white_node(TimeSpan(3, 7), "a", 0.8)
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "gated", host("gated", gated),
        ["phonemes"], "syntax", params("edge-v1", "edge-v1")))

    def lag(status):
        return (status["per_layer"]["phonemes"]["high_water_frame"]
                - status["per_binding"]["gated"]["done_frame"])

    coordinator.pump()
    status = coordinator.status()
    assert status["per_binding"]["gated"]["outstanding"] == 1
    assert status["per_binding"]["gated"]["done_frame"] == 0
    assert lag(status) == 7
    assert not coordinator.settled()

    release.set()
    pump_until(coordinator, coordinator.settled)
    status = coordinator.status()
    assert status["per_binding"]["gated"]["outstanding"] == 0
    assert status["per_binding"]["gated"]["done_frame"] == 7
    assert lag(status) == 0


def test_status_shows_frames_behind_the_source_and_the_tail(host, fixtures_dir):
    release = threading.Event()

    def gated(records):
        release.wait(timeout=10.0)
        return [r for r in records if isinstance(r, wire.EdgeRecord)]

    board = make_board()
    coordinator = host.coordinator(board, Thresholds(2, 2))
    coordinator.register(
        ComponentBinding("source", host("source", MatrixSource(
            fixtures_dir / "hai.mat", 3), pace=SLEEP),
            [], "phonemes", params("edge-v1", "edge-v1")),
        ComponentBinding("gated", host("gated", gated),
                         ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    source = coordinator.bound["source"].conn
    held = 0.2
    try:
        # behind while the source still streams, not only once it is done
        pump_until(coordinator, lambda: board.layers["phonemes"].white_nodes)
        status = coordinator.status()
        assert source.outstanding == 1
        assert status["per_binding"]["source"]["frames_behind"] == 0
        assert status["per_binding"]["gated"]["frames_behind"] == (
            status["per_layer"]["phonemes"]["high_water_frame"]) > 0
        pump_until(coordinator, lambda: source.outstanding == 0)
        status = coordinator.status()
        assert source.done_frame == 9
        assert status["per_binding"]["source"]["frames_behind"] == 0
        assert status["per_binding"]["gated"]["frames_behind"] == 9
        assert status["tail_s"] is None  # not settled yet
        time.sleep(held)
    finally:
        release.set()
    pump_until(coordinator, coordinator.settled)
    status = coordinator.status()
    assert status["per_binding"]["gated"]["frames_behind"] == 0
    assert held <= status["tail_s"] < held + 5.0
    tail = status["tail_s"]
    coordinator.pump()
    assert coordinator.status()["tail_s"] == tail  # the first settling counts


def test_a_channel_is_its_own_doorbell_until_a_round_has_read_it(host):
    board = make_board()
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "echo", host("echo", identity_component),
        ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    pump_until(coordinator, coordinator.settled)
    assert not coordinator.wait(0)
    board.layers["phonemes"].add_white_node(TimeSpan(0, 3), "h", 0.9)
    coordinator.pump()
    start = time.monotonic()
    assert coordinator.wait(5.0)  # the echo's frame wakes it
    assert time.monotonic() - start < 1.0
    assert coordinator.wait(0)  # still readable: nothing has read it yet
    coordinator.pump()
    assert coordinator.settled() and not coordinator.wait(0)
    assert [n.label for n in board.layers["syntax"].white_nodes.values()] == ["h"]


def test_results_handed_over_on_close_after_settling_fail_the_run(host):
    from whiteboard import TimeSpan
    from whiteboard.demo import _close_connections

    board = make_board()
    board.layers["phonemes"].add_white_node(TimeSpan(0, 3), "h", 0.9)
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "echo", host("echo", identity_component),
        ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    pump_until(coordinator, coordinator.settled)
    # a batch slipped past the coordinator's accounting: its reply is
    # still in flight when the connections close
    conn = coordinator.bound["echo"].conn
    conn.channel.deposit(wire.serialize([wire.EdgeRecord(3, 6, "a", 0.5)],
                                    "edge-v1"), timeout=5.0)
    error = _close_connections(coordinator)
    assert error is not None
    assert "echo" in error and "1 records" in error


def test_closing_reports_a_dead_manager_and_still_closes_the_others(
        host, tmp_path):
    from whiteboard.demo import _close_connections

    root = tmp_path / "parser" / "request"
    worker = subprocess.Popen(worker_command("parser", root),
                              stdin=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        coordinator = host.coordinator(make_board())
        coordinator.register(
            ComponentBinding("parser", root, ["phonemes"], "syntax",
                             params("edge-v1", "inactive-edge-v1")),
            ComponentBinding("echo", host("echo", identity_component),
                             ["syntax"], "ww", params("node-v1", "node-v1")))
        pump_until(coordinator, coordinator.settled)
        worker.kill()
        worker.wait(timeout=10)
        # the dead manager hung up without `(closed)`: its close fails at once
        error = _close_connections(coordinator)
    finally:
        worker.stdin.close()
        if worker.poll() is None:
            worker.kill()
            worker.wait(timeout=10)
    assert error is not None and "closing parser" in error
    assert "echo" not in error
    assert all(conn.channel.fileno() == -1
               for conn in coordinator.connections().values())


def test_closing_reports_a_manager_that_outlasts_the_close(host):
    from whiteboard import TimeSpan
    from whiteboard.demo import _close_connections
    entered, release = threading.Event(), threading.Event()

    def held(records):  # holds its manager past the close's timeout
        entered.set()
        release.wait(timeout=10.0)
        return records

    board = make_board()
    board.layers["phonemes"].add_white_node(TimeSpan(0, 3), "h", 0.9)
    coordinator = host.coordinator(board)
    coordinator.register(
        ComponentBinding("echo", host("echo", held),
                         ["phonemes"], "syntax", params("edge-v1", "edge-v1")),
        ComponentBinding("live", host("live", identity_component),
                         ["syntax"], "ww", params("node-v1", "node-v1")))
    try:
        coordinator.pump()
        assert entered.wait(timeout=5.0)
        error = _close_connections(coordinator, timeout=0.2)
    finally:
        release.set()
    echo = coordinator.bound["echo"]
    assert error == (f"closing echo: no close acknowledgment from the manager "
                     f"at {echo.binding.request_root}")
    assert echo.conn.channel.fileno() == -1
    # the live binding's manager acknowledged its close: nothing reported
    assert coordinator.bound["live"].conn.channel.fileno() == -1


def test_pump_loop_names_the_binding_still_outstanding_at_max_wall(
        host, tmp_path):
    from whiteboard import TimeSpan
    from whiteboard.demo import DemoConfig, _pump_loop
    release = threading.Event()

    def stuck(records):
        release.wait(timeout=10.0)
        return records

    board = make_board()
    board.layers["phonemes"].add_white_node(TimeSpan(0, 3), "h", 0.9)
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "stuck", host("stuck", stuck),
        ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    config = DemoConfig(matrices=tmp_path, grammar=tmp_path,
                        dictionary=tmp_path, out=tmp_path, max_wall=0.3)
    try:
        error = _pump_loop(coordinator, config)
    finally:
        release.set()
    assert error is not None
    assert "did not settle" in error
    assert "stuck has 1 outstanding batches" in error


def test_a_component_error_ends_the_pump_loop_at_once(host, tmp_path):
    from whiteboard.demo import DemoConfig, _close_connections, _pump_loop

    def source(_records):  # six pieces, half a second apart
        return [wire.EdgeRecord(i, i + 1, "h", 0.5) for i in range(6)]

    def broken(records):
        raise RuntimeError("every batch fails")

    coordinator = host.coordinator(make_board())
    coordinator.register(
        ComponentBinding("source", host("source", source, pace=0.5),
                         [], "phonemes", params("edge-v1", "edge-v1")),
        ComponentBinding("broken", host("broken", broken),
                         ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    config = DemoConfig(matrices=tmp_path, grammar=tmp_path,
                        dictionary=tmp_path, out=tmp_path, max_wall=60.0)
    start = time.monotonic()
    error = _pump_loop(coordinator, config)
    elapsed = time.monotonic() - start
    _close_connections(coordinator, timeout=0.0)  # the source paces on
    # not pumped on until the source's last piece, 2.5 s after its first
    assert elapsed < 1.0
    assert error == ("binding broken noted 1 errors, the first: component "
                     "error: component-error_every_batch_fails")


def test_a_manager_killed_while_idle_fails_the_pump_loop_at_once(
        host, tmp_path):
    from whiteboard.demo import (
        DemoConfig,
        _close_connections,
        _dead_managers,
        _pump_loop,
    )
    release = threading.Event()

    def stuck(records):  # holds its batch, so the pipeline cannot settle
        release.wait(timeout=10.0)
        return records

    root = tmp_path / "parser" / "request"
    worker = subprocess.Popen(worker_command("parser", root),
                              stdin=subprocess.PIPE, stderr=subprocess.DEVNULL)
    board = make_board()
    board.layers["phonemes"].add_white_node(TimeSpan(0, 3), "h", 0.9)
    coordinator = host.coordinator(board)
    killed = []

    def kill():
        killed.append(time.monotonic())
        worker.kill()

    # nothing reaches syntax while the stuck binding holds its batch, so
    # the parser's connection stays idle until its manager is killed
    timer = threading.Timer(0.3, kill)
    try:
        coordinator.register(
            ComponentBinding("stuck", host("stuck", stuck),
                             ["phonemes"], "syntax", params("edge-v1", "edge-v1")),
            ComponentBinding("parser", root, ["syntax"], "ww",
                             params("edge-v1", "inactive-edge-v1")))
        config = DemoConfig(matrices=tmp_path, grammar=tmp_path,
                            dictionary=tmp_path, out=tmp_path, max_wall=10.0)
        timer.start()
        error = _pump_loop(coordinator, config)
        returned = time.monotonic()
        died = _dead_managers(coordinator, {"parser": worker},
                              time.monotonic() + 10.0)
    finally:
        timer.cancel()
        release.set()
        worker.stdin.close()
        if worker.poll() is None:
            worker.kill()
        worker.wait(timeout=10)
        _close_connections(coordinator)
    # the hang-up keeps the connection readable, so no wait times out:
    # the round that reads it ends the loop
    assert error == "binding parser noted 1 errors, the first: its manager hung up"
    assert returned - killed[0] < 1.0
    assert died == "manager process died: parser"
    assert coordinator.bound["parser"].errors == [
        "its manager hung up", "manager process died"]


def test_a_refusing_manager_fails_the_pump_loop_at_once(tmp_path):
    from whiteboard.demo import DemoConfig, _pump_loop
    root = tmp_path / "source" / "request"
    # the source's factory raises: the connection names no matrix file
    worker = subprocess.Popen(worker_command("source", root, sleep_time=SLEEP),
                              stdin=subprocess.PIPE, stderr=subprocess.DEVNULL)
    coordinator = Coordinator(make_board())
    try:
        coordinator.register(ComponentBinding(
            "source", root, [], "phonemes", params("edge-v1", "edge-v1")))
        config = DemoConfig(matrices=tmp_path, grammar=tmp_path,
                            dictionary=tmp_path, out=tmp_path, max_wall=60.0)
        start = time.monotonic()
        error = _pump_loop(coordinator, config)
        assert time.monotonic() - start < 1.0
        assert worker.poll() is None  # it refused, and serves on
        with pytest.raises(ManagerUnavailable, match="without acknowledging"):
            coordinator.bound["source"].conn.close(timeout=5.0)
    finally:
        worker.stdin.close()
        worker.kill()
        worker.wait(timeout=10)
    assert error == ("binding source noted 1 errors, the first: component "
                     "error: component-error_the_source_needs_a_matrix_file_"
                     "as_its_input")
    assert coordinator.bound["source"].conn.channel.fileno() == -1


def test_a_manager_that_hangs_up_mid_utterance_ends_the_pump_loop_at_once(
        tmp_path):
    from whiteboard.demo import DemoConfig, _pump_loop

    def source(_records):  # six pieces, one pace apart
        return [wire.EdgeRecord(i, i + 1, "h", 0.5) for i in range(6)]

    stop = PipeStop()
    root = tmp_path / "source" / "request"
    thread = threading.Thread(
        target=run_manager, args=(lambda _input: source, root),
        kwargs={"pace": 5.0, "name": "source", "stop": stop},
        daemon=True)
    thread.start()
    coordinator = Coordinator(make_board())
    stopped = []

    def stop_manager():
        stopped.append(time.monotonic())
        stop.set()

    timer = threading.Timer(0.3, stop_manager)
    try:
        coordinator.register(ComponentBinding(
            "source", root, [], "phonemes", params("edge-v1", "edge-v1")))
        config = DemoConfig(matrices=tmp_path, grammar=tmp_path,
                            dictionary=tmp_path, out=tmp_path, max_wall=60.0)
        timer.start()
        error = _pump_loop(coordinator, config)
        returned = time.monotonic()
        with pytest.raises(ManagerUnavailable):
            coordinator.bound["source"].conn.close(timeout=5.0)
    finally:
        timer.cancel()
        stop.join(thread)
    assert error == "binding source noted 1 errors, the first: its manager hung up"
    assert returned - stopped[0] < 1.0
    assert len(coordinator.board.layers["phonemes"].white_nodes) == 1


def test_a_hang_up_by_a_manager_process_not_reaped_yet_is_its_death(tmp_path):
    from whiteboard.demo import _dead_managers

    class Dying:
        """A process that has closed its channels and is not reaped yet."""
        returncode = None

        def poll(self):
            return self.returncode

        def wait(self, timeout=None):
            self.returncode = -9
            return self.returncode

    coordinator = Coordinator(make_board())
    bound = coordinator.bound["parser"] = _Bound(ComponentBinding(
        "parser", tmp_path, [], "phonemes"), None)
    bound.gone = True
    bound.note("its manager hung up")
    assert _dead_managers(coordinator, {"parser": Dying()},
                          time.monotonic() + 60.0) == "manager process died: parser"
    assert bound.errors[-1] == "manager process died"


def test_a_binding_not_hung_up_on_is_not_waited_for(tmp_path):
    from whiteboard.demo import _dead_managers

    class Refusing:
        """A process that lives on, having refused a connection."""
        def poll(self):
            return None

        def wait(self, timeout=None):
            raise AssertionError("a refusing manager is not waited for")

    coordinator = Coordinator(make_board())
    bound = coordinator.bound["source"] = _Bound(ComponentBinding(
        "source", tmp_path, [], "phonemes"), None)
    # the round that read its error record ended the utterance before
    # the hang-up behind it could be read
    bound.note("component error: component-error_no_input")
    assert _dead_managers(coordinator, {"source": Refusing()},
                          time.monotonic() + 60.0) is None
    assert bound.errors == ["component error: component-error_no_input"]


def test_a_round_notes_a_manager_gone_before_it_took_the_open(tmp_path):
    root = tmp_path / "source" / "request"
    root.parent.mkdir()
    # the test listens on the box as a manager that takes nothing would
    box = Mailbox(root).open()
    coordinator = Coordinator(make_board())
    coordinator.register(ComponentBinding(
        "source", root, [], "phonemes", params("edge-v1", "edge-v1")))
    assert not coordinator.wait(0.01)
    assert coordinator.pump().errors == 0  # the box is still listened on
    box.close()  # the manager goes, the open untaken
    start = time.monotonic()
    assert coordinator.wait(5.0)  # its going wakes the wait
    assert time.monotonic() - start < 1.0
    assert coordinator.pump().errors == 1
    bound = coordinator.bound["source"]
    assert bound.gone
    assert bound.errors == ["its manager hung up"]
    with pytest.raises(ManagerUnavailable):
        bound.conn.close(timeout=5.0)


def unread(channel) -> int:
    """The bytes waiting in a connection, which its end has not read yet."""
    return struct.unpack("i", fcntl.ioctl(channel.fileno(), termios.FIONREAD,
                                          bytes(4)))[0]


def test_a_round_reads_one_frame_per_connection_with_or_without_a_wait(host):
    board = Whiteboard()
    board.declare_layer("phonemes")
    for name in "ab":
        board.declare_layer(name, depends_on={"phonemes"})
    coordinator = host.coordinator(board)
    coordinator.register(*[ComponentBinding(
        name, host(name, identity_component, pace=SLEEP),
        ["phonemes"], name, params("edge-v1", "edge-v1")) for name in "ab"])
    edges = [wire.EdgeRecord(0, end, "h", 0.5) for end in (1, 2, 3)]
    for edge in edges:
        board.layers["phonemes"].add_white_node(
            TimeSpan(edge.begin, edge.end), edge.phoneme, edge.score)
    coordinator.pump()  # each echo answers its batch in three pieces
    pieces = [edges[:1], edges[1:2], [edges[2], wire.DoneRecord(3)]]
    size = sum(4 + len(wire.serialize(piece, "edge-v1").encode())
               for piece in pieces)
    outs = [coordinator.bound[name].conn.channel for name in "ab"]
    deadline = time.monotonic() + 10.0
    while any(unread(out) < size for out in outs):
        assert time.monotonic() < deadline, "the pieces did not arrive"
        time.sleep(SLEEP)

    def nodes():
        return [len(board.layers[name].white_nodes) for name in "ab"]

    assert coordinator.wait(0)
    coordinator.pump()
    assert nodes() == [1, 1]  # one frame from each ready channel
    coordinator.pump()  # no wait came before it: one from every live one
    assert nodes() == [2, 2]
    coordinator.pump()
    assert nodes() == [3, 3]
    assert coordinator.settled()
