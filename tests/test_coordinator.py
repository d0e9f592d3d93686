import random
import sys
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
from whiteboard.components import (
    IslandParser,
    MatrixSource,
    WordForWordTranslator,
    identity_component,
)
from whiteboard.coordinator import _Bound
from whiteboard.errors import LayerMismatch
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
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []
        self.coordinators: list[Coordinator] = []

    def __call__(self, name, component, incremental=False, sleep=SLEEP):
        """Serve `component`, one instance for every connection."""
        request_root = self.root / name / "request"
        thread = threading.Thread(
            target=run_manager, args=(lambda _input: component, request_root),
            kwargs={"incremental": incremental, "sleep_time": sleep,
                    "name": name, "stop_event": self.stop},
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
                    if conn.state == "open":
                        conn.close(timeout=5.0)
        finally:
            self.stop.set()
            for thread in self.threads:
                thread.join(timeout=5.0)


@pytest.fixture
def host(tmp_path):
    hosts = Hosts(tmp_path)
    yield hosts
    hosts.shutdown()


def params(imp, exp, sleep=SLEEP):
    return ConnectionParams(sleep, imp, exp)


def pump_until(coordinator, predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        coordinator.pump()
        if predicate():
            return
        time.sleep(SLEEP)
    raise AssertionError("pipeline did not reach the expected state")


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


def test_pump_without_pending_data_reports_zero(host):
    board = make_board()
    coordinator = host.coordinator(board)
    root = host("echo", identity_component)
    coordinator.register(ComponentBinding(
        "echo", root, ["phonemes"], "syntax", params("edge-v1", "edge-v1")))
    report = coordinator.pump()
    assert report.progress == 0


def run_pipeline(run_dir, matrix_file, grammar, dictionary, thresholds, sleep):
    """Build one utterance's board through the three components, each
    behind a manager thread, and pump until the coordinator settles."""
    board = make_board()
    hosts = Hosts(run_dir)
    coordinator = hosts.coordinator(board, thresholds)

    def bind(name, component, inputs, output, imp, exp, incremental=False):
        coordinator.register(ComponentBinding(
            name, hosts(name, component, incremental, sleep),
            inputs, output, params(imp, exp, sleep)))

    try:
        bind("source", MatrixSource(matrix_file, 3), [], "phonemes",
             "edge-v1", "edge-v1", incremental=True)
        bind("parser", IslandParser(grammar, thresholds), ["phonemes"],
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
            assert report.progress == 0 and coordinator.settled()
            time.sleep(sleep)
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
    # two polls per shipped utterance; the phrase utterances are longer
    # (about four pieces per word, one piece per poll), so their polls stay
    # short to keep the test quick
    runs = [(matrix_file, grammar, rng.uniform(0.003, 0.05))
            for matrix_file in (sorted(fixtures_dir.glob("*.mat"))
                                + spliced_utterances(fixtures_dir,
                                                     tmp_path / "spliced"))
            for _ in range(2)]
    runs += [(matrix_file, phrase_grammar, rng.uniform(0.003, 0.02))
             for matrix_file in phrase_files]
    phrase_ww_arcs = []
    for i, (matrix_file, grammar_, sleep) in enumerate(runs):
        board, status = run_pipeline(tmp_path / f"run-{i}", matrix_file,
                                     grammar_, dictionary, thresholds, sleep)
        reference = workload.build_board(matrix_file.read_text(), grammar_,
                                         dictionary)
        where = f"{matrix_file.name} at a {sleep:.4f}s poll"
        # every layer is written by the same functions either way: white
        # nodes, readings, grey nodes and arcs all agree
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
    # the rejected records wrote nothing, not even a reading of `own`
    assert len(ww.white_nodes[own].readings) == 1
    [(node_id, ashes)] = [(i, n) for i, n in ww.white_nodes.items() if i != own]
    assert ashes.readings[0].payload == {"children": [[0, 9, "hai"]]}
    [grey] = ww.grey_nodes.values()
    assert (grey.rule, grey.inputs, grey.outputs) == ("ashes<-hai", (word,),
                                                       (node_id,))
    assert not ww.arcs


def test_arc_records_skip_repeats_and_self_loops_and_drop_cycles(
        host, caplog):
    def source(records):
        return [wire.NodeRecord(1, 0, 3, "a", 0.5),
                wire.NodeRecord(2, 3, 6, "b", 0.5),
                wire.ArcRecord(10, 1, 2, 0.0),
                wire.ArcRecord(10, 1, 2, 0.0),   # verbatim repeat
                wire.ArcRecord(11, 1, 2, 0.3),   # same pair, new record id
                wire.ArcRecord(12, 2, 2, 0.0),   # self-loop
                wire.ArcRecord(13, 2, 1, 0.0)]   # would close a cycle

    board = make_board()
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "source", host("source", source),
        [], "phonemes", params("node-v1", "node-v1")))
    with caplog.at_level("WARNING", logger="whiteboard"):
        pump_until(coordinator, coordinator.settled)
    layer = board.layers["phonemes"]
    assert [(layer.white_nodes[a.origin].label,
             layer.white_nodes[a.extremity].label, a.weight)
            for a in layer.arcs.values()] == [("a", "b", 0.0)]
    dropped = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("dropped arc")]
    assert len(dropped) == 1
    assert coordinator.bound["source"].errors == []
    assert layer.seal().ok


def test_repeated_edge_record_packs_into_one_node(host):
    def source(records):
        return [wire.EdgeRecord(0, 3, "h", 0.5), wire.EdgeRecord(0, 3, "h", 0.5)]

    board = make_board()
    coordinator = host.coordinator(board)
    coordinator.register(ComponentBinding(
        "source", host("source", source),
        [], "phonemes", params("edge-v1", "edge-v1")))
    pump_until(coordinator, coordinator.settled)
    [node] = board.layers["phonemes"].white_nodes.values()
    assert len(node.readings) == 1
    assert coordinator.bound["source"].errors == []


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


def test_apply_filter_matches_brute_force(tmp_path):
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


def test_a_busy_in_box_retries_the_same_slice(tmp_path):
    class BusyOnce:
        """A connection whose in box is busy for the first deposit."""
        outstanding = 0
        busy = True

        def __init__(self):
            self.batches = []

        def try_collect(self):
            return None

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
                       incremental=True),
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
        if report.progress or not slow_conn.outstanding:
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
    conn.in_box.deposit(wire.serialize([wire.EdgeRecord(3, 6, "a", 0.5)],
                                       "edge-v1"), timeout=5.0)
    error = _close_connections(coordinator)
    assert error is not None
    assert "echo" in error and "1 records" in error


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
                        dictionary=tmp_path, out=tmp_path,
                        sleep_time=SLEEP, max_wall=0.3)
    try:
        error = _pump_loop(coordinator, {}, config)
    finally:
        release.set()
    assert error is not None
    assert "did not settle" in error
    assert "stuck has 1 outstanding batches" in error
