"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured numbers (run with -s or -rA to see them)."""

import hashlib
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from whiteboard import (
    GridNode,
    Thresholds,
    TimeSpan,
    Whiteboard,
    boards_isomorphic,
    chart_from_cells,
    chart_to_lattice,
    from_json,
    grid_connected,
    island_parse,
    load_grammar,
    topk_matrices,
    wire,
)
from whiteboard import coordinator
from whiteboard.demo import DemoConfig, demo_run
from whiteboard.grid import PhonemeMatrix
from whiteboard.mailbox import Mailbox
from whiteboard.manager import partition_by_end
from conftest import ACCEPTANCE_LINES
from oracles import (
    closure_oracle,
    connected_oracle,
    dfs_paths,
    enumerate_paths,
    forward_pair,
    random_grammar,
    valid_lattice,
)

HERE = Path(__file__).parent
FIXTURES = HERE.parent / "src" / "whiteboard" / "fixtures"


def ok(n, message):
    line = f"ACCEPTANCE {n}: PASS — {message}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def test_01_connectivity_predicate_oracle():
    rng = random.Random(101)
    start = time.monotonic()
    agree = 0
    for _ in range(10_000):
        b1, b2 = rng.randint(0, 40), rng.randint(0, 40)
        n = GridNode(TimeSpan(b1, b1 + rng.randint(0, 10)), "n", 0.0)
        m = GridNode(TimeSpan(b2, b2 + rng.randint(0, 10)), "m", 0.0)
        th = Thresholds(rng.randint(0, 5), rng.randint(0, 5))
        got = grid_connected(n, m, th)
        expected = connected_oracle(n.span.begin, n.span.end,
                                    m.span.begin, m.span.end,
                                    th.max_gap, th.max_overlap)
        assert got == expected
        agree += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(1, f"10000/{agree} predicate agreements in {elapsed:.2f}s")


def test_02_lattice_invariants_and_path_oracle():
    rng = random.Random(202)
    start = time.monotonic()
    for trial in range(1_000):
        board = Whiteboard()
        layer = board.declare_layer("l")
        ids = []
        for k in range(rng.randint(1, 12)):
            b = rng.randint(0, 15)
            node_id, _ = layer.add_white_node(
                TimeSpan(b, b + rng.randint(0, 3)), f"L{k}",
                round(rng.uniform(-1, 1), 3))
            ids.append(node_id)
        for _ in range(rng.randint(0, 2 * len(ids))):
            pair = forward_pair(rng, layer, ids)
            if pair is not None:
                layer.add_arc(*pair, round(rng.uniform(-0.5, 0.5), 3))
        layer.seal()
        assert valid_lattice(layer)  # independent oracle over the sealed graph
        got = sorted((p.labels, round(p.score, 6))
                     for p in enumerate_paths(layer))
        expected = sorted((labels, round(score, 6))
                          for labels, score in dfs_paths(layer))
        assert got == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(2, f"1000 random layers sealed and enumerated in {elapsed:.2f}s")


def test_03_packing_uniqueness_and_two_way_ambiguity():
    rng = random.Random(303)
    for _ in range(200):
        board = Whiteboard()
        layer = board.declare_layer("l")
        for _ in range(rng.randint(1, 40)):
            b = rng.randint(0, 8)
            layer.add_white_node(TimeSpan(b, b + rng.randint(0, 4)),
                                 rng.choice("abc"), rng.uniform(0, 1))
        nodes = list(layer.white_nodes.values())
        for i, n in enumerate(nodes):
            for m in nodes[i + 1:]:
                same = (n.label == m.label and n.span.end == m.span.end
                        and n.span.length == m.span.length)
                assert not same, "two white nodes share a packing key"
    # same span and label reached through two rules: one node, two
    # rule-instance connectors, each with the score of its derivation
    cells = [(0, 3, "a", 0.4), (3, 6, "b", 0.4), (0, 6, "c", 0.7)]
    grammar = load_grammar("NP -> a b\nNP -> c\n")
    chart = chart_from_cells(cells, Thresholds(0, 0))
    derived = island_parse(chart, grammar, Thresholds(0, 0), beam=None)
    board = Whiteboard()
    syn = board.declare_layer("syntax")
    chart_to_lattice(derived, syn)
    np_nodes = [n for n in syn.white_nodes.values() if n.label == "NP"]
    assert len(np_nodes) == 1
    scores = sorted(round(g.score, 9) for g in syn.grey_nodes.values()
                    if g.outputs == (np_nodes[0].id,))
    assert len(syn.grey_nodes) == len(scores) == 2
    assert np_nodes[0].score == max(scores)
    ok(3, "packing keys unique over 200 random sequences; "
          "two-way ambiguity packs into 1 node / 2 connectors scoring "
          f"{scores[0]:g} and {scores[1]:g}")


def test_04_parser_matches_exhaustive_closure():
    rng = random.Random(404)
    start = time.monotonic()
    for _ in range(200):
        terminals = ["a", "b", "c", "d"][:rng.randint(2, 4)]
        rules = random_grammar(rng, terminals, max_rules=6)
        grammar = load_grammar("".join(
            f"{lhs} -> {' '.join(rhs)}\n" for lhs, rhs in rules))
        cells = []
        seen = set()
        for _ in range(rng.randint(1, 8)):
            b = rng.randint(0, 10)
            key = (b, b + rng.randint(1, 4), rng.choice(terminals))
            if key in seen:
                continue
            seen.add(key)
            cells.append((*key, round(rng.uniform(0, 1), 3)))
        th = Thresholds(rng.choice([0, 1, 2]), rng.choice([0, 1, 2]))
        chart = chart_from_cells(cells, th)
        got = {(e.category, e.span.begin, e.span.end)
               for e in island_parse(chart, grammar, th, beam=None)}
        expected = closure_oracle({(p, b, e) for b, e, p, _ in cells},
                                  rules, th.max_gap, th.max_overlap)
        assert got == expected
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok(4, f"200 random parses equal the bottom-up closure in {elapsed:.2f}s")


def test_05_topk_matches_per_cell_sort():
    from oracles import per_cell_topk
    rng = random.Random(505)
    for _ in range(100):
        matrices = []
        frames = rng.randint(4, 12)
        for i in range(rng.randint(1, 6)):
            cells = {}
            for _ in range(rng.randint(0, 10)):
                b = rng.randint(0, frames - 1)
                cells[(b, rng.randint(b, frames))] = round(rng.uniform(0, 1), 3)
            matrices.append(PhonemeMatrix(f"p{i}", cells, frames))
        ranked = topk_matrices(matrices, 3)
        assert {r.rank: r.cells for r in ranked} == per_cell_topk(matrices, 3)
    ok(5, "100 random matrix sets match the exhaustive per-cell sort at k=3")


def test_06_mailbox_exactly_once_across_processes(tmp_path):
    """Four connections carry frames from this process's writer threads to
    one consumer process, which reads them all in one loop."""
    n_channels, n_batches = 4, 1_000
    box = tmp_path / "stress" / "request"
    box.parent.mkdir()
    out_json = tmp_path / "consumer.json"
    consumer = subprocess.Popen(
        [sys.executable, str(HERE / "_stress_consumer.py"), str(box),
         str(n_channels), str(n_batches), str(out_json)],
        stdout=subprocess.PIPE, text=True)
    start = time.monotonic()

    def produce(conn: int, channel):
        rng = random.Random(606 + conn)
        for seq in range(n_batches):
            # now and then a batch larger than a connection holds, written
            # in parts
            size = 12_000 if rng.random() < 0.01 else rng.randint(0, 4)
            data = [wire.EdgeRecord(rng.randint(0, 99), rng.randint(0, 99),
                                    f"c{conn}", round(rng.uniform(0, 1), 3))
                    for _ in range(size)]
            digest = hashlib.sha256(
                wire.serialize(data, "edge-v1").encode("utf-8")).hexdigest()[:16]
            batch = data + [wire.EdgeRecord(seq, 0, "x" + digest, 0.0)]
            channel.deposit(wire.serialize(batch, "edge-v1"), timeout=120.0)

    try:
        assert consumer.stdout.readline() == "ready\n"
        # made one after another, so the consumer takes them in this order
        channels = [Mailbox(box).try_deposit() for _ in range(n_channels)]
        try:
            producers = [threading.Thread(target=produce, args=(c, channel))
                         for c, channel in enumerate(channels)]
            for t in producers:
                t.start()
            for t in producers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in producers)
        finally:
            for channel in channels:
                channel.close()
        assert consumer.wait(timeout=120) == 0
    finally:
        if consumer.poll() is None:
            consumer.kill()
        consumer.wait(timeout=10)
        consumer.stdout.close()
    elapsed = time.monotonic() - start
    results = json.loads(out_json.read_text(encoding="utf-8"))
    for report in results:
        assert report["checksum_failures"] == 0, "torn batch observed"
        assert report["seqs"] == list(range(n_batches)), \
            "loss, duplication or reordering observed"
    assert elapsed < 60.0
    ok(6, f"{n_channels} connections x {n_batches} frames to one consumer "
          f"process, exactly-once, untorn and in order, in {elapsed:.1f}s")


def test_07_incremental_delivery_reproduces_batches():
    rng = random.Random(707)
    for _ in range(100):
        batch = []
        for i in range(rng.randint(0, 30)):
            b = rng.randint(0, 20)
            kind = rng.random()
            if kind < 0.6:
                batch.append(wire.EdgeRecord(b, b + rng.randint(0, 5),
                                             "p", rng.uniform(0, 1)))
            else:
                batch.append(wire.NodeRecord(i, b, b + rng.randint(0, 5),
                                             "w", rng.uniform(0, 1)))
        pieces = partition_by_end(batch)
        flattened = [r for piece in pieces for r in piece]
        assert sorted(map(repr, flattened)) == sorted(map(repr, batch))
        piece_ends = [max(r.end for r in piece) for piece in pieces]
        assert piece_ends == sorted(piece_ends)
        for piece in pieces:
            assert len({r.end for r in piece}) == 1
    ok(7, "100 random batches partition into end-ordered pieces that "
          "concatenate back exactly")


def _run_demo_cli(matrices: Path, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "whiteboard", "demo", "run",
         "--matrices", str(matrices),
         "--grammar", str(FIXTURES / "words.grammar"),
         "--dict", str(FIXTURES / "words.dict"),
         "--out", str(out), "--export", "json"],
        capture_output=True, text=True, timeout=60)


def test_08_end_to_end_demo_on_hai(tmp_path):
    matrices = tmp_path / "utterances"
    matrices.mkdir()
    shutil.copy(FIXTURES / "hai.mat", matrices / "hai.mat")
    exports = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        start = time.monotonic()
        proc = _run_demo_cli(matrices, out)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 10.0
        exports.append(out.read_text(encoding="utf-8"))
    doc = json.loads(exports[0])
    [ww] = [layer for layer in doc["layers"] if layer["name"] == "ww"]
    assert sorted(n["label"] for n in ww["nodes"]) == [
        "ashes", "the-lungs", "yes", "yes-sir"]
    assert {(n["begin"], n["end"]) for n in ww["nodes"]} == {(0, 9)}
    assert boards_isomorphic(from_json(exports[0]), from_json(exports[1]))
    ok(8, "hai demo yields exactly yes/yes-sir/the-lungs/ashes over the "
          "source span, deterministically, under 10s per run")


def test_09_killing_the_parser_fails_fast_not_hung(tmp_path, monkeypatch):
    sleep_time = 0.05
    config = DemoConfig(
        matrices=FIXTURES / "hai.mat",
        grammar=FIXTURES / "words.grammar",
        dictionary=FIXTURES / "words.dict",
        out=tmp_path / "out.json",
        sleep_time=sleep_time,
        max_wall=30.0,
    )
    spawned = {}
    kill_time = {}
    asked = threading.Event()  # the parser's connection was made
    connect = coordinator.request_connection

    def request_connection(request_root, params):
        conn = connect(request_root, params)
        if request_root.parent.name == "parser":
            asked.set()
        return conn

    monkeypatch.setattr(coordinator, "request_connection", request_connection)

    def hook(role, proc):
        spawned[role] = proc
        if len(spawned) == 3:
            # once the parser's connection is made, the source still
            # has its 9 pieces to release, one pace apart, so a
            # kill two periods later lands before the utterance can settle
            def assassin():
                if asked.wait(timeout=15.0):
                    time.sleep(2 * sleep_time)
                kill_time["t"] = time.monotonic()
                spawned["parser"].kill()
            threading.Thread(target=assassin, daemon=True).start()

    start = time.monotonic()
    result = demo_run(config, process_hook=hook)
    finished = time.monotonic()
    assert finished - start < 30.0, "coordinator hung"
    assert result.exit_code == 1
    [utterance] = result.utterances
    assert not utterance.ok
    parser_errors = utterance.status["per_binding"].get("parser", {}).get(
        "errors", [])
    assert parser_errors or "parser" in (utterance.error or "")
    if "t" in kill_time:
        detection = finished - kill_time["t"]
        assert detection < 30 * sleep_time + 1.0
        ok(9, f"parser kill detected and reported in {detection:.2f}s "
              f"(bound {30 * sleep_time:.1f}s + teardown)")
    else:
        ok(9, "parser died before mid-run kill; failure still reported fast")


def test_10_wire_roundtrip_on_random_records():
    rng = random.Random(1010)
    token_chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."

    def token():
        return "".join(rng.choice(token_chars)
                       for _ in range(rng.randint(1, 12)))

    def score():
        return rng.choice([
            rng.uniform(-1e6, 1e6),
            float(rng.randint(-10, 10)),
            rng.random() * 10 ** rng.randint(-12, 12),
        ])

    def ids():
        return tuple(rng.randint(0, 10**6)
                     for _ in range(rng.randint(0, 6)))

    count = 0
    for _ in range(2_500):
        records = [
            ("edge-v1", wire.EdgeRecord(rng.randint(0, 10**6),
                                        rng.randint(0, 10**6), token(), score())),
            ("node-v1", wire.NodeRecord(rng.randint(0, 10**6),
                                        rng.randint(0, 10**6),
                                        rng.randint(0, 10**6), token(), score(),
                                        ids())),
            ("node-v1", wire.ArcRecord(rng.randint(0, 10**6),
                                       rng.randint(0, 10**6),
                                       rng.randint(0, 10**6), score())),
            ("inactive-edge-v1", wire.InactiveEdgeRecord(
                rng.randint(0, 10**6), rng.randint(0, 10**6),
                rng.randint(0, 10**6), token(), score(), ids())),
        ]
        for fmt, record in records:
            # every manager reply ends with a done record, legal in any format
            batch = [record, wire.DoneRecord(rng.randint(0, 10**6))]
            assert wire.parse(wire.serialize(batch, fmt), fmt) == batch
            count += len(batch)
    assert count == 20_000
    ok(10, f"{count} random records of every format code, each batch "
           f"ending in a done record, round-tripped")
