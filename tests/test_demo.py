"""A demo run serves all of its utterances through one trio of manager
processes, with fresh connections, components and boards per utterance."""

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from whiteboard import (
    Coordinator,
    canonical_form,
    cli,
    coordinator,
    demo,
    from_json,
    load_dictionary,
    load_grammar,
    workers,
)
from whiteboard.components import MatrixSource, WordForWordTranslator
from whiteboard.demo import ROLES, DemoConfig, _run_utterance, _stop_workers, demo_run
from whiteboard.mailbox import Mailbox
from whiteboard.manager import run_manager

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workload  # noqa: E402  (the benchmark's in-process build is the reference)
from stopping import PipeStop  # noqa: E402
from utterances import spliced_utterances  # noqa: E402


def spawned_workers(monkeypatch) -> list:
    """Each worker the demo spawns, as (role, process)."""
    spawned = []
    spawn = demo._spawn_worker

    def recording_spawn(role, *args):
        spawned.append((role, spawn(role, *args)))
        return spawned[-1][1]

    monkeypatch.setattr(demo, "_spawn_worker", recording_spawn)
    return spawned


def test_one_trio_serves_every_utterance_of_a_run(tmp_path, fixtures_dir,
                                                  monkeypatch):
    matrices = tmp_path / "mat"
    matrices.mkdir()
    for fixture in sorted(fixtures_dir.glob("*.mat")):
        shutil.copy(fixture, matrices / fixture.name)
    for words in (3, 4, 5):
        [utterance], grammar_path, dict_path = workload.write_inputs(
            REPO, tmp_path / f"{words}-words", "long", 23, 1, words)
        shutil.copy(utterance.path, matrices / f"phrase-{words}.mat")

    spawned = spawned_workers(monkeypatch)
    left = []  # what the mailbox root holds when demo_run removes it
    rmtree = shutil.rmtree

    def removing(root, **kwargs):
        left.extend(sorted(str(path.relative_to(root)) for path in root.rglob("*")))
        rmtree(root, **kwargs)

    monkeypatch.setattr(demo.shutil, "rmtree", removing)
    hooked = defaultdict(list)
    out = tmp_path / "boards"
    result = demo_run(DemoConfig(matrices=matrices, grammar=grammar_path,
                                 dictionary=dict_path, out=out, sleep_time=0.01),
                      process_hook=lambda role, proc: hooked[role].append(proc))

    assert result.exit_code == 0, [u.error for u in result.utterances]
    names = ["hai", "iie", "mizu", "phrase-3", "phrase-4", "phrase-5"]
    assert [u.name for u in result.utterances] == names
    assert sorted(role for role, _ in spawned) == sorted(demo.ROLES)
    for role in demo.ROLES:
        assert len(hooked[role]) == len(names)
        assert all(proc is hooked[role][0] for proc in hooked[role])
    # stopped with the run, each manager removing its box on the way out
    assert [proc.returncode for _, proc in spawned] == [0, 0, 0]
    assert result.stop_error is None
    assert left == sorted(demo.ROLES)
    # a parser or translator id carried over from the previous utterance
    # would lose or misplace records on the next board
    grammar = load_grammar(grammar_path.read_text())
    dictionary = load_dictionary(dict_path.read_text())
    phrase_ww_arcs = 0
    for name in names:
        board = from_json((out / f"{name}.json").read_text())
        reference = workload.build_board((matrices / f"{name}.mat").read_text(),
                                         grammar, dictionary)
        assert canonical_form(board) == canonical_form(reference), name
        if name.startswith("phrase"):
            phrase_ww_arcs += len(board.layers["ww"].arcs)
    assert phrase_ww_arcs > 0


def test_a_worker_lost_between_utterances_fails_the_next_one_at_once(
        tmp_path, fixtures_dir):
    hooks = defaultdict(int)

    def hook(role, proc):
        hooks[role] += 1
        if role == "parser" and hooks[role] == 2:
            proc.kill()
            proc.wait()

    start = time.monotonic()
    result = demo_run(DemoConfig(matrices=fixtures_dir,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards", sleep_time=0.01),
                      process_hook=hook)
    elapsed = time.monotonic() - start
    # opening a connection to the dead parser would wait out its 10 s timeout
    assert elapsed < 5.0
    assert result.exit_code == 1
    first, second = result.utterances
    assert (first.name, first.ok) == ("hai", True)
    assert (second.name, second.error) == ("iie", "manager process died: parser")


def test_the_demo_waits_on_events_until_its_deadline(tmp_path, fixtures_dir,
                                                    monkeypatch):
    waits = []
    wait = Coordinator.wait

    def recorded(coordinator_, timeout):
        ready = wait(coordinator_, timeout)
        waits.append((timeout, ready))
        return ready

    monkeypatch.setattr(Coordinator, "wait", recorded)
    config = DemoConfig(matrices=fixtures_dir / "hai.mat",
                        grammar=fixtures_dir / "words.grammar",
                        dictionary=fixtures_dir / "words.dict",
                        out=tmp_path / "out.json")
    assert demo_run(config).exit_code == 0
    assert waits
    # only the source's pace is timed: every wait ends on an event
    assert all(ready for _, ready in waits)
    assert all(timeout > config.sleep_time for timeout, _ in waits)


@pytest.mark.parametrize("role, foreign", [
    (["parser", "--request-box", "b", "--grammar", "g"], ["--sleep", "0.05"]),
    (["source", "--request-box", "b"], ["--max-gap", "1"])])
def test_a_worker_role_refuses_another_roles_flag(role, foreign):
    parser = workers.build_arg_parser()
    assert parser.parse_args(role).role == role[0]
    with pytest.raises(SystemExit) as exited:
        parser.parse_args(role + foreign)
    assert exited.value.code == 2


@pytest.mark.parametrize("directory, name", [("two words", "hai.mat"),
                                             ("plain", "hai(1).mat")])
def test_a_matrix_path_that_is_not_a_wire_token_is_a_config_error(
        tmp_path, fixtures_dir, directory, name):
    matrices = tmp_path / directory
    matrices.mkdir()
    shutil.copy(fixtures_dir / "hai.mat", matrices / name)
    result = demo_run(DemoConfig(matrices=matrices,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards"))
    assert result.exit_code == 2
    assert str(matrices / name) in result.config_error
    assert result.utterances == []


FAILING_WORKER = Path(__file__).parent / "_failing_worker.py"


def spawn_faulty_translator(monkeypatch, fault):
    """Make the demo spawn its translator as a failing worker with `fault`."""
    spawn = demo._spawn_worker

    def spawn_failing_translator(role, request_root, config):
        if role != "translator":
            return spawn(role, request_root, config)
        popen = subprocess.Popen
        with monkeypatch.context() as patch:
            # the same arguments, to the worker whose component misbehaves
            patch.setattr(subprocess, "Popen", lambda cmd, **kwargs: popen(
                [sys.executable, str(FAILING_WORKER), fault, *cmd[3:]], **kwargs))
            return spawn(role, request_root, config)

    monkeypatch.setattr(demo, "_spawn_worker", spawn_failing_translator)


def test_a_component_error_fails_the_utterance_even_with_ww_nodes(
        tmp_path, fixtures_dir, monkeypatch):
    spawn_faulty_translator(monkeypatch, "second-batch")
    # two words, so ww keeps what the translator's other batches gave
    matrix, _, _ = spliced_utterances(fixtures_dir, tmp_path / "spliced")
    assert matrix.name == "0-iie-mizu.mat"
    result = demo_run(DemoConfig(matrices=matrix,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards", sleep_time=0.01))
    [utterance] = result.utterances
    assert result.exit_code == 1
    assert utterance.board.layers["ww"].white_nodes  # not an empty ww
    assert "binding translator noted 1 errors" in utterance.error
    assert "second_batch_refused" in utterance.error


def test_a_component_arc_that_runs_backward_fails_the_utterance(
        tmp_path, fixtures_dir, monkeypatch):
    spawn_faulty_translator(monkeypatch, "same-span-arc")
    # hai has four meanings, all on the span of the syntax node
    result = demo_run(DemoConfig(matrices=fixtures_dir / "hai.mat",
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards", sleep_time=0.01))
    [utterance] = result.utterances
    assert result.exit_code == 1
    assert "binding translator noted 1 errors" in utterance.error
    assert re.search(r"record rejected: arc \d+->\d+ does not run forward "
                     r"in time: \[0,9\] to \[0,9\]", utterance.error)


def test_a_dictionary_word_that_is_not_a_wire_token_is_a_config_error(
        tmp_path, fixtures_dir):
    dictionary = tmp_path / "words.dict"
    dictionary.write_text((fixtures_dir / "words.dict").read_text().replace(
        "cold-water", "cold(water"))
    result = demo_run(DemoConfig(matrices=fixtures_dir,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=dictionary, out=tmp_path / "boards"))
    assert result.exit_code == 2
    assert "cold(water" in result.config_error
    assert result.utterances == []


def test_an_utterance_whose_alphabet_misses_a_terminal_is_a_config_error(
        tmp_path, fixtures_dir, monkeypatch):
    matrices = tmp_path / "mat"
    matrices.mkdir()
    shutil.copy(fixtures_dir / "hai.mat", matrices / "a-hai.mat")
    (matrices / "b-no-e.mat").write_text("(0 3 h 0.9)\n(3 6 a 0.95)\n(6 9 i 0.85)\n")
    loads = []
    load = demo.load_grammar
    monkeypatch.setattr(demo, "load_grammar",
                        lambda *args: loads.append(args) or load(*args))
    result = demo_run(DemoConfig(matrices=matrices,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards", sleep_time=0.01))
    assert result.exit_code == 2
    assert result.config_error == "b-no-e.mat: rule R2: unknown terminal 'e'"
    assert [(u.name, u.ok) for u in result.utterances] == [("a-hai", True)]
    assert len(loads) == 1  # the grammar file is read once per run


def test_a_failed_utterance_leaves_no_descriptor_open(
        tmp_path, fixtures_dir, monkeypatch):
    killers = []
    asked = threading.Event()  # the parser's connection was made
    connect = coordinator.request_connection
    conns = []  # kept, so no garbage collection closes them

    def request_connection(request_root, params):
        conn = connect(request_root, params)
        conns.append(conn)
        if request_root.parent.name == "parser":
            asked.set()
        return conn

    monkeypatch.setattr(coordinator, "request_connection", request_connection)

    def hook(role, proc):
        if role != "parser":
            return

        def kill_once_asked():  # the source has 9 pieces still to release
            asked.wait(timeout=15.0)
            proc.kill()
        killers.append(threading.Thread(target=kill_once_asked, daemon=True))
        killers[-1].start()

    before = len(os.listdir("/proc/self/fd"))
    result = demo_run(DemoConfig(matrices=fixtures_dir / "hai.mat",
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "out.json", sleep_time=0.05),
                      process_hook=hook)
    for killer in killers:
        killer.join(timeout=20.0)
    [utterance] = result.utterances
    assert not utterance.ok
    assert len(conns) == len(ROLES)
    assert all(conn.channel.fileno() == -1 for conn in conns)
    assert len(os.listdir("/proc/self/fd")) == before


def test_open_requests_nobody_takes_fail_the_utterance(tmp_path, fixtures_dir):
    class Alive:
        """A manager process that has not died."""
        def poll(self):
            return None

    for role in ROLES:  # request boxes nobody listens on, as if each manager hung
        (tmp_path / role).mkdir()
        Mailbox(tmp_path / role / "request").open()._sock.close()
    config = DemoConfig(matrices=fixtures_dir / "hai.mat",
                        grammar=fixtures_dir / "words.grammar",
                        dictionary=fixtures_dir / "words.dict",
                        out=tmp_path / "out.json", sleep_time=0.01)
    start = time.monotonic()
    result = _run_utterance(
        config.matrices, config,
        load_grammar(config.grammar.read_text(encoding="utf-8")),
        load_dictionary(config.dictionary.read_text(encoding="utf-8")),
        tmp_path, {role: Alive() for role in ROLES})
    assert time.monotonic() - start < 1.0
    assert result.error.startswith("pipeline failed: manager at ")
    assert "did not take the open request: nobody listens" in result.error
    assert sorted(tmp_path.iterdir()) == [tmp_path / role for role in sorted(ROLES)]


def test_a_failed_utterance_waits_for_no_manager(tmp_path, fixtures_dir):
    """The parser's manager holds its batch past the utterance's deadline,
    so it could acknowledge no close until the test ends."""
    grammar = load_grammar((fixtures_dir / "words.grammar").read_text(encoding="utf-8"))
    dictionary = load_dictionary((fixtures_dir / "words.dict").read_text(encoding="utf-8"))
    release = threading.Event()

    def held(records):
        release.wait(timeout=10.0)
        return records

    factories = {
        "source": lambda matrix_file: MatrixSource(matrix_file, 3),
        "parser": lambda _input: held,
        "translator": lambda _input: WordForWordTranslator(
            dictionary, grammar.lexical_labels)}
    stop = PipeStop()
    threads = []
    for role in ROLES:
        (tmp_path / role).mkdir()
        threads.append(threading.Thread(
            target=run_manager, args=(factories[role], tmp_path / role / "request"),
            kwargs={"name": role, "stop": stop}, daemon=True))
        threads[-1].start()
    config = DemoConfig(matrices=fixtures_dir / "hai.mat",
                        grammar=fixtures_dir / "words.grammar",
                        dictionary=fixtures_dir / "words.dict",
                        out=tmp_path / "out.json", max_wall=0.3)
    start = time.monotonic()
    try:
        result = _run_utterance(config.matrices, config, grammar, dictionary,
                                tmp_path, {role: SimpleNamespace(poll=lambda: None)
                                           for role in ROLES})
        elapsed = time.monotonic() - start
    finally:
        release.set()
        stop.join(*threads)
    assert elapsed < config.max_wall + 1.0  # not the 5 s of a settled close
    assert result.error == ("pipeline did not settle within 0.3s: "
                            "parser has 1 outstanding batches")


def test_a_worker_that_does_not_stop_is_killed():
    class Stubborn:
        """A worker process that does not stop when its stdin closes."""
        def __init__(self):
            self.calls = []
            self.returncode = None
            self.stdin = SimpleNamespace(close=lambda: self.calls.append("close"))

        def wait(self, timeout=None):
            self.calls.append(("wait", timeout))
            if timeout is not None:
                raise subprocess.TimeoutExpired("worker", timeout)
            self.returncode = -9

        def kill(self):
            self.calls.append("kill")

    worker = Stubborn()
    assert _stop_workers({"parser": worker}) == "parser exited -9"
    assert worker.calls == ["close", ("wait", 5), "kill", ("wait", None)]


def test_workers_stopped_before_their_start_up_ends_exit_0(
        tmp_path, fixtures_dir, monkeypatch):
    spawned = spawned_workers(monkeypatch)
    matrix = tmp_path / "no-e.mat"
    matrix.write_text("(0 3 h 0.9)\n(3 6 a 0.95)\n(6 9 i 0.85)\n")
    result = demo_run(DemoConfig(matrices=matrix,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards"))
    assert result.config_error == "no-e.mat: rule R2: unknown terminal 'e'"
    assert result.stop_error is None
    assert [proc.returncode for _, proc in spawned] == [0, 0, 0]


def test_a_worker_that_does_not_exit_0_fails_the_run(
        tmp_path, fixtures_dir, monkeypatch, capsys):
    spawn_faulty_translator(monkeypatch, "unclean-exit")
    results = []
    monkeypatch.setattr(cli, "demo_run",
                        lambda config: results.append(demo_run(config)) or results[-1])
    code = cli.main(["demo", "run", "--matrices", str(fixtures_dir / "hai.mat"),
                     "--grammar", str(fixtures_dir / "words.grammar"),
                     "--dict", str(fixtures_dir / "words.dict"),
                     "--out", str(tmp_path / "hai.json"), "--sleep", "10"])
    [result] = results
    assert [u.ok for u in result.utterances] == [True]
    assert code == result.exit_code == 1
    assert result.stop_error == "translator exited 1"
    assert "error: stopping workers: translator exited 1" in capsys.readouterr().err


def running(pid: int) -> bool:
    """The process is there and not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def workers_under(root: Path) -> list[int]:
    """The worker processes whose request box lies under `root`."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            args = (entry / "cmdline").read_bytes().decode().split("\0")
        except (OSError, NotADirectoryError):
            continue
        if "whiteboard.workers" in args and any(str(root) in a for a in args):
            pids.append(int(entry.name))
    return pids


def test_a_demo_that_dies_takes_its_workers_with_it(tmp_path, fixtures_dir):
    tmp = tmp_path / "tmp"  # where the demo makes its mailbox root
    tmp.mkdir()
    run = subprocess.Popen(
        [sys.executable, "-m", "whiteboard", "demo", "run",
         "--matrices", str(fixtures_dir),
         "--grammar", str(fixtures_dir / "words.grammar"),
         "--dict", str(fixtures_dir / "words.dict"),
         "--out", str(tmp_path / "boards"), "--sleep", "200"],
        env={**os.environ, "TMPDIR": str(tmp)},
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    pids = []
    try:
        deadline = time.monotonic() + 30.0
        while len(list(tmp.glob("whiteboard-*/*/request"))) < len(ROLES):
            assert time.monotonic() < deadline, "the workers never served"
            time.sleep(0.01)
        pids = workers_under(tmp)
        assert len(pids) == len(ROLES)
        time.sleep(0.1)  # into the first utterance, paced 200 ms a piece
        run.kill()
        run.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [pid for pid in pids if running(pid)] == []
        assert list(tmp.glob("whiteboard-*/*/request")) == []
    finally:
        if run.poll() is None:
            run.kill()
            run.wait(timeout=10)
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
