"""End-to-end demo: simulated incremental speech translation.

A run spawns one manager process per component (matrix source, island
parser, word-for-word translator) and keeps this trio for all of its
utterances, stopping it when the run ends. For each utterance the driver
declares a fresh three-layer board (phonemes, syntax, target words), opens
fresh connections to the three managers at once, the source's naming the
utterance's matrix file, and pumps until the coordinator has settled:
every batch it deposited has come back with its `done` record and nothing
is left to forward. It then closes all connections at once, fails the
utterance if any of them still held results, and seals, validates and
exports the layers. A failed utterance ends the run.

The coordinator loop is fully non-blocking, and manager processes are
watched for unexpected death, before an utterance opens its connections
and in every pump round, so a killed component turns into an error report
rather than a hang.
"""

from __future__ import annotations

import json
import logging
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import wire
from .board import Whiteboard, to_dot, to_json
from .chart import load_grammar
from .coordinator import ComponentBinding, Coordinator
from .errors import ManagerUnavailable, WhiteboardError
from .grid import Thresholds, parse_matrix_file
from .manager import ConnectionParams
from .translate import load_dictionary

log = logging.getLogger(__name__)

MATRIX_SUFFIX = ".mat"
ROLES = ("source", "parser", "translator")


@dataclass
class DemoConfig:
    matrices: Path
    grammar: Path
    dictionary: Path
    out: Path
    thresholds: Thresholds = field(default_factory=Thresholds)
    topk: int = 3
    threshold_syntax: float | None = None
    threshold_ww: float | None = None
    sleep_time: float = 0.05
    export_format: str = "json"
    step: bool = False
    beam: int = 16
    max_wall: float = 60.0


@dataclass
class UtteranceResult:
    name: str
    board: Whiteboard | None  # dropped by demo_run when the next one starts
    status: dict
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class DemoResult:
    utterances: list[UtteranceResult] = field(default_factory=list)
    config_error: str | None = None

    @property
    def exit_code(self) -> int:
        if self.config_error is not None:
            return 2
        if not self.utterances or not all(u.ok for u in self.utterances):
            return 1
        return 0


def _utterance_files(matrices: Path) -> list[Path]:
    """The run's matrix files. Each one is named on the wire when its
    utterance opens the source's connection, so it must be a legal token."""
    if matrices.is_file():
        files = [matrices]
    else:
        files = sorted(matrices.glob(f"*{MATRIX_SUFFIX}"))
    if not files:
        raise WhiteboardError(f"no *{MATRIX_SUFFIX} files under {matrices}")
    for path in files:
        try:
            wire.check_input(str(path))
        except ValueError as exc:
            raise WhiteboardError(
                f"matrix path cannot be sent to the source: {exc}") from None
    return files


def _spawn_worker(role: str, request_root: Path,
                  config: DemoConfig) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "whiteboard.workers", role,
           "--request-box", str(request_root),
           "--sleep", str(config.sleep_time),
           "--max-gap", str(config.thresholds.max_gap),
           "--max-overlap", str(config.thresholds.max_overlap)]
    if role == "source":
        cmd += ["--topk", str(config.topk)]
    elif role == "parser":
        cmd += ["--grammar", str(config.grammar), "--beam", str(config.beam)]
    else:
        cmd += ["--dict", str(config.dictionary), "--grammar", str(config.grammar)]
    return subprocess.Popen(cmd)


def _declare_layers(board: Whiteboard, alphabet: set[str], grammar,
                    dictionary) -> None:
    syntax_labels = alphabet | grammar.nonterminals
    ww_labels = grammar.lexical_labels | {
        word for entry in dictionary.entries.values()
        for word, _ in entry.targets}
    board.declare_layer("phonemes", legal_labels=alphabet)
    board.declare_layer("syntax", legal_labels=syntax_labels,
                        depends_on={"phonemes"})
    board.declare_layer("ww", legal_labels=ww_labels, depends_on={"syntax"})


def _stop_workers(processes: dict[str, subprocess.Popen]) -> None:
    for proc in processes.values():
        if proc.poll() is None:
            proc.terminate()
    for proc in processes.values():
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _bindings(mailbox_root: Path, config: DemoConfig,
              matrix_file: Path) -> list[ComponentBinding]:
    def params(imp: str, exp: str, source: str | None = None) -> ConnectionParams:
        return ConnectionParams(config.sleep_time, imp, exp, source)

    return [
        ComponentBinding("source", mailbox_root / "source" / "request",
                         [], "phonemes",
                         params("edge-v1", "edge-v1", str(matrix_file))),
        ComponentBinding("parser", mailbox_root / "parser" / "request",
                         ["phonemes"], "syntax",
                         params("edge-v1", "inactive-edge-v1"),
                         filter_threshold=config.threshold_syntax),
        ComponentBinding("translator", mailbox_root / "translator" / "request",
                         ["syntax"], "ww", params("node-v1", "node-v1"),
                         filter_threshold=config.threshold_ww),
    ]


def _run_utterance(matrix_file: Path, config: DemoConfig, grammar, dictionary,
                   mailbox_root: Path, processes: dict[str, subprocess.Popen],
                   control_lines=None, process_hook=None) -> UtteranceResult:
    name = matrix_file.stem
    matrices = parse_matrix_file(matrix_file.read_text(encoding="utf-8"))
    alphabet = {m.phoneme for m in matrices}
    # re-check the grammar against this utterance's phoneme alphabet
    load_grammar(config.grammar.read_text(encoding="utf-8"), alphabet)

    board = Whiteboard()
    _declare_layers(board, alphabet, grammar, dictionary)
    coordinator = Coordinator(board, config.thresholds)
    if process_hook is not None:
        for role in ROLES:
            process_hook(role, processes[role])

    status: dict | None = None
    try:
        # a worker lost since the last utterance would only time the opens out
        error = _dead_managers(coordinator, processes)
        if error is None:
            coordinator.register(*_bindings(mailbox_root, config, matrix_file))
            if config.step:
                error = _step_loop(coordinator, processes, control_lines)
            else:
                error = _pump_loop(coordinator, processes, config)
            # taken before closing, which drains what is still in flight
            status = coordinator.status()
            if error is None:
                error = _close_connections(coordinator)
    except (ManagerUnavailable, WhiteboardError) as exc:
        error = f"pipeline failed: {exc}"

    if error is None:
        error = _seal_layers(board)
    if status is None:
        status = coordinator.status()
    if error is not None:
        log.error("utterance %s: %s", name, error)
        return UtteranceResult(name, board, status, error)
    return UtteranceResult(name, board, status)


def _dead_managers(coordinator: Coordinator,
                   processes: dict[str, subprocess.Popen]) -> str | None:
    """Note each dead manager process on its binding, if it has one yet,
    and return the utterance's error if any has died."""
    dead = [role for role, proc in processes.items() if proc.poll() is not None]
    for role in dead:
        if role in coordinator.bound:
            coordinator.bound[role].note("manager process died")
    return f"manager process died: {', '.join(dead)}" if dead else None


def _pump_loop(coordinator: Coordinator, processes, config: DemoConfig) -> str | None:
    """Pump until the coordinator has settled."""
    round_sleep = config.sleep_time / 2
    deadline = time.monotonic() + config.max_wall
    while True:
        error = _dead_managers(coordinator, processes)
        if error is not None:
            return error
        coordinator.pump()
        if coordinator.settled():
            return None
        if time.monotonic() >= deadline:
            return (f"pipeline did not settle within {config.max_wall}s: "
                    f"{coordinator.unsettled()}")
        time.sleep(round_sleep)


def _step_loop(coordinator: Coordinator, processes, control_lines) -> str | None:
    """Consume step/status/quit commands, one pump per step."""
    lines = control_lines if control_lines is not None else sys.stdin
    for raw in lines:
        command = raw.strip().lower()
        if command in ("", "step", "s"):
            error = _dead_managers(coordinator, processes)
            if error is not None:
                return error
            coordinator.pump()
            print(f"round {coordinator.rounds} done", flush=True)
        elif command == "status":
            print(json.dumps(coordinator.status(), indent=2), flush=True)
        elif command in ("quit", "q"):
            break
        else:
            print(f"unknown command: {command}", flush=True)
    return None


def _close_connections(coordinator: Coordinator) -> str | None:
    """Send every close request, then wait for the acknowledgments.

    Once the pipeline has settled nothing may still be in flight, so
    results handed over on close fail the utterance. A step-mode run quit
    early has not settled, and its leftovers are only logged.
    """
    settled = coordinator.settled()
    connections = coordinator.connections()
    for conn in connections.values():
        conn.request_close(timeout=5.0)
    problems = []
    for name, conn in connections.items():
        try:
            leftovers = conn.close(timeout=5.0)
        except WhiteboardError as exc:
            problems.append(f"closing {name}: {exc}")
            continue
        if leftovers and settled:
            problems.append(f"binding {name} handed over {len(leftovers)} "
                            f"records on close, after the pipeline settled")
        elif leftovers:
            log.info("binding %s: %d records dropped on close",
                     name, len(leftovers))
    return "; ".join(problems) or None


def _seal_layers(board: Whiteboard) -> str | None:
    for name in board.dependency_order():
        try:
            board.layers[name].seal()
        except WhiteboardError as exc:
            return f"layer {name} failed validation: {exc}"
    if not board.layers["ww"].white_nodes:
        return "final ww layer is empty"
    return None


def _export(board: Whiteboard, name: str, config: DemoConfig,
            multi: bool) -> None:
    text = to_json(board) if config.export_format == "json" else to_dot(board)
    if multi or config.out.is_dir():
        config.out.mkdir(parents=True, exist_ok=True)
        path = config.out / f"{name}.{config.export_format}"
    else:
        config.out.parent.mkdir(parents=True, exist_ok=True)
        path = config.out
    path.write_text(text, encoding="utf-8")


def demo_run(config: DemoConfig, control_lines=None,
             process_hook=None) -> DemoResult:
    """Run the pipeline over every utterance under `config.matrices`.

    The manager trio is spawned once and stopped when the run ends, however
    it ends. `process_hook(role, proc)` is called for each role before
    every utterance, with the run's long-lived process."""
    result = DemoResult()
    try:
        files = _utterance_files(config.matrices)
        grammar = load_grammar(config.grammar.read_text(encoding="utf-8"))
        dictionary = load_dictionary(config.dictionary.read_text(encoding="utf-8"))
    except (OSError, WhiteboardError) as exc:
        result.config_error = str(exc)
        return result
    multi = len(files) > 1
    mailbox_root = Path(tempfile.mkdtemp(prefix="whiteboard-"))
    processes: dict[str, subprocess.Popen] = {}
    try:
        for role in ROLES:
            processes[role] = _spawn_worker(role, mailbox_root / role / "request",
                                            config)
        for matrix_file in files:
            if result.utterances:
                result.utterances[-1].board = None
            try:
                utterance = _run_utterance(matrix_file, config, grammar,
                                           dictionary, mailbox_root, processes,
                                           control_lines, process_hook)
            except (OSError, WhiteboardError) as exc:
                result.config_error = f"{matrix_file.name}: {exc}"
                return result
            result.utterances.append(utterance)
            _export(utterance.board, utterance.name, config, multi)
            if not utterance.ok:
                break
            if config.step:
                break  # step mode drives a single utterance
    finally:
        _stop_workers(processes)
        shutil.rmtree(mailbox_root, ignore_errors=True)
    return result
