"""End-to-end demo: simulated incremental speech translation.

A run spawns one manager process per row of `workers.STAGES` (matrix
source, island parser, word-for-word translator) and keeps them for all
of its utterances, stopping them when the run ends by closing each
worker's stdin, its manager's stop. For each utterance the driver
declares a fresh board, a layer per row, opens fresh connections to the
managers at once, naming the utterance's matrix file to the row that
reads no layer, and pumps until the coordinator has settled: every batch
it deposited has come back with its `done` record and nothing is left to
forward. It then closes the connections one after another, fails the
utterance if any of them still held results, and seals and exports the
layers; an empty layer cannot be sealed. A failed utterance closes its
connections without waiting for any manager, and ends the run.

The first pump round that notes an error on a binding ends the
utterance, whatever its last layer holds: a component's error record, a
batch that did not parse, a record the board refused, or a manager that
hung up. The failure names each binding that noted an error, and its
first. A dictionary word or grammar symbol that is not a legal wire token
is a configuration error, found before anything is spawned.

Every pump round is non-blocking. Between rounds the demo waits on the
connections, one socket each, so a round starts as soon as a manager has
written a result, or there is room for the rest of a batch the last round
could not write whole. Nothing else ends the wait but the utterance's
`max_wall` deadline: the only timed behaviour in the pipeline is the
source's pace (`sleep_time`), its reply's piece k falling due k paces
after the first piece, on a clock that a late piece does not set back. A
manager that dies hangs up its connections, taken or not, which wakes the
wait, and the next round notes it as the binding's error. A manager that
refuses a connection sends a component error before it hangs up, and a
round reads at most one frame per connection, so the refusal ends the
utterance a round before its hang-up could be read: a binding hung up on
has lost its manager process. Processes are checked only once an
utterance has failed, a failed open included, since a dead manager's box
refuses it at once: the demo waits for the process of each binding hung
up on to be reaped, and names every dead one. So a killed component turns
into an error report naming it rather than a hang, and a quiet round
costs no process check.
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

from . import wire, workers
from .board import Whiteboard, to_dot, to_json
from .chart import load_grammar
from .coordinator import ComponentBinding, Coordinator
from .errors import ManagerUnavailable, WhiteboardError
from .grid import Thresholds, parse_matrix_file
from .manager import ConnectionParams
from .translate import load_dictionary

log = logging.getLogger(__name__)

MATRIX_SUFFIX = ".mat"


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
    # the source's pace: its reply's piece k falls due k * sleep_time
    # seconds after the first piece
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
    stop_error: str | None = None  # each worker that did not exit 0

    @property
    def exit_code(self) -> int:
        if self.config_error is not None:
            return 2
        ok = self.utterances and all(u.ok for u in self.utterances)
        return 0 if ok and self.stop_error is None else 1


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
                f"matrix path {path} cannot be sent to the source: {exc}") from None
    return files


def _spawn_worker(role: str, request_root: Path,
                  config: DemoConfig) -> subprocess.Popen:
    """One role's worker, given only the flags that role takes."""
    return subprocess.Popen(workers.command(role, request_root, config),
                            stdin=subprocess.PIPE)


def _declare_layers(board: Whiteboard, alphabet: set[str], grammar,
                    dictionary) -> None:
    for stage in workers.STAGES.values():
        board.declare_layer(stage.output, depends_on=stage.inputs,
                            legal_labels=stage.labels(alphabet, grammar, dictionary))


def _stop_workers(processes: dict[str, subprocess.Popen]) -> str | None:
    """Stop each worker by closing its stdin; name each that did not exit 0."""
    for proc in processes.values():
        proc.stdin.close()
    for proc in processes.values():
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return ", ".join(f"{role} exited {proc.returncode}"
                     for role, proc in processes.items() if proc.returncode) or None


def _bindings(mailbox_root: Path, config: DemoConfig,
              matrix_file: Path) -> list[ComponentBinding]:
    """One per row; a row that reads no layer reads the matrix file."""
    return [ComponentBinding(
        role, mailbox_root / role / "request", list(stage.inputs), stage.output,
        ConnectionParams(*stage.formats, None if stage.inputs else str(matrix_file)),
        filter_threshold=getattr(config, stage.threshold) if stage.threshold else None)
        for role, stage in workers.STAGES.items()]


def _run_utterance(matrix_file: Path, config: DemoConfig, grammar, dictionary,
                   mailbox_root: Path, processes: dict[str, subprocess.Popen],
                   control_lines=None, process_hook=None) -> UtteranceResult:
    name = matrix_file.stem
    matrices = parse_matrix_file(matrix_file.read_text(encoding="utf-8"))
    alphabet = {m.phoneme for m in matrices}
    grammar.check_terminals(alphabet)

    board = Whiteboard()
    _declare_layers(board, alphabet, grammar, dictionary)
    coordinator = Coordinator(board, config.thresholds)
    if process_hook is not None:
        for role, proc in processes.items():
            process_hook(role, proc)

    try:
        coordinator.register(*_bindings(mailbox_root, config, matrix_file))
        if config.step:
            error = _step_loop(coordinator, control_lines)
        else:
            error = _pump_loop(coordinator, config)
    except (ManagerUnavailable, WhiteboardError) as exc:
        error = f"pipeline failed: {exc}"
    if error is not None:
        # a dead manager hung up its connections, or refused the open
        error = _dead_managers(coordinator, processes,
                               time.monotonic() + config.max_wall) or error
    # taken before closing, which drains what is still in flight
    status = coordinator.status()
    # a failed utterance waits for no manager
    closing = _close_connections(coordinator, 5.0 if error is None else 0.0)
    error = error or closing or _seal_layers(board)
    if error is not None:
        log.error("utterance %s: %s", name, error)
        return UtteranceResult(name, board, status, error)
    return UtteranceResult(name, board, status)


def _dead_managers(coordinator: Coordinator,
                   processes: dict[str, subprocess.Popen],
                   deadline: float) -> str | None:
    """Note each dead manager process on its binding, if it has one yet,
    and return the utterance's error if any has died.

    A binding hung up on has lost its manager process, which hangs up its
    connections before it can be reaped, so that process is waited for
    first, until `deadline` at the latest."""
    for name, bound in coordinator.bound.items():
        if bound.gone and name in processes:
            try:
                processes[name].wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
    dead = [role for role, proc in processes.items() if proc.poll() is not None]
    for role in dead:
        if role in coordinator.bound:
            coordinator.bound[role].note("manager process died")
    return f"manager process died: {', '.join(dead)}" if dead else None


def _pump_loop(coordinator: Coordinator, config: DemoConfig) -> str | None:
    """Pump until the coordinator has settled, waiting on the connections
    between rounds, until `max_wall` at the latest. The first round that
    notes an error ends the loop."""
    deadline = time.monotonic() + config.max_wall
    while True:
        if coordinator.pump().errors:
            return _binding_errors(coordinator)
        if coordinator.settled():
            return None
        if time.monotonic() >= deadline:
            return (f"pipeline did not settle within {config.max_wall}s: "
                    f"{coordinator.unsettled()}")
        coordinator.wait(max(0.0, deadline - time.monotonic()))


def _step_loop(coordinator: Coordinator, control_lines) -> str | None:
    """Consume step/status/quit commands, one pump per step. The first
    step that notes an error ends the loop."""
    lines = control_lines if control_lines is not None else sys.stdin
    for raw in lines:
        command = raw.strip().lower()
        if command in ("", "step", "s"):
            errors = coordinator.pump().errors
            print(f"round {coordinator.rounds} done", flush=True)
            if errors:
                return _binding_errors(coordinator)
        elif command == "status":
            print(json.dumps(coordinator.status(), indent=2), flush=True)
        elif command in ("quit", "q"):
            break
        else:
            print(f"unknown command: {command}", flush=True)
    return None


def _close_connections(coordinator: Coordinator,
                       timeout: float = 5.0) -> str | None:
    """Close each connection in turn, each close waiting up to `timeout`
    seconds for its manager's `(closed)`. Every connection is closed,
    whatever fails; the failures are reported.

    Once the pipeline has settled nothing may still be in flight, so
    results handed over on close fail the utterance. A step-mode run quit
    early has not settled, and its leftovers are only logged.
    """
    settled = coordinator.settled()
    problems = []
    for name, conn in coordinator.connections().items():
        try:
            leftovers = conn.close(timeout=timeout)
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


def _binding_errors(coordinator: Coordinator) -> str | None:
    """Each binding that noted an error, with its first one."""
    problems = [f"binding {name} noted {len(bound.errors)} errors, the first: "
                f"{bound.errors[0]}"
                for name, bound in coordinator.bound.items() if bound.errors]
    return "; ".join(problems) or None


def _seal_layers(board: Whiteboard) -> str | None:
    for name in board.dependency_order():
        try:
            board.layers[name].seal()
        except WhiteboardError as exc:
            return f"layer {name} cannot be sealed: {exc}"
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

    A manager per row of `workers.STAGES` is spawned once and stopped when
    the run ends, however it ends. `process_hook(role, proc)` is called for
    each before every utterance, with the run's long-lived process."""
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
        for role in workers.STAGES:
            processes[role] = _spawn_worker(role, mailbox_root / role / "request",
                                            config)
        for matrix_file in files:
            if result.utterances:
                result.utterances[-1].board = None
            try:
                utterance = _run_utterance(matrix_file, config, grammar,
                                           dictionary, mailbox_root, processes,
                                           control_lines, process_hook)
                result.utterances.append(utterance)
                _export(utterance.board, utterance.name, config, multi)
            except (OSError, WhiteboardError) as exc:
                result.config_error = f"{matrix_file.name}: {exc}"
                return result
            if not utterance.ok:
                break
            if config.step:
                break  # step mode drives a single utterance
    finally:
        result.stop_error = _stop_workers(processes)
        shutil.rmtree(mailbox_root, ignore_errors=True)
    return result
