"""The stage table, and the process entry point of the demo's managers.

`STAGES` has one row per pipeline role. The demo declares its layers,
binds its components and spawns its workers from the rows, and a worker
takes its flags and builds its components from its own row. The demo
spawns each as `command` writes it, `python -m whiteboard.workers ROLE
--request-box PATH ...`, so components and the coordinator only ever
meet through sockets: the request box at PATH and the connections it
takes. A role takes only its own flags, all required, and exits 2 naming
one out of range. A worker lives for the whole demo run and builds a
fresh component for every connection, from the files it loaded at start
and, for the source, the matrix file the connection's open request
names. Only the source is paced. A worker serves until its stdin is
readable: the demo closes the pipe it holds there to stop it, and so does
its death. One started by hand stops when its stdin closes, so at once
under `</dev/null`.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .chart import load_grammar
from .components import IslandParser, MatrixSource, WordForWordTranslator
from .grid import Thresholds
from .manager import run_manager
from .translate import load_dictionary


def bounded(kind, what: str, ok=lambda value: True):
    """An option's type: argparse exits 2 naming the option unless finite and `ok`."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it on a malformed value
    return parse


FINITE = bounded(float, "a finite number")
POSITIVE = bounded(float, "a positive number", lambda value: value > 0)
AT_LEAST_1 = bounded(int, "a whole number of 1 or more", lambda value: value >= 1)
NATURAL = bounded(int, "a whole number of 0 or more", lambda value: value >= 0)


def loaded(load):
    """A file option's type: the file, read and loaded as the flags are."""
    return lambda text: load(Path(text).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Stage:
    inputs: tuple[str, ...]  # the layers it reads; none: it reads a matrix file
    output: str  # the layer it writes
    formats: tuple[str, str]  # the wire formats it imports and exports
    threshold: str | None  # the DemoConfig field filtering what it is sent
    flags: tuple  # (flag, type, DemoConfig attribute) of each worker flag
    labels: Callable  # (alphabet, grammar, dictionary) -> its layer's labels
    make: Callable  # (parsed flags, a connection's input) -> its component


STAGES: dict[str, Stage] = {
    "source": Stage(
        inputs=(), output="phonemes", formats=("edge-v1", "edge-v1"),
        threshold=None,
        flags=(("--topk", AT_LEAST_1, "topk"), ("--sleep", POSITIVE, "sleep_time")),
        labels=lambda alphabet, grammar, dictionary: alphabet,
        make=lambda args, matrix_file: MatrixSource(matrix_file, args.topk)),
    "parser": Stage(
        inputs=("phonemes",), output="syntax",
        formats=("edge-v1", "inactive-edge-v1"), threshold="threshold_syntax",
        flags=(("--grammar", loaded(load_grammar), "grammar"),
               ("--beam", NATURAL, "beam"),
               ("--max-gap", NATURAL, "thresholds.max_gap"),
               ("--max-overlap", NATURAL, "thresholds.max_overlap")),
        labels=lambda alphabet, grammar, dictionary: alphabet | grammar.nonterminals,
        make=lambda args, _: IslandParser(
            args.grammar, Thresholds(args.max_gap, args.max_overlap),
            args.beam or None)),  # a beam of 0 is unbounded
    "translator": Stage(
        inputs=("syntax",), output="ww", formats=("node-v1", "node-v1"),
        threshold="threshold_ww",
        flags=(("--grammar", loaded(load_grammar), "grammar"),
               ("--dict", loaded(load_dictionary), "dictionary")),
        labels=lambda alphabet, grammar, dictionary: grammar.lexical_labels | {
            word for entry in dictionary.entries.values()
            for word, _ in entry.targets},
        make=lambda args, _: WordForWordTranslator(
            args.dictionary, args.grammar.lexical_labels)),
}


def build_arg_parser() -> argparse.ArgumentParser:
    """One subcommand per row; a flag's value lands under the last part of
    its DemoConfig attribute's name: `thresholds.max_gap` as `max_gap`."""
    parser = argparse.ArgumentParser(prog="whiteboard-worker")
    roles = parser.add_subparsers(dest="role", required=True)
    for role, stage in STAGES.items():
        subparser = roles.add_parser(role)
        subparser.set_defaults(stage=stage)
        subparser.add_argument("--request-box", required=True, type=Path)
        for flag, kind, attribute in stage.flags:
            subparser.add_argument(flag, required=True, type=kind,
                                   dest=attribute.rpartition(".")[2])
    return parser


def command(role: str, request_box: Path, config) -> list[str]:
    """`role`'s worker's command line: its flags' values come from `config`."""
    argv = [sys.executable, "-m", "whiteboard.workers", role,
            "--request-box", str(request_box)]
    for flag, _, attribute in STAGES[role].flags:
        argv += [flag, str(attrgetter(attribute)(config))]
    return argv


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format=f"%(asctime)s {args.role}: %(message)s")

    def component(source):  # the input a connection's open request named
        if args.stage.inputs and source is not None:
            raise ValueError(f"the {args.role} takes no input, got {source}")
        if not args.stage.inputs and source is None:
            raise ValueError(f"the {args.role} needs a matrix file as its input")
        return args.stage.make(args, source)

    # only a role whose worker takes a pace, `--sleep`, is paced
    run_manager(component, args.request_box, name=args.role,
                pace=getattr(args, "sleep_time", None), stop=sys.stdin)
    return 0


if __name__ == "__main__":
    sys.exit(main())
