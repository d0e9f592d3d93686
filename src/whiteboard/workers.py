"""Process entry point for demo managers.

The demo driver spawns each manager as `python -m whiteboard.workers ROLE
--request-box PATH ...`, one OS process per manager, so components and the
coordinator only ever meet through sockets: the request box at PATH and
the connections it takes. Each role takes only its own flags. A worker
lives for the whole demo run and builds a fresh component for every
connection: the parser and translator from the grammar and dictionary it
loaded at start, the source from the matrix file its connection's open
request names. Only the source is paced. A worker serves until its stdin
is readable: the demo closes the pipe it holds there to stop it, and so
does its death. One started by hand stops when its stdin closes, so at
once under `</dev/null`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .chart import load_grammar
from .components import IslandParser, MatrixSource, WordForWordTranslator
from .grid import Thresholds
from .manager import run_manager
from .translate import load_dictionary


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whiteboard-worker")
    roles = parser.add_subparsers(dest="role", required=True)
    source = roles.add_parser("source")
    source.add_argument("--topk", type=int, default=3)
    source.add_argument("--sleep", type=float, default=0.05,
                        help="the pace of the simulated speech: piece k "
                             "of the source's reply falls due k times this "
                             "many seconds after the first")
    syntax = roles.add_parser("parser")
    syntax.add_argument("--grammar", required=True, type=Path)
    syntax.add_argument("--beam", type=int, default=16)
    syntax.add_argument("--max-gap", type=int, default=2)
    syntax.add_argument("--max-overlap", type=int, default=2)
    translator = roles.add_parser("translator")
    translator.add_argument("--grammar", required=True, type=Path)
    translator.add_argument("--dict", dest="dictionary", required=True,
                            type=Path)
    for role in (source, syntax, translator):
        role.add_argument("--request-box", required=True, type=Path)
    return parser


def _without_input(role: str, make):
    """A factory for a component that takes no input."""
    def factory(source):
        if source is not None:
            raise ValueError(f"the {role} takes no input, got {source}")
        return make()
    return factory


def build_factory(args) -> tuple[object, float | None]:
    """Returns (component factory, pace of its replies, None for unpaced)."""
    if args.role == "source":
        def source(matrix_file):
            if matrix_file is None:
                raise ValueError("the source needs a matrix file as its input")
            return MatrixSource(matrix_file, args.topk)
        return source, args.sleep
    grammar = load_grammar(args.grammar.read_text(encoding="utf-8"))
    if args.role == "parser":
        thresholds = Thresholds(args.max_gap, args.max_overlap)
        beam = args.beam if args.beam > 0 else None
        return _without_input("parser", lambda: IslandParser(
            grammar, thresholds, beam)), None
    dictionary = load_dictionary(args.dictionary.read_text(encoding="utf-8"))
    return _without_input("translator", lambda: WordForWordTranslator(
        dictionary, grammar.lexical_labels)), None


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format=f"%(asctime)s {args.role}: %(message)s")
    factory, pace = build_factory(args)
    run_manager(factory, args.request_box, name=args.role, pace=pace,
                stop=sys.stdin)
    return 0


if __name__ == "__main__":
    sys.exit(main())
