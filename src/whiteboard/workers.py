"""Process entry point for demo managers.

The demo driver spawns each manager as `python -m whiteboard.workers ROLE
--request-box PATH ...`, one OS process per manager, so components and the
coordinator only ever meet through the file system. A worker lives for the
whole demo run and builds a fresh component for every connection: the
parser and translator from the grammar and dictionary it loaded at start,
the source from the matrix file its connection's open request names.
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
    parser.add_argument("role", choices=["source", "parser", "translator"])
    parser.add_argument("--request-box", required=True, type=Path)
    parser.add_argument("--sleep", type=float, default=0.05,
                        help="poll period in seconds")
    parser.add_argument("--topk", type=int, default=3)
    parser.add_argument("--grammar", type=Path)
    parser.add_argument("--dict", dest="dictionary", type=Path)
    parser.add_argument("--max-gap", type=int, default=2)
    parser.add_argument("--max-overlap", type=int, default=2)
    parser.add_argument("--beam", type=int, default=16)
    return parser


def _without_input(role: str, make):
    """A factory for a component that takes no input."""
    def factory(source):
        if source is not None:
            raise ValueError(f"the {role} takes no input, got {source}")
        return make()
    return factory


def build_factory(args) -> tuple[object, bool]:
    """Returns (component factory, deliver_incrementally)."""
    thresholds = Thresholds(args.max_gap, args.max_overlap)
    if args.role == "source":
        def source(matrix_file):
            if matrix_file is None:
                raise ValueError("the source needs a matrix file as its input")
            return MatrixSource(matrix_file, args.topk)
        return source, True
    if args.role == "parser":
        if args.grammar is None:
            raise SystemExit("parser worker needs --grammar FILE")
        grammar = load_grammar(args.grammar.read_text(encoding="utf-8"))
        beam = args.beam if args.beam > 0 else None
        return _without_input("parser", lambda: IslandParser(
            grammar, thresholds, beam)), False
    if args.dictionary is None or args.grammar is None:
        raise SystemExit("translator worker needs --dict FILE and --grammar FILE")
    grammar = load_grammar(args.grammar.read_text(encoding="utf-8"))
    dictionary = load_dictionary(args.dictionary.read_text(encoding="utf-8"))
    return _without_input("translator", lambda: WordForWordTranslator(
        dictionary, grammar.lexical_labels)), False


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format=f"%(asctime)s {args.role}: %(message)s")
    factory, incremental = build_factory(args)
    run_manager(factory, args.request_box, name=args.role,
                incremental=incremental, sleep_time=args.sleep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
