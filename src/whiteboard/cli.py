"""Command line interface.

    whiteboard demo run --matrices DIR --grammar FILE --dict FILE \
        [--max-gap N] [--max-overlap N] [--topk K] \
        [--threshold-syntax S] [--threshold-ww S] [--sleep MS] \
        [--export dot|json] --out PATH [--step]

    whiteboard lattice show FILE [--layer NAME] [--threshold S] [--hide-grey]

Exit codes: 0 success, 1 pipeline failure (an utterance fails too when
any binding noted an error), 2 config or fixture error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from .board import from_json, to_dot
from .demo import DemoConfig, demo_run
from .errors import WhiteboardError
from .grid import Thresholds


def finite(text: str) -> float:
    """A float option's type: argparse exits 2 on NaN or infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whiteboard",
        description="layered hypothesis-lattice pipeline runner")
    groups = parser.add_subparsers(dest="group", required=True)

    demo = groups.add_parser("demo", help="demo pipeline commands")
    demo_cmds = demo.add_subparsers(dest="command", required=True)
    run = demo_cmds.add_parser(
        "run", help="run the speech-translation demo pipeline")
    run.add_argument("--matrices", required=True, type=Path,
                     help="directory of utterance *.mat files (or one file)")
    run.add_argument("--grammar", required=True, type=Path)
    run.add_argument("--dict", dest="dictionary", required=True, type=Path)
    run.add_argument("--max-gap", type=int, default=2)
    run.add_argument("--max-overlap", type=int, default=2)
    run.add_argument("--topk", type=int, default=3)
    run.add_argument("--threshold-syntax", type=finite, default=None,
                     help="score filter on slices forwarded to the parser")
    run.add_argument("--threshold-ww", type=finite, default=None,
                     help="score filter on slices forwarded to the translator")
    run.add_argument("--sleep", type=finite, default=50.0,
                     help="milliseconds between the source's pieces, the "
                          "pace of the simulated speech")
    run.add_argument("--export", choices=["dot", "json"], default="json")
    run.add_argument("--out", required=True, type=Path)
    run.add_argument("--step", action="store_true",
                     help="drive pump rounds from stdin (step/status/quit)")
    run.add_argument("--beam", type=int, default=16,
                     help="parser beam; 0 for unbounded")

    lattice = groups.add_parser("lattice", help="inspect exported boards")
    lattice_cmds = lattice.add_subparsers(dest="command", required=True)
    show = lattice_cmds.add_parser("show", help="render a JSON export as DOT")
    show.add_argument("file", type=Path)
    show.add_argument("--layer", default=None)
    show.add_argument("--threshold", type=finite, default=None)
    show.add_argument("--hide-grey", action="store_true")
    return parser


def _cmd_demo_run(args) -> int:
    try:
        thresholds = Thresholds(args.max_gap, args.max_overlap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for flag, bad, what in (("--sleep", args.sleep <= 0, "positive"),
                            ("--topk", args.topk < 1, "at least 1"),
                            ("--beam", args.beam < 0, "0 (unbounded) or more")):
        if bad:
            print(f"error: {flag} must be {what}", file=sys.stderr)
            return 2
    config = DemoConfig(
        matrices=args.matrices,
        grammar=args.grammar,
        dictionary=args.dictionary,
        out=args.out,
        thresholds=thresholds,
        topk=args.topk,
        threshold_syntax=args.threshold_syntax,
        threshold_ww=args.threshold_ww,
        sleep_time=args.sleep / 1000.0,
        export_format=args.export,
        step=args.step,
        beam=args.beam,
    )
    result = demo_run(config)
    if result.stop_error is not None:
        print(f"error: stopping workers: {result.stop_error}", file=sys.stderr)
    if result.config_error is not None:
        print(f"error: {result.config_error}", file=sys.stderr)
        return 2
    for utterance in result.utterances:
        if utterance.ok:
            ww = utterance.status["per_layer"]["ww"]
            print(f"{utterance.name}: ok "
                  f"({ww['nodes']} target nodes, "
                  f"{utterance.status['rounds']} rounds)")
        else:
            print(f"{utterance.name}: FAILED: {utterance.error}",
                  file=sys.stderr)
            print(json.dumps(utterance.status, indent=2), file=sys.stderr)
    return result.exit_code


def _cmd_lattice_show(args) -> int:
    try:
        board = from_json(args.file.read_text(encoding="utf-8"))
    except (OSError, ValueError, WhiteboardError) as exc:
        print(f"error: cannot load {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.layer is not None and args.layer not in board.layers:
        print(f"error: --layer {args.layer}: {args.file} has no such layer; "
              f"its layers are {', '.join(board.layers) or 'none'}",
              file=sys.stderr)
        return 2
    sys.stdout.write(to_dot(board, layer=args.layer, threshold=args.threshold,
                            hide_grey=args.hide_grey))
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    args = build_arg_parser().parse_args(argv)
    if args.group == "demo":
        return _cmd_demo_run(args)
    return _cmd_lattice_show(args)


if __name__ == "__main__":
    sys.exit(main())
