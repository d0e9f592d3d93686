"""Command line interface; `-h` lists a command's options.

    whiteboard demo run --matrices DIR --grammar FILE --dict FILE --out PATH
    whiteboard lattice show FILE [--layer NAME] [--threshold S] [--hide-grey]

Exit codes: 0 success, 1 pipeline failure (an utterance fails too when
any binding noted an error), 2 config or fixture error, or a worker
that exited before it served.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .board import from_json, to_dot
from .demo import DemoConfig, demo_run
from .errors import WhiteboardError
from .grid import Thresholds
from .workers import AT_LEAST_1, FINITE, NATURAL, POSITIVE, STAGES


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whiteboard",
        description="layered hypothesis-lattice pipeline runner")
    groups = parser.add_subparsers(dest="group", required=True)

    demo = groups.add_parser("demo", help="demo pipeline commands")
    demo_cmds = demo.add_subparsers(dest="command", required=True)
    # each option lands under its DemoConfig field, or `Thresholds`'s, or
    # in milliseconds; one left out is not set, so it keeps its default
    run = demo_cmds.add_parser(
        "run", help="run the speech-translation demo pipeline",
        argument_default=argparse.SUPPRESS)
    run.add_argument("--matrices", required=True, type=Path,
                     help="directory of utterance *.mat files (or one file)")
    run.add_argument("--grammar", required=True, type=Path)
    run.add_argument("--dict", dest="dictionary", required=True, type=Path)
    run.add_argument("--max-gap", type=NATURAL)
    run.add_argument("--max-overlap", type=NATURAL)
    run.add_argument("--topk", type=AT_LEAST_1)
    for role, stage in STAGES.items():
        if stage.threshold is not None:  # its field names its option
            run.add_argument("--" + stage.threshold.replace("_", "-"), type=FINITE,
                             help=f"score filter on slices forwarded to the {role}")
    run.add_argument("--sleep", dest="sleep_ms", type=POSITIVE,
                     help="milliseconds between the source's pieces, the "
                          "pace of the simulated speech")
    run.add_argument("--export", dest="export_format", choices=["dot", "json"])
    run.add_argument("--out", required=True, type=Path)
    run.add_argument("--step", action="store_true",
                     help="drive pump rounds from stdin (step/status/quit)")
    run.add_argument("--beam", type=NATURAL, help="parser beam; 0 for unbounded")

    lattice = groups.add_parser("lattice", help="inspect exported boards")
    lattice_cmds = lattice.add_subparsers(dest="command", required=True)
    show = lattice_cmds.add_parser("show", help="render a JSON export as DOT")
    show.add_argument("file", type=Path)
    show.add_argument("--layer", default=None)
    show.add_argument("--threshold", type=FINITE, default=None)
    show.add_argument("--hide-grey", action="store_true")
    return parser


def _cmd_demo_run(args) -> int:
    fields = {name: value for name, value in vars(args).items()
              if name not in ("group", "command")}
    gaps = {name: fields.pop(name) for name in ("max_gap", "max_overlap")
            if name in fields}
    if "sleep_ms" in fields:
        fields["sleep_time"] = fields.pop("sleep_ms") / 1000.0
    result = demo_run(DemoConfig(thresholds=Thresholds(**gaps), **fields))
    if result.stop_error is not None:
        print(f"error: stopping workers: {result.stop_error}", file=sys.stderr)
    if result.config_error is not None:
        print(f"error: {result.config_error}", file=sys.stderr)
        return 2
    for utterance in result.utterances:
        if utterance.ok:
            *_, (last, counts) = utterance.status["per_layer"].items()
            print(f"{utterance.name}: ok ({counts['nodes']} {last} nodes, "
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
