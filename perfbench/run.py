"""Whiteboard pipeline benchmark.

    python3 perfbench/run.py --workload short|long|inproc --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are written
from the seed under perfbench/work/, then utterances run one at a time
(closed loop, one in flight) until the next one would end past --seconds.
`short` and `long` make one `whiteboard.demo.demo_run` call over the
generated .mat files at the demo defaults (50 ms poll, topk 3, beam 16), so
each utterance spawns its own three worker processes. `inproc` builds each
board in this process with the batch functions and round-trips it through
JSON.

Every board is checked: the demo must report it OK, its white nodes and
arcs must equal the in-process reference build, every spoken word and all
its translations must be on it, and an in-process board must survive the
JSON round trip. The last stdout line is one JSON object: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run, whose spans are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = ("short", "long", "inproc")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_environment() -> str | None:
    """Make the checkout's package importable here and in every worker the
    demo spawns; returns an error message if a worker could not start."""
    if not (SRC / "whiteboard" / "__init__.py").is_file():
        return f"no whiteboard package under {SRC}"
    sys.path.insert(0, str(SRC))
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    # workers always load cached bytecode, whatever the caller's setting;
    # this import writes it, so no measured worker start compiles
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    check = subprocess.run([sys.executable, "-c", "import whiteboard.workers"],
                           capture_output=True, text=True, timeout=120)
    if check.returncode != 0:
        lines = check.stderr.strip().splitlines() or ["(no output)"]
        return f"worker processes cannot start: {lines[-1]}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM, so the demo still stops and reaps its workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    error = prepare_environment()
    if error:
        print(error, file=sys.stderr)
        return 2
    import harness
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
