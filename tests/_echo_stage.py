"""A test-only fourth stage: `echo` copies the `ww` layer onto an `echo` layer.

`ECHO` is its row of the stage table. Run as a script, this is the real
worker with `ECHO` added to its table: python _echo_stage.py echo
--request-box PATH (the arguments of `python -m whiteboard.workers`).
"""

import sys

from whiteboard import wire, workers


def echo(records):
    """Each node again, derived from the node it copies, and each arc as
    it is: it joins the copies, whose record ids are the originals'."""
    return [wire.NodeRecord(r.node_id, r.begin, r.end, r.label, r.score,
                            (r.node_id,))
            if isinstance(r, wire.NodeRecord) else r for r in records]


ECHO = workers.Stage(
    inputs=("ww",), output="echo", formats=("node-v1", "node-v1"),
    threshold=None, flags=(), labels=workers.STAGES["translator"].labels,
    make=lambda args, source: echo)


if __name__ == "__main__":
    workers.STAGES["echo"] = ECHO
    sys.exit(workers.main())
