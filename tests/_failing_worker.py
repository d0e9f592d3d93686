"""A demo worker whose component misbehaves.

Usage: python _failing_worker.py FAULT ROLE --request-box PATH ... (FAULT,
then the arguments of `python -m whiteboard.workers`). It is the real
worker, with its row's component builder wrapped, so each connection's
component is the one the real worker builds, changed by FAULT:
`second-batch` makes its second call raise; `same-span-arc` adds to each
reply an arc record between its first two nodes of one span, an arc that
does not run forward in time; `unclean-exit` leaves it as it is, but the
worker exits 1 once its manager has stopped.
"""

import dataclasses
import sys

from whiteboard import wire, workers


def failing_on_second_batch(component):
    calls = 0

    def failing(records):
        nonlocal calls
        calls += 1
        if calls == 2:
            raise RuntimeError("second batch refused")
        return component(records)
    return failing


def adding_a_same_span_arc(component):
    def linking(records):
        out = component(records)
        first_of_span = {}
        for record in out:
            if not isinstance(record, wire.NodeRecord):
                continue
            key = (record.begin, record.end)
            if key in first_of_span:
                return out + [wire.ArcRecord(
                    10**6, first_of_span[key], record.node_id, 0.0)]
            first_of_span[key] = record.node_id
        return out
    return linking


FAULTS = {"second-batch": failing_on_second_batch,
          "same-span-arc": adding_a_same_span_arc,
          "unclean-exit": lambda component: component}


if __name__ == "__main__":
    fault, role = sys.argv[1:3]
    stage = workers.STAGES[role]
    workers.STAGES[role] = dataclasses.replace(
        stage, make=lambda args, source: FAULTS[fault](stage.make(args, source)))
    code = workers.main(sys.argv[2:])
    sys.exit(1 if fault == "unclean-exit" else code)
