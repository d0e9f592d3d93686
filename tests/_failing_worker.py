"""A demo worker whose component misbehaves.

Usage: python _failing_worker.py FAULT ROLE --request-box PATH ... (FAULT,
then the arguments of `python -m whiteboard.workers`). Each connection's
component is the one the real worker builds, changed by FAULT:
`second-batch` makes its second call raise; `same-span-arc` adds to each
reply an arc record between its first two nodes of one span, an arc that
does not run forward in time; `unclean-exit` leaves it as it is, but the
worker exits 1 once its manager has stopped.
"""

import sys

from whiteboard import wire
from whiteboard.manager import run_manager
from whiteboard.workers import build_arg_parser, build_factory


def failing_on_second_batch(factory):
    def build(source):
        component = factory(source)
        calls = 0

        def failing(records):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise RuntimeError("second batch refused")
            return component(records)
        return failing
    return build


def adding_a_same_span_arc(factory):
    def build(source):
        component = factory(source)

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
    return build


FAULTS = {"second-batch": failing_on_second_batch,
          "same-span-arc": adding_a_same_span_arc,
          "unclean-exit": lambda factory: factory}


if __name__ == "__main__":
    fault = FAULTS[sys.argv[1]]
    args = build_arg_parser().parse_args(sys.argv[2:])
    factory, pace = build_factory(args)
    run_manager(fault(factory), args.request_box, name=args.role, pace=pace,
                stop=sys.stdin)
    sys.exit(1 if sys.argv[1] == "unclean-exit" else 0)
