"""A demo worker whose component raises on its second batch.

Usage: python _failing_worker.py ROLE --request-box PATH ... (the arguments
of `python -m whiteboard.workers`). Each connection's component is the one
the real worker builds, except that its second call raises.
"""

import sys

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


if __name__ == "__main__":
    args = build_arg_parser().parse_args(sys.argv[1:])
    factory, pace = build_factory(args)
    run_manager(failing_on_second_batch(factory), args.request_box,
                name=args.role, pace=pace)
