"""A client half of the request-box tests.

Usage: python _request_writer.py TAG SLEEP [STOP_AT]

Reads lines ``BOX FIRST COUNT`` from stdin. For each, writes COUNT open
requests into the request box at BOX, naming the connections
``conn-TAG-FIRST`` onwards, one after another, retrying every SLEEP
seconds while the box is full, as a client opening connections would.

With STOP_AT, the writer stops itself with SIGSTOP just before its write
number STOP_AT (counting from 0), while it holds the box open for
writing, and prints ``stopped`` first; after SIGCONT it goes on.
"""

import os
import signal
import sys
import time

from whiteboard import wire
from whiteboard.mailbox import Mailbox


def stop_before_write(stop_at: int) -> None:
    write = os.write
    calls = []

    def stopping_write(fd, data):
        calls.append(fd)
        if len(calls) == stop_at + 1:
            print("stopped", flush=True)
            os.kill(os.getpid(), signal.SIGSTOP)
        return write(fd, data)

    os.write = stopping_write


def main() -> int:
    tag, sleep = sys.argv[1], float(sys.argv[2])
    if len(sys.argv) > 3:
        stop_before_write(int(sys.argv[3]))
    for line in sys.stdin:
        box_path, first, count = line.split()
        box = Mailbox(box_path)
        for seq in range(int(first), int(first) + int(count)):
            request = wire.OpenRequest("edge-v1", "edge-v1", None,
                                       f"conn-{tag}-{seq}")
            while not box.try_deposit(wire.serialize([request])):
                time.sleep(sleep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
