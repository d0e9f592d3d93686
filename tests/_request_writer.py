"""A client half of the request-box contention test.

Usage: python _request_writer.py TAG SLEEP

Reads lines ``BOX FIRST COUNT`` from stdin. For each, deposits COUNT open
requests into the mailbox at BOX, naming the connections
``conn-TAG-FIRST`` onwards, one after another, polling every SLEEP
seconds while the box is full, as a client opening connections would.
"""

import sys

from whiteboard import wire
from whiteboard.mailbox import Mailbox


def main() -> int:
    tag, sleep = sys.argv[1], float(sys.argv[2])
    for line in sys.stdin:
        box_path, first, count = line.split()
        box = Mailbox(box_path, sleep)
        for seq in range(int(first), int(first) + int(count)):
            request = wire.OpenRequest("edge-v1", "edge-v1", None,
                                       f"conn-{tag}-{seq}")
            box.deposit(wire.serialize([request]), timeout=60.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
