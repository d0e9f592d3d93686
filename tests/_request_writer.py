"""A client half of the request-box tests.

Usage: python _request_writer.py TAG SLEEP [STOP_AT]

Reads lines ``BOX FIRST COUNT`` from stdin. For each, makes COUNT
connections to the request box at BOX, one after another, retrying every
SLEEP seconds while the box is full, as a client opening connections
would. On each it sends one frame, ``TAG SEQ`` with SEQ from FIRST
onwards, and then closes it.

With STOP_AT, the writer stops itself with SIGSTOP once it has made its
connection number STOP_AT (counting from 0), before it sends on it, and
prints ``stopped`` first; after SIGCONT it goes on.
"""

import os
import signal
import sys
import time

from whiteboard.mailbox import Mailbox
from blocking import deposit


def main() -> int:
    tag, sleep = sys.argv[1], float(sys.argv[2])
    stop_at = int(sys.argv[3]) if len(sys.argv) > 3 else None
    made = 0
    for line in sys.stdin:
        box_path, first, count = line.split()
        box = Mailbox(box_path)
        for seq in range(int(first), int(first) + int(count)):
            while (channel := box.try_deposit()) is None:
                time.sleep(sleep)
            if made == stop_at:
                print("stopped", flush=True)
                os.kill(os.getpid(), signal.SIGSTOP)
            made += 1
            deposit(channel, f"{tag} {seq}\n", timeout=10.0)
            channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
