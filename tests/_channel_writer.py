"""Writer half of the channel fault-injection tests.

Usage: python _channel_writer.py BOX MODE

Connects to the request box at BOX, on which the test listens, prints
``open``, and then by MODE:

- ``kill``: starts a frame of ``big_text()``, larger than the connection
  holds, prints ``partial`` and sleeps until it is killed;
- ``stop``: starts the same frame, prints ``partial``, stops itself with
  SIGSTOP, and after SIGCONT writes the rest of the frame;
- ``odd``: writes the frames of ``odd_texts()`` and closes;
- ``gone``: waits for a line on stdin, sent once the test has closed its
  end, then writes one frame; prints ``PeerGone`` if that raised it.
"""

import os
import signal
import sys
import time

from whiteboard import wire
from whiteboard.errors import PeerGone
from whiteboard.mailbox import Mailbox, wait_ready
from blocking import deposit


def big_text() -> str:
    """A batch of about 1.3 MB, several times what a connection holds."""
    return wire.serialize([wire.EdgeRecord(i, i + 1, f"p{i}", 0.5)
                           for i in range(60_000)], "edge-v1")


def odd_texts() -> list[str]:
    """An empty batch, and a batch whose token holds a NUL byte."""
    return ["", wire.serialize([wire.EdgeRecord(0, 1, "a\x00b", 0.5)],
                               "edge-v1")]


def main() -> int:
    path, mode = sys.argv[1:3]
    channel = Mailbox(path).try_deposit()
    print("open", flush=True)
    if mode in ("kill", "stop"):
        assert channel.try_deposit(big_text()) and channel.pending
        print("partial", flush=True)
        if mode == "kill":
            while True:
                time.sleep(60)
        os.kill(os.getpid(), signal.SIGSTOP)
        while not channel.flush():
            wait_ready([], [channel])
    elif mode == "odd":
        for text in odd_texts():
            deposit(channel, text, timeout=10.0)
    elif mode == "gone":
        sys.stdin.readline()
        try:
            deposit(channel, "late\n", timeout=10.0)
        except PeerGone:
            print("PeerGone", flush=True)
    channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
