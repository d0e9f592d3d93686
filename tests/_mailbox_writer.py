"""Writer half of the mailbox fault-injection tests.

Usage: python _mailbox_writer.py BOX TAG COUNT SLEEP PAUSE_AT MODE

Deposits COUNT batches, each the single line ``TAG SEQ``, into the
mailbox at BOX, polling every SLEEP seconds while it is full. With MODE
``stop`` or ``hang``, the writer pauses before its link attempt number
PAUSE_AT (counting from 0), after writing that deposit's temporary file:
it prints ``paused`` and then stops itself with SIGSTOP (going on after
SIGCONT), or sleeps until it is killed.
"""

import os
import signal
import sys
import time

from whiteboard.mailbox import Mailbox


def pause_before_link(pause_at: int, mode: str) -> None:
    link = os.link
    calls = []

    def paused_link(src, dst):
        calls.append(src)
        if len(calls) == pause_at + 1:
            print("paused", flush=True)
            if mode == "stop":
                os.kill(os.getpid(), signal.SIGSTOP)
            else:
                while True:
                    time.sleep(60)
        return link(src, dst)

    os.link = paused_link


def main() -> int:
    box_path, tag, count, sleep, pause_at, mode = sys.argv[1:7]
    if mode != "none":
        pause_before_link(int(pause_at), mode)
    box = Mailbox(box_path, float(sleep))
    for seq in range(int(count)):
        box.deposit(f"{tag} {seq}\n", timeout=60.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
