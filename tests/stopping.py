"""A stop event for manager threads that wakes them as well."""

import threading

from whiteboard.errors import PeerGone
from whiteboard.mailbox import Mailbox


class WakingStop(threading.Event):
    """The `stop_event` of manager threads. A manager waits on its request
    box between cycles, with no timeout, so `set` also connects to the box
    of every manager named by `add`, and closes the connection; the
    manager then wakes and stops at once."""

    def __init__(self):
        super().__init__()
        self.request_roots = []

    def add(self, request_root):
        self.request_roots.append(request_root)
        return request_root

    def set(self):
        super().set()
        for request_root in self.request_roots:
            try:
                channel = Mailbox(request_root).try_deposit()
            except (FileNotFoundError, PeerGone):
                continue  # no manager serves there: none to wake
            if channel is not None:  # a full box wakes its manager anyway
                channel.close()
