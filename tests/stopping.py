"""A stop event for manager threads that wakes them as well."""

import threading

from whiteboard.mailbox import ring
from whiteboard.manager import manager_bell


class RingingStop(threading.Event):
    """The `stop_event` of manager threads. A manager waits on its bell
    between cycles, so `set` also rings the bell of every manager named by
    `add`, which then stops at once rather than after its poll period."""

    def __init__(self):
        super().__init__()
        self.request_roots = []

    def add(self, request_root):
        self.request_roots.append(request_root)
        return request_root

    def set(self):
        super().set()
        for request_root in self.request_roots:
            ring(manager_bell(request_root))
