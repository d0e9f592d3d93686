"""Blocking writes for the tests, built on the non-blocking ones the
product makes: `try_deposit` hands a batch over and `flush` writes its
tail, waiting in `whiteboard.mailbox.wait_ready` while the connection is
full."""

import time

from whiteboard.errors import MailboxTimeout
from whiteboard.mailbox import wait_ready


def deposit(end, batch, timeout: float | None = None) -> None:
    """Hand `batch` to `end`, a `Channel` taking a text or a `Connection`
    taking a list of records, and block until the whole frame is written.
    Raises `MailboxTimeout` once `timeout` seconds have passed."""
    channel = getattr(end, "channel", end)
    deadline = None if timeout is None else time.monotonic() + timeout
    while not end.try_deposit(batch):
        _wait_writable(channel, deadline)
    while not end.flush():
        _wait_writable(channel, deadline)


def _wait_writable(channel, deadline: float | None) -> None:
    remaining = None if deadline is None else deadline - time.monotonic()
    if remaining is not None and remaining <= 0:
        raise MailboxTimeout("deposit timed out on a channel")
    wait_ready([], [channel], remaining)
