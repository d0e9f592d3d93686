"""Consumer half of the two-process connection stress test.

Usage: python _stress_consumer.py BOX N_CONNECTIONS N_BATCHES OUT_JSON

Listens on a request box at BOX, prints ``ready``, takes N_CONNECTIONS
connections, in the order they were made, and then reads N_BATCHES
frames from each in one loop that waits on all of them at once. It
verifies the trailing checksum record of every batch, and writes a JSON
report with the sequence numbers seen and any checksum failures.
"""

import hashlib
import json
import sys
from pathlib import Path

from whiteboard import wire
from whiteboard.mailbox import Mailbox, wait_ready


def batch_digest(records) -> str:
    text = wire.serialize(records, "edge-v1")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main() -> int:
    box = Mailbox(sys.argv[1]).open()
    n_connections = int(sys.argv[2])
    n_batches = int(sys.argv[3])
    out_path = Path(sys.argv[4])
    print("ready", flush=True)
    channels = []
    while len(channels) < n_connections and wait_ready([box], timeout=120.0):
        while (len(channels) < n_connections
               and (channel := box.try_collect()) is not None):
            channels.append(channel)
    box.close()
    results = [{"seqs": [], "checksum_failures": 0} for _ in channels]
    pending = dict(zip(channels, results))  # the connections still read
    while pending:
        ready = wait_ready(list(pending), timeout=120.0)
        if not ready:
            break  # stalled: the report shows what arrived
        for channel in ready:
            text = channel.try_collect()
            if text is None:
                continue
            report = pending[channel]
            *data, tail = wire.parse(text, "edge-v1")
            if tail.phoneme != "x" + batch_digest(data):
                report["checksum_failures"] += 1
            report["seqs"].append(tail.begin)
            if len(report["seqs"]) == n_batches:
                del pending[channel]
    for channel in channels:
        channel.close()
    out_path.write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
