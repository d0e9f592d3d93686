"""Consumer half of the two-process channel stress test.

Usage: python _stress_consumer.py ROOT N_CHANNELS N_BATCHES OUT_JSON

Opens the read ends of the channels ROOT/conn0..connN-1, prints
``ready``, and then reads N_BATCHES frames from each in one loop that
waits on all of them at once. It verifies the trailing checksum record of
every batch, and writes a JSON report with the sequence numbers seen and
any checksum failures.
"""

import hashlib
import json
import sys
from pathlib import Path

from whiteboard import wire
from whiteboard.mailbox import Channel, wait_ready


def batch_digest(records) -> str:
    text = wire.serialize(records, "edge-v1")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main() -> int:
    root = Path(sys.argv[1])
    n_channels = int(sys.argv[2])
    n_batches = int(sys.argv[3])
    out_path = Path(sys.argv[4])
    channels = [Channel(root / f"conn{c}").open_reader()
                for c in range(n_channels)]
    print("ready", flush=True)
    results = [{"seqs": [], "checksum_failures": 0} for _ in channels]
    pending = dict(zip(channels, results))  # the channels still read
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
