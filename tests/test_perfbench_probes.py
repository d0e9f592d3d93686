"""The benchmark's traced mode wraps program functions by module and class
attribute name (perfbench/probes.py). Installing the probes here makes a
deleted or renamed name fail the suite, not a later traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

from probes import Probe  # noqa: E402


def test_traced_probes_install_and_uninstall():
    probe = Probe(traced=True, seconds=1)
    probe.install()  # AttributeError if a patched name is gone
    patches = list(probe._patches)
    try:
        assert patches
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patches)
    finally:
        probe.uninstall()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patches)
