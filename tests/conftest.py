import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent.parent / "src" / "whiteboard" / "fixtures"

# one line per acceptance criterion, echoed after the run ends
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def _manager_thread(thread: threading.Thread) -> bool:
    """A manager service loop started on a thread."""
    return "(run_manager)" in thread.name


@pytest.fixture(autouse=True)
def no_manager_threads_left():
    """Fail a test that leaves manager threads running after its teardown."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate()
               if t not in before and _manager_thread(t)]
    for thread in started:
        thread.join(timeout=1.0)
    alive = [t.name for t in started if t.is_alive()]
    assert not alive, f"manager threads left running: {alive}"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
