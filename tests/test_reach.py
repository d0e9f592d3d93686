"""Every function under `src/whiteboard/` is run by the product, or is
listed below with the reason it may stay unreached.

The product's commands run in subprocesses with a `sitecustomize` on
`PYTHONPATH` that records, through `sys.setprofile` and
`threading.setprofile`, each code object of the package that is called,
and writes them out at exit. The workers the demo spawns inherit
`PYTHONPATH`, so they are traced too. A function is keyed by its file and
the line of its `def`, or of its first decorator, which is the first line
of its code object.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "whiteboard"
FIXTURES = PACKAGE / "fixtures"

# each function the product's commands may leave unreached, by its module
# and qualified name, and why; an error path names a test that reaches it
UNREACHED = {
    "coordinator._Bound.note": "error path: "
        "tests/test_coordinator.py::test_a_component_error_ends_the_pump_loop_at_once",
    "demo._binding_errors": "error path: "
        "tests/test_coordinator.py::test_a_component_error_ends_the_pump_loop_at_once",
    "errors.DuplicateSource.__init__": "error path: "
        "tests/test_translate.py::test_duplicate_source_rejected",
    "errors.ParseError.__init__": "error path: "
        "tests/test_wire.py::test_parse_error_carries_line_and_column",
    "manager._Manager._refuse": "error path: "
        "tests/test_manager.py::test_a_first_frame_that_is_not_one_open_request_is_refused",
    "wire._Row._arity_fault": "error path: "
        "tests/test_wire.py::test_arity_violation_is_parse_error",
    "wire._Row.fault": "error path: "
        "tests/test_wire.py::test_a_line_is_read_as_written_or_refused_at_a_column_of_its_own",
    "wire._fault": "error path: "
        "tests/test_wire.py::test_a_line_is_read_as_written_or_refused_at_a_column_of_its_own",
    "wire._what": "error path: "
        "tests/test_wire.py::test_a_line_is_read_as_written_or_refused_at_a_column_of_its_own",
    "wire.sanitize_token": "error path: "
        "tests/test_wire.py::test_error_record_message_is_sanitized",
    # what the benchmark under perfbench/ imports
    "grid.grid_to_lattice": "a batch loop of the benchmark's reference build "
                            "(ROADMAP item 6)",
    "chart.chart_from_cells": "a batch loop of the benchmark's reference build (item 6)",
    "chart.chart_to_lattice": "a batch loop of the benchmark's reference build (item 6)",
    "translate.translate_layer": "a batch loop of the benchmark's reference build "
                                 "(item 6)",
    "chart.Grammar.terminals": "read by the benchmark's workload generator (item 1)",
    # the board comparison, which the tests and the benchmark read
    "board.canonical_form": "the board comparison (item 16)",
    "board.canonical_form.global_key": "the board comparison (item 16)",
}

SITECUSTOMIZE = '''
import atexit
import os
import sys
import threading

_PACKAGE = os.environ["REACH_PACKAGE"]
_called = set()


def _profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
        _called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


@atexit.register
def _dump():
    sys.setprofile(None)
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"{name}:{line}\\n" for name, line in _called)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def defined_functions() -> dict[tuple[str, int], str]:
    """Every `def` under the package: (file, first line) -> module.qualname."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = (child.decorator_list[0].lineno if child.decorator_list
                        else child.lineno)
                found[(str(path), line)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def run_traced(tmp_path) -> set[tuple[str, int]]:
    """Run the product's commands traced, at a 1 ms pace; return what the
    processes called."""
    hook, out, boards = tmp_path / "hook", tmp_path / "called", tmp_path / "boards"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(PACKAGE.parent)]),
           "REACH_PACKAGE": str(PACKAGE) + os.sep, "REACH_OUT": str(out)}
    demo = [sys.executable, "-m", "whiteboard", "demo", "run",
            "--grammar", str(FIXTURES / "words.grammar"),
            "--dict", str(FIXTURES / "words.dict"), "--sleep", "1"]
    export = boards / "json" / "hai.json"
    show = [sys.executable, "-m", "whiteboard", "lattice", "show", str(export)]

    batches = [  # the second shows an export the first writes
        [(demo + ["--matrices", str(FIXTURES), "--out", str(boards / "json")], None),
         (demo + ["--matrices", str(FIXTURES), "--export", "dot",
                  "--out", str(boards / "dot")], None),
         (demo + ["--matrices", str(FIXTURES / "hai.mat"), "--step",
                  "--out", str(boards / "step.json")], "step\nstatus\nquit\n")],
        [(show, None),
         (show + ["--layer", "ww", "--threshold", "0.5", "--hide-grey"], None)],
    ]
    codes = []
    for batch in batches:
        procs = [(subprocess.Popen(argv, env=env, cwd=tmp_path, text=True,
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE), stdin)
                 for argv, stdin in batch]
        for proc, stdin in procs:
            _, err = proc.communicate(stdin, timeout=60)
            codes.append((proc.returncode, err))
    # the step session quits before the pipeline settled, which fails it
    assert [code for code, _ in codes] == [0, 0, 1, 0, 0], codes
    assert "before the pipeline settled" in codes[2][1]
    called = set()
    for dump in out.iterdir():
        for line in dump.read_text(encoding="utf-8").splitlines():
            name, _, number = line.rpartition(":")
            called.add((name, int(number)))
    return called


def test_every_function_in_src_is_reached_or_listed(tmp_path):
    functions = defined_functions()
    names = sorted(functions.values())
    assert len(names) == len(set(names)), "two defs share a qualified name"
    assert set(UNREACHED) <= set(names), set(UNREACHED) - set(names)
    reached = {functions[key] for key in run_traced(tmp_path) if key in functions}
    unlisted = sorted(set(names) - reached - set(UNREACHED))
    assert not unlisted, f"neither reached nor listed: {unlisted}"
    listed = sorted(reached & set(UNREACHED))
    assert not listed, f"reached, so no longer to be listed: {listed}"


def test_each_listed_error_path_names_a_test_that_exists():
    for name, why in UNREACHED.items():
        if "::" in why:
            path, _, test = why.rpartition(" ")[2].partition("::")
            source = (REPO / path).read_text(encoding="utf-8")
            assert f"def {test}(" in source, (name, why)
