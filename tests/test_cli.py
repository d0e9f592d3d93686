import gc
import json
import re
import weakref
from pathlib import Path

from whiteboard import TimeSpan, Whiteboard, demo, filter_slice, to_json
from whiteboard.cli import build_arg_parser, main
from whiteboard.demo import DemoConfig, DemoResult, demo_run
from whiteboard.grid import Thresholds


def export_file(tmp_path):
    board = Whiteboard()
    layer = board.declare_layer("syntax")
    a, _ = layer.add_white_node(TimeSpan(0, 3), "hai", 0.9)
    b, _ = layer.add_white_node(TimeSpan(3, 6), "desu", 0.2)
    layer.add_arc(a, b)
    layer.add_grey_node("R1", [a], [b], 0.2)
    path = tmp_path / "board.json"
    path.write_text(to_json(board), encoding="utf-8")
    return path, board


def test_demo_run_flags_parse():
    args = build_arg_parser().parse_args([
        "demo", "run", "--matrices", "m", "--grammar", "g", "--dict", "d",
        "--max-gap", "1", "--max-overlap", "3", "--topk", "2",
        "--threshold-syntax", "0.5", "--threshold-ww", "0.1",
        "--sleep", "25", "--export", "dot", "--out", "o", "--step"])
    assert args.group == "demo" and args.command == "run"
    assert args.max_gap == 1 and args.max_overlap == 3
    assert args.threshold_syntax == 0.5 and args.step


def test_lattice_show_flags_parse():
    args = build_arg_parser().parse_args([
        "lattice", "show", "f.json", "--layer", "ww",
        "--threshold", "0.5", "--hide-grey"])
    assert args.group == "lattice" and args.command == "show"
    assert args.hide_grey and args.layer == "ww"


def test_lattice_show_renders_dot(tmp_path, capsys):
    path, _ = export_file(tmp_path)
    assert main(["lattice", "show", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "shape=box" in out and "diamond" in out


def test_lattice_show_hide_grey(tmp_path, capsys):
    path, _ = export_file(tmp_path)
    assert main(["lattice", "show", str(path), "--hide-grey"]) == 0
    assert "diamond" not in capsys.readouterr().out


def test_lattice_show_threshold_matches_filter_slice(tmp_path, capsys):
    path, board = export_file(tmp_path)
    assert main(["lattice", "show", str(path), "--threshold", "0.5"]) == 0
    out = capsys.readouterr().out
    rendered = out.count("shape=box")
    syntax = board.layers["syntax"]
    expected = len(filter_slice(list(syntax.white_nodes.values()),
                                list(syntax.arcs.values()), 0.5)[0])
    assert rendered == expected == 1


def test_lattice_show_empty_board(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(to_json(Whiteboard()), encoding="utf-8")
    assert main(["lattice", "show", str(path)]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_lattice_show_bad_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["lattice", "show", str(path)]) == 2
    assert main(["lattice", "show", str(tmp_path / "missing.json")]) == 2
    good, _ = export_file(tmp_path)
    doc = json.loads(good.read_text(encoding="utf-8"))
    doc["layers"][0]["nodes"][0]["begin"] = "0"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["lattice", "show", str(path)]) == 2
    assert "wrong type" in capsys.readouterr().err


def test_lattice_show_rejects_an_export_no_build_makes(tmp_path, capsys):
    path, _ = export_file(tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    [layer] = doc["layers"]
    hai, desu = (n["id"] for n in layer["nodes"])
    layer["arcs"].append(
        {"id": 99, "origin": desu, "extremity": hai, "weight": 0.0})
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["lattice", "show", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"arc {desu}->{hai} does not run forward in time" in captured.err


def test_lattice_show_refuses_a_layer_the_export_lacks(tmp_path, capsys):
    path, _ = export_file(tmp_path)
    assert main(["lattice", "show", str(path), "--layer", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--layer nope" in captured.err
    assert "its layers are syntax" in captured.err


def exit_code(argv) -> int:
    """`main`'s exit code, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_a_threshold_must_be_a_finite_number(tmp_path, capsys):
    path, _ = export_file(tmp_path)
    demo_run = ["demo", "run", "--matrices", "m", "--grammar", "g",
                "--dict", "d", "--out", str(tmp_path / "o")]
    for argv, flag in ((["lattice", "show", str(path)], "--threshold"),
                       (demo_run, "--threshold-syntax"),
                       (demo_run, "--threshold-ww")):
        for value in ("nan", "inf", "-inf"):
            assert exit_code(argv + [f"{flag}={value}"]) == 2, (flag, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {flag}: not a finite number" in captured.err


def test_demo_run_bad_fixture_exits_2(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["demo", "run", "--matrices", str(tmp_path / "nowhere"),
                 "--grammar", "g", "--dict", "d", "--out", str(out)])
    assert code == 2


def test_demo_run_rejects_bad_knobs(tmp_path, capsys):
    base = ["demo", "run", "--matrices", "m", "--grammar", "g",
            "--dict", "d", "--out", str(tmp_path / "o")]
    for flags in (["--sleep", "0"], ["--sleep", "nan"], ["--topk", "0"],
                  ["--beam", "-1"], ["--max-gap", "-1"], ["--max-overlap", "-1"]):
        assert exit_code(base + flags) == 2, flags
        assert f"argument {flags[0]}: not a " in capsys.readouterr().err, flags


def test_demo_run_leaves_each_option_not_given_at_the_configs_default(
        monkeypatch):
    configs = []
    monkeypatch.setattr("whiteboard.cli.demo_run",
                        lambda config: configs.append(config) or DemoResult())
    required = {"matrices": "m", "grammar": "g", "dictionary": "d", "out": "o"}
    main(["demo", "run", "--matrices", "m", "--grammar", "g", "--dict", "d",
          "--out", "o"])
    main(["demo", "run", "--matrices", "m", "--grammar", "g", "--dict", "d",
          "--out", "o", "--max-gap", "1", "--max-overlap", "3", "--topk", "2",
          "--threshold-syntax", "0.5", "--threshold-ww", "0.1", "--sleep", "25",
          "--export", "dot", "--step", "--beam", "0"])
    paths = {name: Path(value) for name, value in required.items()}
    assert configs == [
        DemoConfig(**paths),
        DemoConfig(**paths, thresholds=Thresholds(1, 3), topk=2,
                   threshold_syntax=0.5, threshold_ww=0.1, sleep_time=0.025,
                   export_format="dot", step=True, beam=0)]


def test_step_mode_runs_exactly_n_rounds(tmp_path, fixtures_dir):
    config = DemoConfig(
        matrices=fixtures_dir / "hai.mat",
        grammar=fixtures_dir / "words.grammar",
        dictionary=fixtures_dir / "words.dict",
        out=tmp_path / "out.json",
        thresholds=Thresholds(2, 2),
        sleep_time=0.005,
        step=True,
    )
    result = demo_run(config, control_lines=iter(["step", "step", "step", "quit"]))
    [utterance] = result.utterances
    assert utterance.status["rounds"] == 3
    # three rounds cannot bring the translator's reply back: quitting here
    # leaves batches in flight, whatever closing drains afterwards
    assert utterance.status["settled"] is False


def test_step_mode_notes_a_dead_manager_on_its_binding(tmp_path, fixtures_dir):
    spawned = {}

    def commands():
        yield "step"
        spawned["parser"].kill()
        spawned["parser"].wait()
        yield "step"
        yield "quit"

    config = DemoConfig(
        matrices=fixtures_dir / "hai.mat",
        grammar=fixtures_dir / "words.grammar",
        dictionary=fixtures_dir / "words.dict",
        out=tmp_path / "out.json",
        thresholds=Thresholds(2, 2),
        sleep_time=0.005,
        step=True,
    )
    result = demo_run(config, control_lines=commands(),
                      process_hook=lambda role, proc: spawned.setdefault(role, proc))
    assert result.exit_code == 1
    [utterance] = result.utterances
    assert utterance.error == "manager process died: parser"
    # the second step reads the hang-up, which ends the utterance
    assert utterance.status["rounds"] == 2
    assert utterance.status["per_binding"]["parser"]["errors"] == [
        "its manager hung up", "manager process died"]
    assert utterance.status["per_binding"]["source"]["errors"] == []


def test_an_out_path_that_cannot_be_written_is_a_config_error(
        tmp_path, fixtures_dir, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    spawned = []
    result = demo_run(DemoConfig(matrices=fixtures_dir / "hai.mat",
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=blocker / "out.json", sleep_time=0.01),
                      process_hook=lambda role, proc: spawned.append(proc))
    assert result.exit_code == 2
    assert str(blocker) in result.config_error
    assert len(spawned) == 3
    assert all(proc.poll() is not None for proc in spawned)  # none left behind
    assert main(["demo", "run", "--matrices", str(fixtures_dir / "hai.mat"),
                 "--grammar", str(fixtures_dir / "words.grammar"),
                 "--dict", str(fixtures_dir / "words.dict"),
                 "--out", str(blocker / "out.json"), "--sleep", "10"]) == 2
    assert str(blocker) in capsys.readouterr().err


def test_demo_dot_export_end_to_end(tmp_path, fixtures_dir):
    config = DemoConfig(
        matrices=fixtures_dir / "iie.mat",
        grammar=fixtures_dir / "words.grammar",
        dictionary=fixtures_dir / "words.dict",
        out=tmp_path / "iie.dot",
        export_format="dot",
        sleep_time=0.01,
    )
    result = demo_run(config)
    assert result.exit_code == 0
    dot = (tmp_path / "iie.dot").read_text(encoding="utf-8")
    assert dot.startswith("digraph")
    assert dot.count("subgraph cluster_") == 3
    assert '"no\\n' in dot and '"nay\\n' in dot


def test_demo_runs_every_utterance_in_a_directory(tmp_path, fixtures_dir):
    out_dir = tmp_path / "boards"
    config = DemoConfig(
        matrices=fixtures_dir,
        grammar=fixtures_dir / "words.grammar",
        dictionary=fixtures_dir / "words.dict",
        out=out_dir,
        sleep_time=0.01,
    )
    result = demo_run(config)
    assert result.exit_code == 0
    assert [u.name for u in result.utterances] == ["hai", "iie", "mizu"]
    assert all(u.status["settled"] for u in result.utterances)
    expected = {"hai": ["ashes", "the-lungs", "yes", "yes-sir"],
                "iie": ["nay", "no"],
                "mizu": ["cold-water", "water"]}
    for utterance in result.utterances:
        doc = json.loads((out_dir / f"{utterance.name}.json").read_text())
        [ww] = [layer for layer in doc["layers"] if layer["name"] == "ww"]
        assert sorted(n["label"] for n in ww["nodes"]) == expected[utterance.name]


def test_demo_run_holds_one_board_at_a_time(tmp_path, fixtures_dir,
                                           monkeypatch):
    boards = []
    alive_at_export = []

    def keeping_to_json(board, *args, **kwargs):
        gc.collect()
        alive_at_export.append(sum(ref() is not None for ref in boards))
        boards.append(weakref.ref(board))
        return to_json(board, *args, **kwargs)

    monkeypatch.setattr(demo, "to_json", keeping_to_json)
    result = demo_run(DemoConfig(
        matrices=fixtures_dir,
        grammar=fixtures_dir / "words.grammar",
        dictionary=fixtures_dir / "words.dict",
        out=tmp_path / "boards",
        sleep_time=0.01,
    ))
    assert result.exit_code == 0
    # each earlier board was gone by the time the next one was exported
    assert alive_at_export == [0, 0, 0]
    assert [u.board is None for u in result.utterances] == [True, True, False]
    del result
    gc.collect()
    assert [ref() for ref in boards] == [None, None, None]


def test_corrupt_grammar_is_a_config_error(tmp_path, fixtures_dir):
    grammar = tmp_path / "broken.grammar"
    grammar.write_text("W a i\n", encoding="utf-8")
    config = DemoConfig(
        matrices=fixtures_dir / "hai.mat",
        grammar=grammar,
        dictionary=fixtures_dir / "words.dict",
        out=tmp_path / "out.json",
    )
    result = demo_run(config)
    assert result.exit_code == 2
    assert result.config_error is not None


def test_a_matrix_line_spaced_otherwise_fails_the_run_at_its_column(
        tmp_path, fixtures_dir, capsys):
    hai = (fixtures_dir / "hai.mat").read_text(encoding="utf-8").split("\n")
    assert hai[3] == "(3 6 a 0.95)"
    run = ["demo", "run", "--grammar", str(fixtures_dir / "words.grammar"),
           "--dict", str(fixtures_dir / "words.dict"), "--sleep", "10"]
    misspaced = tmp_path / "misspaced" / "hai.mat"
    misspaced.parent.mkdir()
    misspaced.write_text("\n".join(hai[:3] + ["(3  6 a 0.95)"] + hai[4:]),
                         encoding="utf-8")
    assert main(run + ["--matrices", str(misspaced),
                       "--out", str(tmp_path / "misspaced.json")]) == 2
    assert ("error: hai.mat: line 4, column 4: end: not an integer: ' '"
            in capsys.readouterr().err)
    # scores with four decimals, as the benchmark writes them, and comments
    four = tmp_path / "four" / "hai.mat"
    four.parent.mkdir()
    four.write_text("\n".join(
        re.sub(r" (\d\.\d+)\)", lambda m: " %.4f) ; cell" % float(m[1]), line)
        for line in hai), encoding="utf-8")
    assert "(3 6 a 0.9500) ; cell" in four.read_text(encoding="utf-8")
    assert main(run + ["--matrices", str(four),
                       "--out", str(tmp_path / "four.json")]) == 0
    assert "hai: ok" in capsys.readouterr().out
