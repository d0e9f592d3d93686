"""A demo run serves all of its utterances through one trio of manager
processes, with fresh connections, components and boards per utterance."""

import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

from whiteboard import canonical_form, demo, from_json, load_dictionary, load_grammar
from whiteboard.demo import DemoConfig, demo_run

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workload  # noqa: E402  (the benchmark's in-process build is the reference)


def test_one_trio_serves_every_utterance_of_a_run(tmp_path, fixtures_dir,
                                                  monkeypatch):
    matrices = tmp_path / "mat"
    matrices.mkdir()
    for fixture in sorted(fixtures_dir.glob("*.mat")):
        shutil.copy(fixture, matrices / fixture.name)
    for words in (3, 4, 5):
        [utterance], grammar_path, dict_path = workload.write_inputs(
            REPO, tmp_path / f"{words}-words", "long", 23, 1, words)
        shutil.copy(utterance.path, matrices / f"phrase-{words}.mat")

    spawned = []
    spawn = demo._spawn_worker

    def counting_spawn(role, *args, **kwargs):
        spawned.append(role)
        return spawn(role, *args, **kwargs)

    monkeypatch.setattr(demo, "_spawn_worker", counting_spawn)
    hooked = defaultdict(list)
    out = tmp_path / "boards"
    result = demo_run(DemoConfig(matrices=matrices, grammar=grammar_path,
                                 dictionary=dict_path, out=out, sleep_time=0.01),
                      process_hook=lambda role, proc: hooked[role].append(proc))

    assert result.exit_code == 0, [u.error for u in result.utterances]
    names = ["hai", "iie", "mizu", "phrase-3", "phrase-4", "phrase-5"]
    assert [u.name for u in result.utterances] == names
    assert sorted(spawned) == sorted(demo.ROLES)
    for role in demo.ROLES:
        assert len(hooked[role]) == len(names)
        assert all(proc is hooked[role][0] for proc in hooked[role])
        assert hooked[role][0].poll() is not None  # stopped with the run
    # a parser or translator id carried over from the previous utterance
    # would lose or misplace records on the next board
    grammar = load_grammar(grammar_path.read_text())
    dictionary = load_dictionary(dict_path.read_text())
    phrase_ww_arcs = 0
    for name in names:
        board = from_json((out / f"{name}.json").read_text())
        reference = workload.build_board((matrices / f"{name}.mat").read_text(),
                                         grammar, dictionary)
        assert canonical_form(board) == canonical_form(reference), name
        if name.startswith("phrase"):
            phrase_ww_arcs += len(board.layers["ww"].arcs)
    assert phrase_ww_arcs > 0


def test_a_worker_lost_between_utterances_fails_the_next_one_at_once(
        tmp_path, fixtures_dir):
    hooks = defaultdict(int)

    def hook(role, proc):
        hooks[role] += 1
        if role == "parser" and hooks[role] == 2:
            proc.kill()
            proc.wait()

    start = time.monotonic()
    result = demo_run(DemoConfig(matrices=fixtures_dir,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards", sleep_time=0.01),
                      process_hook=hook)
    elapsed = time.monotonic() - start
    # opening a connection to the dead parser would wait out its 10 s timeout
    assert elapsed < 5.0
    assert result.exit_code == 1
    first, second = result.utterances
    assert (first.name, first.ok) == ("hai", True)
    assert (second.name, second.error) == ("iie", "manager process died: parser")


@pytest.mark.parametrize("directory, name", [("two words", "hai.mat"),
                                             ("plain", "hai(1).mat")])
def test_a_matrix_path_that_is_not_a_wire_token_is_a_config_error(
        tmp_path, fixtures_dir, directory, name):
    matrices = tmp_path / directory
    matrices.mkdir()
    shutil.copy(fixtures_dir / "hai.mat", matrices / name)
    result = demo_run(DemoConfig(matrices=matrices,
                                 grammar=fixtures_dir / "words.grammar",
                                 dictionary=fixtures_dir / "words.dict",
                                 out=tmp_path / "boards"))
    assert result.exit_code == 2
    assert str(matrices / name) in result.config_error
    assert result.utterances == []
