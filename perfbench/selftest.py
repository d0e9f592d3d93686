"""Shows that the benchmark's reference comparison catches a truncated board.

    python3 perfbench/selftest.py

Runs one seeded 60-word utterance (phrase grammar) through `demo_run` at a
5 ms poll. The demo reports it OK, but its quiet window (30 polls, 150 ms)
is shorter than one parser re-parse, and closing the connections discards
the results still in flight, so the board lacks syntax and ww nodes. The
check `run.py` applies to every pipeline board must flag it. The same
utterance at the default 50 ms poll is the control: it must pass the same
check. Exits 0 when both hold.
"""

from __future__ import annotations

import sys
import tempfile

import run

SEED = 60
WORDS = 60


def main() -> int:
    error = run.prepare_environment()
    if error:
        print(error, file=sys.stderr)
        return 2
    import harness
    import workload as W
    from whiteboard.chart import load_grammar
    from whiteboard.demo import DemoConfig, demo_run
    from whiteboard.translate import load_dictionary

    work = harness.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    [utterance], grammar_path, dict_path = W.write_inputs(
        harness.ROOT, work, "long", SEED, 1, words_per_utterance=WORDS)
    grammar = load_grammar(grammar_path.read_text(encoding="utf-8"))
    dictionary = load_dictionary(dict_path.read_text(encoding="utf-8"))
    reference = W.build_board(utterance.path.read_text(encoding="utf-8"),
                              grammar, dictionary)

    verdicts = []
    for sleep_time, want_flagged in ((0.005, True), (0.05, False)):
        result = demo_run(DemoConfig(
            matrices=utterance.path, grammar=grammar_path, dictionary=dict_path,
            out=work / "board.json", sleep_time=sleep_time,
            topk=W.TOPK, beam=W.BEAM))
        [done] = result.utterances
        differences = (W.board_differences(done.board, reference)
                       if done.board is not None else ["no board"])
        flagged = bool(differences) or not done.ok
        print(f"{WORDS} words at {sleep_time * 1000:g} ms poll: demo "
              f"{'OK' if done.ok else 'failed: ' + str(done.error)}; check "
              f"{'flags ' + '; '.join(differences) if differences else 'passes'}")
        verdicts.append(flagged == want_flagged)
    if not verdicts[0]:
        print("the 5 ms board matched the reference: if the quiet-window "
              "truncation is fixed, this case no longer shows the check biting")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
