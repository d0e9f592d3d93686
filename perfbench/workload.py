"""Seeded inputs for the benchmark, the in-process build, and the board check.

The program only ever sees the files written here: one `.mat` file per
utterance, a grammar and a dictionary. Utterances concatenate dictionary
words; every phoneme gets a main cell and a runner-up cell over the same
three frames, and a fixed share of short low-score noise cells keeps the
whole phoneme inventory in play (the demo rejects an utterance whose
alphabet misses a grammar terminal).
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from whiteboard import chart, grid, translate
from whiteboard.board import TimeSpan, Whiteboard

FRAMES_PER_PHONEME = 3
NOISE_PER_PHONEME = 0.3
TOPK = 3
BEAM = 16
THRESHOLDS = grid.Thresholds()


@dataclass
class Utterance:
    name: str
    path: Path
    cells: int
    words: list[tuple[int, int, str]]  # (begin, end, word): the ground truth


def shipped_fixtures(root: Path) -> Path:
    return root / "src" / "whiteboard" / "fixtures"


def lexicon(grammar: chart.Grammar, dictionary: translate.Dictionary):
    """Spelling of every dictionary word that the grammar spells out in
    terminals, and the grammar's terminal inventory."""
    heads = grammar.nonterminals
    spelling = {r.lhs: r.rhs for r in grammar.rules
                if r.lhs in dictionary.entries
                and all(s not in heads for s in r.rhs)}
    return spelling, sorted(grammar.terminals)


def phrase_grammar(shipped_text: str, words) -> str:
    """The shipped grammar plus `P -> w1 w2` for every word pair and
    `S -> P P`, so parses span phrases and syntax gets lexical-sibling arcs
    that the translator mirrors into ww."""
    lines = [shipped_text.rstrip("\n"), "; benchmark phrase rules"]
    lines += [f"P -> {a} {b}" for a in words for b in words]
    lines.append("S -> P P")
    return "\n".join(lines) + "\n"


def matrix_text(rng: random.Random, words: list[str], spelling,
                inventory: list[str]) -> tuple[str, int, list]:
    cells: dict[tuple[int, int, str], float] = {}
    truth = []
    spans = []
    frame = 0
    for word in words:
        begin = frame
        for phoneme in spelling[word]:
            span = (frame, frame + FRAMES_PER_PHONEME)
            cells[(*span, phoneme)] = rng.uniform(0.8, 0.95)
            runner_up = rng.choice([p for p in inventory if p != phoneme])
            cells[(*span, runner_up)] = rng.uniform(0.2, 0.45)
            spans.append(span)
            frame += FRAMES_PER_PHONEME
        truth.append((begin, frame, word))
    present = {p for _, _, p in cells}
    noise = [p for p in inventory if p not in present]
    noise += [rng.choice(inventory)
              for _ in range(round(NOISE_PER_PHONEME * len(spans)))]
    for phoneme in noise:
        while True:
            begin, _ = rng.choice(spans)
            begin += rng.randint(0, FRAMES_PER_PHONEME - 2)
            key = (begin, begin + rng.randint(1, 2), phoneme)
            if key not in cells:
                cells[key] = 0.05
                break
    lines = [f"({b} {e} {p} {s:.4f})" for (b, e, p), s in sorted(cells.items())]
    return "\n".join(lines) + "\n", len(cells), truth


WORDS = {"long": 30, "inproc": 120}
SHORT_SIZES = (3, 2, 1, 2, 3, 2)


def write_inputs(root: Path, work: Path, workload: str, seed: int, count: int,
                 words_per_utterance: int | None = None
                 ) -> tuple[list[Utterance], Path, Path]:
    """Write `count` utterances plus the grammar and dictionary for one
    workload under `work`; returns (utterances, grammar path, dict path).
    `short` uses the shipped grammar, the others add phrase rules."""
    fixtures = shipped_fixtures(root)
    grammar_text = (fixtures / "words.grammar").read_text(encoding="utf-8")
    dict_path = fixtures / "words.dict"
    dictionary = translate.load_dictionary(dict_path.read_text(encoding="utf-8"))
    spelling, inventory = lexicon(chart.load_grammar(grammar_text), dictionary)
    words = sorted(spelling)
    if workload != "short":
        grammar_text = phrase_grammar(grammar_text, words)
    mats = work / "mat"
    if mats.exists():
        shutil.rmtree(mats)
    mats.mkdir(parents=True)
    grammar_path = work / "words.grammar"
    grammar_path.write_text(grammar_text, encoding="utf-8")

    rng = random.Random(f"{workload}:{seed}")
    utterances: list[Utterance] = []
    if workload == "short":
        for i, fixture in enumerate(sorted(fixtures.glob("*.mat"))):
            path = mats / f"u{i:04d}.mat"
            shutil.copyfile(fixture, path)
            word = fixture.stem
            length = FRAMES_PER_PHONEME * len(spelling[word])
            text = path.read_text(encoding="utf-8")
            cells = sum(1 for line in text.splitlines() if line.startswith("("))
            utterances.append(Utterance(path.stem, path, cells,
                                        [(0, length, word)]))
    n_words = words_per_utterance or WORDS.get(workload)
    # no ww node can appear before the whole opening word has arrived, so
    # a seeded opener would make first_ww follow the draw of the few
    # utterances in a run; openers cycle through the words instead,
    # shortest spelling first, which keeps the median among the shortest
    openers = sorted(words, key=lambda w: (len(spelling[w]), w))
    while len(utterances) < count:
        i = len(utterances)
        # short cycles through 1-, 2- and 3-word utterances so every run
        # sees the same size mix; with the three one-word fixtures ahead,
        # this cycle puts a run's median inside the two-word sizes rather
        # than on a boundary between sizes
        size = n_words or SHORT_SIZES[i % len(SHORT_SIZES)]
        chosen = [openers[i % len(openers)]]
        chosen += [rng.choice(words) for _ in range(size - 1)]
        text, cells, truth = matrix_text(rng, chosen, spelling, inventory)
        path = mats / f"u{i:04d}.mat"
        path.write_text(text, encoding="utf-8")
        utterances.append(Utterance(path.stem, path, cells, truth))
    return utterances, grammar_path, dict_path


# -- the in-process build -----------------------------------------------------

def declare_layers(board: Whiteboard, alphabet, grammar, dictionary) -> None:
    """The demo's three layers with the demo's legal labels."""
    ww_labels = grammar.lexical_labels | {
        word for entry in dictionary.entries.values()
        for word, _ in entry.targets}
    board.declare_layer("phonemes", legal_labels=alphabet)
    board.declare_layer("syntax", legal_labels=alphabet | grammar.nonterminals,
                        depends_on={"phonemes"})
    board.declare_layer("ww", legal_labels=ww_labels, depends_on={"syntax"})


def build_board(matrix_text_: str, grammar, dictionary, stage=None) -> Whiteboard:
    """Build and seal one utterance's board with the batch functions.

    `stage(name, board)` is called after each stage, so a caller can
    timestamp them. Functions are looked up on their modules at call time, so the
    benchmark's probes see these calls too.
    """
    stage = stage or (lambda name, board_: None)
    matrices = grid.parse_matrix_file(matrix_text_)
    board = Whiteboard()
    declare_layers(board, {m.phoneme for m in matrices}, grammar, dictionary)
    phonemes, syntax, ww = (board.layers[n] for n in ("phonemes", "syntax", "ww"))
    ranked = grid.topk_matrices(matrices, TOPK)
    nodes = [grid.GridNode(TimeSpan(b, e), p, s)
             for rm in ranked for (b, e), (p, s) in sorted(rm.cells.items())]
    grid.grid_to_lattice(nodes, THRESHOLDS, phonemes)
    stage("phonemes", board)
    cells = [(n.span.begin, n.span.end, n.label, n.score)
             for n in phonemes.white_nodes.values()]
    parsed = chart.chart_from_cells(cells, THRESHOLDS)
    derived = chart.island_parse(parsed, grammar, THRESHOLDS, BEAM)
    chart.chart_to_lattice(derived, syntax)
    stage("syntax", board)
    phonemes.seal()
    syntax.seal()
    translate.translate_layer(syntax, dictionary, ww, grammar.lexical_labels)
    stage("ww", board)
    ww.seal()
    return board


# -- the check ------------------------------------------------------------------

def layer_image(layer) -> tuple[dict, dict]:
    """White nodes keyed by (begin, end, label) with scores, and arcs keyed
    by their endpoints' keys with weights. Grey nodes and readings are left
    out: the distributed build gives them different shapes by design."""
    key = {n.id: (n.span.begin, n.span.end, n.label)
           for n in layer.white_nodes.values()}
    nodes = {key[n.id]: round(n.score, 9) for n in layer.white_nodes.values()}
    arcs = {(key[a.origin], key[a.extremity]): round(a.weight, 9)
            for a in layer.arcs.values()}
    return nodes, arcs


def board_differences(got: Whiteboard, want: Whiteboard) -> list[str]:
    """Human-readable differences between two boards' layer images."""
    out = []
    for name in ("phonemes", "syntax", "ww"):
        for kind, g, w in zip(("nodes", "arcs"), layer_image(got.layers[name]),
                              layer_image(want.layers[name])):
            missing = len(w.keys() - g.keys())
            extra = len(g.keys() - w.keys())
            changed = sum(1 for k in w.keys() & g.keys() if w[k] != g[k])
            if missing or extra or changed:
                out.append(f"{name} {kind}: {len(g)} of {len(w)} "
                           f"(missing {missing}, extra {extra}, "
                           f"changed {changed})")
    return out


def truth_differences(board: Whiteboard, truth, dictionary) -> list[str]:
    """Every spoken word must be a syntax node, and each of its
    translations a ww node over the same frames."""
    syntax, _ = layer_image(board.layers["syntax"])
    ww, _ = layer_image(board.layers["ww"])
    out = []
    for begin, end, word in truth:
        if (begin, end, word) not in syntax:
            out.append(f"word {word} at {begin}-{end} missing from syntax")
        for target, _ in dictionary.entries[word].targets:
            if (begin, end, target) not in ww:
                out.append(f"{target} at {begin}-{end} missing from ww")
    return out

