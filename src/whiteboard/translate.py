"""Dictionary-based word-for-word translation onto a target-word layer.

Each lexical node of the syntactic layer fans out into one target node per
dictionary meaning, all sharing the source node's span and score. A
translation is a one-child derivation written by
:func:`whiteboard.chart.add_derivation`: one grey node `target<-source`,
carrying the score, takes the syntax node as its input and the target
node as its output. Arcs between translated source nodes are mirrored
pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import Layer
from .chart import add_derivation
from .errors import DuplicateSource, NotSealed, ParseError
from .wire import token_ok


@dataclass(frozen=True)
class DictionaryEntry:
    source: str
    targets: tuple[tuple[str, str], ...]  # (target word, sense tag)


class Dictionary:
    def __init__(self, entries: dict[str, DictionaryEntry]):
        self.entries = entries

    def meanings(self, label: str) -> tuple[str, ...]:
        """The target words of a source word. A word with no entry is
        copied through, so a coverage gap shows as a `w<-w` grey node."""
        entry = self.entries.get(label)
        return (tuple(word for word, _ in entry.targets) if entry is not None
                else (label,))


def load_dictionary(text: str) -> Dictionary:
    """Parse `source : t1, t2, ...` lines; `;` comments and blanks ignored.

    Sense tags are assigned positionally (s1, s2, ...), one per meaning.
    Every word is a label that travels on the wire, so it must be a legal
    wire token.
    """
    entries: dict[str, DictionaryEntry] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'source : targets'", lineno)
        source, _, targets_text = line.partition(":")
        source = source.strip()
        if not token_ok(source):
            raise ParseError(f"bad source word {source!r}", lineno)
        targets = tuple(t.strip() for t in targets_text.split(",") if t.strip())
        if not targets:
            raise ParseError(f"no targets for {source!r}", lineno)
        for target in targets:
            if not token_ok(target):
                raise ParseError(f"target word {target!r} of {source!r} is not "
                                 f"a legal wire token", lineno)
        if source in entries:
            raise DuplicateSource(source)
        entries[source] = DictionaryEntry(
            source, tuple((t, f"s{i + 1}") for i, t in enumerate(targets)))
    return Dictionary(entries)


def translate_layer(syn_layer: Layer, dictionary: Dictionary,
                    ww_layer: Layer, lexical_labels: set[str]) -> dict[int, list[int]]:
    """Fill the target-word layer from the syntactic layer.

    Each lexical node fans out into its :meth:`Dictionary.meanings`, one
    derivation per target word. Returns the source-node to target-node
    mapping.
    """
    if not syn_layer.sealed:
        raise NotSealed(f"layer {syn_layer.name!r} must be sealed before translation")
    mapping: dict[int, list[int]] = {}
    for node in sorted(syn_layer.white_nodes.values(), key=lambda n: n.id):
        if node.label in lexical_labels:
            mapping[node.id] = [
                add_derivation(ww_layer, node.span, word, node.score, [node.id])
                for word in dictionary.meanings(node.label)]
    for arc in sorted(syn_layer.arcs.values(), key=lambda a: a.id):
        if arc.origin not in mapping or arc.extremity not in mapping:
            continue
        for a in mapping[arc.origin]:
            for b in mapping[arc.extremity]:
                ww_layer.add_arc_once(a, b, arc.weight)
    return mapping
