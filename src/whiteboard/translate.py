"""Dictionary-based word-for-word translation onto a target-word layer.

Each lexical node of the syntactic layer fans out into one target node per
dictionary meaning, all sharing the source node's span and score. Arcs
between translated source nodes are mirrored pairwise, and a grey node ties
every source node to its translations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import Layer
from .errors import DuplicateSource, NotSealed, ParseError


@dataclass(frozen=True)
class DictionaryEntry:
    source: str
    targets: tuple[tuple[str, str], ...]  # (target word, sense tag)


class Dictionary:
    def __init__(self, entries: dict[str, DictionaryEntry]):
        self.entries = entries

    def meanings(self, label: str) -> tuple[tuple[str, str], ...]:
        """(target word, sense tag) pairs for a source word. A word with no
        entry is copied through with the sense tag "untranslated", so
        coverage gaps stay visible."""
        entry = self.entries.get(label)
        return entry.targets if entry is not None else ((label, "untranslated"),)


def load_dictionary(text: str) -> Dictionary:
    """Parse `source : t1, t2, ...` lines; `;` comments and blanks ignored.

    Sense tags are assigned positionally (s1, s2, ...), one per meaning.
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
        if not source or " " in source:
            raise ParseError(f"bad source word {source!r}", lineno)
        targets = tuple(t.strip() for t in targets_text.split(",") if t.strip())
        if not targets:
            raise ParseError(f"no targets for {source!r}", lineno)
        if source in entries:
            raise DuplicateSource(source)
        entries[source] = DictionaryEntry(
            source, tuple((t, f"s{i + 1}") for i, t in enumerate(targets)))
    return Dictionary(entries)


def translate_layer(syn_layer: Layer, dictionary: Dictionary,
                    ww_layer: Layer, lexical_labels: set[str]) -> dict[int, list[int]]:
    """Fill the target-word layer from the syntactic layer.

    Each lexical node fans out into its :meth:`Dictionary.meanings`.
    Returns the source-node to target-node mapping.
    """
    if not syn_layer.sealed:
        raise NotSealed(f"layer {syn_layer.name!r} must be sealed before translation")
    mapping: dict[int, list[int]] = {}
    for node in sorted(syn_layer.white_nodes.values(), key=lambda n: n.id):
        if node.label not in lexical_labels:
            continue
        targets = []
        for word, sense in dictionary.meanings(node.label):
            target_id, _ = ww_layer.add_white_node(
                node.span, word, node.score,
                {"source": node.label, "sense": sense})
            targets.append(target_id)
        mapping[node.id] = targets
        ww_layer.add_grey_node("ww", (node.id,), tuple(targets))
    for arc in sorted(syn_layer.arcs.values(), key=lambda a: a.id):
        if arc.origin not in mapping or arc.extremity not in mapping:
            continue
        for a in mapping[arc.origin]:
            for b in mapping[arc.extremity]:
                ww_layer.add_arc_once(a, b, arc.weight)
    return mapping
