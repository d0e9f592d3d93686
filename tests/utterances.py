"""Seeded multi-word test utterances spliced from the shipped fixtures."""

from __future__ import annotations

import random

from whiteboard import parse_matrix_file


def spliced_utterances(fixtures_dir, out_dir, seed=11):
    """Seeded 2- and 3-word utterances: fixture cells laid end to end, each
    word's frames shifted past the end of the word before it."""
    words = {p.stem: parse_matrix_file(p.read_text())
             for p in sorted(fixtures_dir.glob("*.mat"))}
    rng = random.Random(seed)
    out_dir.mkdir()
    files = []
    for size in (2, 2, 3):
        chosen = [rng.choice(sorted(words)) for _ in range(size)]
        lines, offset = [], 0
        for word in chosen:
            for m in words[word]:
                lines += [f"({b + offset} {e + offset} {m.phoneme} {score!r})"
                          for (b, e), score in sorted(m.scores.items())]
            offset += words[word][0].frame_count
        path = out_dir / f"{len(files)}-{'-'.join(chosen)}.mat"
        path.write_text("\n".join(lines) + "\n")
        files.append(path)
    return files
