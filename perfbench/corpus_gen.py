"""Deterministic synthetic corpus for the benchmark.

Two classes of plain-text documents that differ the way prose styles do in
word-adjacency studies: the stopword rate differs per class, and one fixed
permutation of the top content ranks gives each class its own favourite
content words. Content words follow a Zipf-Mandelbrot law over a fixed
vocabulary of pseudo-words, with inflected surface forms from the shipped
lemma dictionary mixed in, so lemmatisation merges nodes as it does on real
text. ``vocab.json`` is a frozen copy of the stopword list and of the
inflected surfaces of the lemma dictionary, so edits to the program's data
files do not change the benchmark's inputs.

Only the seed varies between runs; everything else is fixed here. The
program sees the written text files and the manifest, nothing more.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path

LABELS = ("informative", "imaginative")
STOPWORD_RATE = {"informative": 0.40, "imaginative": 0.50}
CONTENT_VOCABULARY = 12_000
ZIPF_EXPONENT = 1.0
ZIPF_SHIFT = 2.7
STOP_EXPONENT = 1.1
INFLECTED_EVERY = 4  # every 4th content rank is an inflected dictionary form
REORDERED_TOP = 60  # the imaginative class permutes the top content ranks
REORDER_SEED = 20150728  # fixed; not the run seed
MEAN_SENTENCE = 16
# the commonest English function words lead the stopword ranks; the rest of
# the frozen stoplist follows in file order
STOP_HEAD = ("the", "of", "and", "to", "a", "in", "that", "is", "was", "he", "for",
             "it", "with", "as", "his", "on", "be", "at", "by", "i", "had", "not")

_VOCAB_FILE = Path(__file__).with_name("vocab.json")
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


def _pseudo_words(count: int, taken: set[str]) -> list[str]:
    """``count`` distinct lowercase CV-syllable words outside ``taken``."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words: list[str] = []
    for length in itertools.count(2):
        for combo in itertools.product(syllables, repeat=length):
            word = "".join(combo)
            if word not in taken:
                words.append(word)
                if len(words) == count:
                    return words


def _cumulative(weights: list[float]) -> list[float]:
    return list(itertools.accumulate(weights))


class Vocabulary:
    """The fixed ranked word lists and per-class sampling tables."""

    def __init__(self) -> None:
        frozen = json.loads(_VOCAB_FILE.read_text(encoding="utf-8"))
        stoplist: list[str] = frozen["stopwords"]
        head = [w for w in STOP_HEAD if w in stoplist]
        self.stopwords = head + [w for w in stoplist if w not in head]
        inflected: list[str] = frozen["inflected"]
        plain = _pseudo_words(CONTENT_VOCABULARY, set(stoplist) | set(inflected))
        content, p, q = [], 0, 0
        for rank in range(CONTENT_VOCABULARY):
            if rank % INFLECTED_EVERY == INFLECTED_EVERY - 1 and q < len(inflected):
                content.append(inflected[q])
                q += 1
            else:
                content.append(plain[p])
                p += 1
        reordered = content[:REORDERED_TOP]
        random.Random(REORDER_SEED).shuffle(reordered)
        self.content = {
            "informative": content,
            "imaginative": reordered + content[REORDERED_TOP:],
        }
        self.content_cum = _cumulative(
            [(r + ZIPF_SHIFT) ** -ZIPF_EXPONENT for r in range(CONTENT_VOCABULARY)]
        )
        self.stop_cum = _cumulative(
            [(r + 1.0) ** -STOP_EXPONENT for r in range(len(self.stopwords))]
        )


def _draw(rng: random.Random, words: list[str], cum: list[float]) -> str:
    return words[bisect.bisect_right(cum, rng.random() * cum[-1])]


def document_text(vocab: Vocabulary, label: str, tokens: int, rng: random.Random) -> str:
    """One document of exactly ``tokens`` words, in sentences."""
    content = vocab.content[label]
    rate = STOPWORD_RATE[label]
    sentences, words = [], []
    for _ in range(tokens):
        if rng.random() < rate:
            words.append(_draw(rng, vocab.stopwords, vocab.stop_cum))
        else:
            words.append(_draw(rng, content, vocab.content_cum))
        if rng.random() < 1.0 / MEAN_SENTENCE:
            sentences.append(" ".join(words).capitalize() + ".")
            words = []
    if words:
        sentences.append(" ".join(words).capitalize() + ".")
    lines = [" ".join(sentences[i : i + 8]) for i in range(0, len(sentences), 8)]
    return "\n".join(lines) + "\n"


def write_corpus(out_dir: Path, docs_per_class: int, tokens: int, seed: int,
                 vocab: Vocabulary | None = None) -> Path:
    """Write the documents and ``manifest.tsv`` under ``out_dir``; return the manifest."""
    vocab = vocab or Vocabulary()
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    (out_dir / "texts").mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(docs_per_class):
        for label in LABELS:
            doc_id = f"{label[:3]}{i:03d}"
            rel = f"texts/{doc_id}.txt"
            (out_dir / rel).write_text(document_text(vocab, label, tokens, rng), encoding="utf-8")
            lines.append(f"{doc_id}\t{label}\t{rel}")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest

