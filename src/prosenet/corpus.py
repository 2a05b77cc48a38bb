"""Corpus ingestion: manifests, tokenization, lemmatization, stopword handling.

Preprocessing keeps a single deterministic rule set: lowercase, split on any
non-alphabetic character, look each token up in a plain surface-to-lemma
dictionary (unknown forms map to themselves), then optionally drop stopwords.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import DuplicateIdError, EmptyDocumentError, UnknownLabelError, UnreadablePathError

log = logging.getLogger(__name__)

LABELS = ("imaginative", "informative")

_TOKEN_RE = re.compile(r"[a-z]+")


@dataclass(frozen=True)
class ManifestEntry:
    doc_id: str
    label: str
    path: Path


@dataclass
class CorpusManifest:
    """Validated list of (id, label, path) records, sorted by id."""

    entries: list[ManifestEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def class_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in LABELS}
        for entry in self.entries:
            counts[entry.label] += 1
        return counts


@dataclass
class LemmaDictionary:
    """Total surface-to-lemma lookup plus the stopword lemma set."""

    mapping: dict[str, str]
    stoplist: set[str]

    def lemma(self, surface: str) -> str:
        return self.mapping.get(surface, surface)

    def is_stopword(self, lemma: str) -> bool:
        return lemma in self.stoplist


@dataclass
class Document:
    """A preprocessed, labeled token sequence.

    ``tokens`` are lemmas; ``stopword_mask[i]`` is True when ``tokens[i]`` is a
    stopword (all False when stopwords were removed).
    """

    id: str
    label: str
    tokens: list[str]
    raw_token_count: int
    stopword_mask: list[bool] = field(repr=False)


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read a tab-separated manifest: id<TAB>label<TAB>path, '#' comments.

    Relative document paths are resolved against the manifest's directory.
    Raises DuplicateIdError / UnknownLabelError / UnreadablePathError.
    """
    path = Path(path)
    if not path.is_file():
        raise UnreadablePathError(f"manifest {path} does not exist")
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise UnreadablePathError(f"{path}:{lineno}: expected 3 tab-separated fields")
        doc_id, label, doc_path = (p.strip() for p in parts)
        if doc_id in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        if label not in LABELS:
            raise UnknownLabelError(
                f"{path}:{lineno}: label {label!r} not in {set(LABELS)}"
            )
        resolved = Path(doc_path)
        if not resolved.is_absolute():
            resolved = base / resolved
        if not resolved.is_file():
            raise UnreadablePathError(f"{path}:{lineno}: unreadable document path {resolved}")
        entries.append(ManifestEntry(doc_id, label, resolved))

    entries.sort(key=lambda e: e.doc_id)
    manifest = CorpusManifest(entries)
    counts = manifest.class_counts()
    for label in LABELS:
        if counts[label] == 0:
            raise UnknownLabelError(f"{path}: class {label!r} has no documents")
    if counts[LABELS[0]] != counts[LABELS[1]]:
        log.warning("manifest %s is unbalanced: %s", path, counts)
    return manifest


def _read_resource(name: str) -> str:
    return resources.files("prosenet.data").joinpath(name).read_text(encoding="utf-8")


def load_lemma_dictionary(
    lemmas_path: str | Path | None = None,
    stoplist_path: str | Path | None = None,
) -> LemmaDictionary:
    """Load the lemma map and stoplist, defaulting to the shipped data files."""
    if lemmas_path is None:
        lemma_text = _read_resource("lemmas.tsv")
    else:
        lemma_text = Path(lemmas_path).read_text(encoding="utf-8")
    mapping: dict[str, str] = {}
    for line in lemma_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        surface, lemma = line.split("\t")
        mapping[surface] = lemma

    if stoplist_path is None:
        stop_text = _read_resource("stopwords.txt")
    else:
        stop_text = Path(stoplist_path).read_text(encoding="utf-8")
    stoplist = {w.strip() for w in stop_text.splitlines() if w.strip() and not w.startswith("#")}
    return LemmaDictionary(mapping, stoplist)


def tokenize(raw_text: str) -> list[str]:
    """Lowercase and split on any non-alphabetic character; drop empty tokens."""
    return _TOKEN_RE.findall(raw_text.lower())


def preprocess(
    raw_text: str,
    dictionary: LemmaDictionary,
    keep_stopwords: bool,
    doc_id: str = "",
    label: str = "",
) -> Document:
    """Tokenize, lemmatize and (optionally) remove stopwords from one text.

    Raises EmptyDocumentError when nothing survives.
    """
    surfaces = tokenize(raw_text)
    lemmas = [dictionary.lemma(s) for s in surfaces]
    mask = [dictionary.is_stopword(t) for t in lemmas]
    doc = Document(doc_id, label, lemmas, len(surfaces), mask)
    return _nonempty(doc) if keep_stopwords else content_words(doc)


def content_words(doc: Document) -> Document:
    """``doc`` without the tokens its stopword mask flags: for a document
    preprocessed with stopwords kept, what ``keep_stopwords=False`` gives.

    Raises EmptyDocumentError when nothing survives.
    """
    tokens = [t for t, stop in zip(doc.tokens, doc.stopword_mask) if not stop]
    mask = [False] * len(tokens)
    return _nonempty(Document(doc.id, doc.label, tokens, doc.raw_token_count, mask))


def _nonempty(doc: Document) -> Document:
    if not doc.tokens:
        raise EmptyDocumentError(f"document {doc.id!r} is empty after preprocessing")
    return doc


def word_frequencies(doc: Document) -> dict[str, int]:
    """Lemma occurrence counts; values sum to len(doc.tokens)."""
    return dict(Counter(doc.tokens))
