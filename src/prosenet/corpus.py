"""Corpus ingestion: manifests, tokenization, lemmatization, stopword
handling, manifest balancing and the atomic file write.

Preprocessing keeps a single deterministic rule set: lowercase, split on any
non-alphabetic character, look each token up in a plain surface-to-lemma
dictionary (unknown forms map to themselves), then optionally drop stopwords.
This module needs no numpy, so ``prosenet prepare-manifest``, which only
reads, counts and writes, loads nothing of the measuring and learning layers.
"""

from __future__ import annotations

import os
import re
import tempfile
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import (
    DuplicateIdError,
    EmptyDocumentError,
    ProsenetError,
    UnknownLabelError,
    UnreadablePathError,
)

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
    Raises DuplicateIdError / UnknownLabelError / UnreadablePathError, and
    ProsenetError for an id that is empty, '.' or '..', or holds '/', '\\'
    or ','.
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
        # an id names the document's measure CSV and a cell of every CSV
        if doc_id in ("", ".", "..") or any(c in doc_id for c in "/\\,"):
            raise ProsenetError(
                f"{path}:{lineno}: document id {doc_id!r} must not be empty, '.' or '..' "
                "nor hold '/', '\\' or ','"
            )
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
        import logging  # here only: 0.6 MB of RSS that a balanced run never needs

        logging.getLogger(__name__).warning("manifest %s is unbalanced: %s", path, counts)
    return manifest


def _read_data(path: str | Path | None, shipped: str, what: str) -> str:
    """The text of ``path``, or of the shipped data file when it is None."""
    if path is None:
        return resources.files("prosenet.data").joinpath(shipped).read_text(encoding="utf-8")
    if not Path(path).is_file():
        raise UnreadablePathError(f"{what} {path} does not exist")
    return Path(path).read_text(encoding="utf-8")


def load_lemma_dictionary(
    lemmas_path: str | Path | None = None,
    stoplist_path: str | Path | None = None,
) -> LemmaDictionary:
    """Load the lemma map and stoplist, defaulting to the shipped data files.

    Raises UnreadablePathError for a file that does not exist and
    ProsenetError for a lemma line that is not surface<TAB>lemma or whose
    lemma holds a comma.
    """
    lemma_text = _read_data(lemmas_path, "lemmas.tsv", "lemma dictionary")
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(lemma_text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ProsenetError(f"{lemmas_path}:{lineno}: expected surface<TAB>lemma")
        surface, lemma = parts
        if "," in lemma:  # a lemma names feature columns and CSV cells
            raise ProsenetError(f"{lemmas_path}:{lineno}: lemma {lemma!r} holds a ','")
        mapping[surface] = lemma

    stop_text = _read_data(stoplist_path, "stopwords.txt", "stoplist")
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


def atomic_write(path: Path, text: str) -> None:
    atomic_write_blocks(path, (text.encode("utf-8"),))


def atomic_write_blocks(path: Path, blocks: Iterable[bytes]) -> None:
    """Write the concatenated ``blocks`` to ``path`` through a temporary file
    renamed over it, so a reader never sees a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def prepare_manifest(
    source_manifest: str | Path,
    out_path: str | Path,
    length_metric: str = "raw",
    strip_pos: bool = False,
    texts_dir: str | Path | None = None,
    dictionary: LemmaDictionary | None = None,
) -> int:
    """Balance a labeled corpus: keep the minority class whole and only the
    longest majority-class documents.

    ``length_metric`` picks the ordering: 'raw' counts every token before
    preprocessing, 'preprocessed' counts the lemmas of ``dictionary`` (the
    shipped one by default) that are not stopwords, so a text of stopwords
    alone has length 0. ``strip_pos`` rewrites word/TAG formatted files as
    plain text under ``texts_dir``.
    """
    if length_metric not in ("raw", "preprocessed"):
        raise ProsenetError("length_metric must be 'raw' or 'preprocessed'")
    manifest = load_manifest(source_manifest)
    if dictionary is None:
        dictionary = load_lemma_dictionary()

    records = []
    for entry in manifest.entries:
        text = entry.path.read_text(encoding="utf-8", errors="replace")
        if strip_pos:
            text = " ".join(tok.rsplit("/", 1)[0] for tok in text.split())
            if texts_dir is None:
                raise ProsenetError("strip_pos requires texts_dir")
            target = Path(texts_dir) / f"{entry.doc_id}.txt"
            atomic_write(target, text + "\n")
            doc_path = target
        else:
            doc_path = entry.path
        surfaces = tokenize(text)
        if length_metric == "raw":
            length = len(surfaces)
        else:
            length = sum(not dictionary.is_stopword(dictionary.lemma(s)) for s in surfaces)
        records.append((entry.doc_id, entry.label, doc_path.resolve(), length))

    by_label: dict[str, list] = {}
    for rec in records:
        by_label.setdefault(rec[1], []).append(rec)
    smallest = min(len(v) for v in by_label.values())
    selected = []
    for label in sorted(by_label):
        group = sorted(by_label[label], key=lambda r: (-r[3], r[0]))[:smallest]
        selected.extend(group)
    selected.sort(key=lambda r: r[0])

    lines = [f"{doc_id}\t{label}\t{path}" for doc_id, label, path, _ in selected]
    atomic_write(Path(out_path), "\n".join(lines) + "\n")
    return len(selected)
