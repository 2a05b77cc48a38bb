import re

import numpy as np
import pytest

from prosenet import (DuplicateIdError, EmptyDocumentError, ProsenetError, UnknownLabelError,
                      UnreadablePathError)
from prosenet.corpus import (
    LemmaDictionary,
    load_lemma_dictionary,
    load_manifest,
    preprocess,
    tokenize,
    word_frequencies,
)


def write_manifest(tmp_path, rows):
    for doc_id, _, name in rows:
        (tmp_path / name).write_text(f"text of {doc_id}", encoding="utf-8")
    path = tmp_path / "manifest.tsv"
    path.write_text(
        "# comment line\n" + "\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8"
    )
    return path


class TestManifest:
    def test_minimal_valid(self, tmp_path):
        path = write_manifest(
            tmp_path,
            [("b1", "informative", "b1.txt"), ("a1", "imaginative", "a1.txt")],
        )
        manifest = load_manifest(path)
        assert len(manifest) == 2
        assert [e.doc_id for e in manifest.entries] == ["a1", "b1"]  # sorted by id

    def test_duplicate_id(self, tmp_path):
        path = write_manifest(
            tmp_path,
            [("ca01", "informative", "x.txt"), ("ca01", "imaginative", "y.txt")],
        )
        with pytest.raises(DuplicateIdError):
            load_manifest(path)

    def test_unknown_label(self, tmp_path):
        path = write_manifest(tmp_path, [("a", "poetry", "a.txt"), ("b", "imaginative", "b.txt")])
        with pytest.raises(UnknownLabelError):
            load_manifest(path)

    def test_unreadable_path(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("a\tinformative\tmissing.txt\n", encoding="utf-8")
        with pytest.raises(UnreadablePathError):
            load_manifest(path)

    def test_missing_class(self, tmp_path):
        path = write_manifest(tmp_path, [("a", "informative", "a.txt"), ("b", "informative", "b.txt")])
        with pytest.raises(UnknownLabelError):
            load_manifest(path)

    @pytest.mark.parametrize("doc_id", ["../../escaped", "..", ".", "a/b", "a\\b", "a,b"])
    def test_an_id_that_is_no_file_name_or_breaks_a_csv_is_refused(self, doc_id, tmp_path):
        path = write_manifest(tmp_path, [("a", "informative", "a.txt"),
                                         (doc_id, "imaginative", "b.txt")])
        with pytest.raises(ProsenetError, match=re.escape(f"manifest.tsv:3: document id {doc_id!r}")):
            load_manifest(path)

    def test_balanced_corpus_scale(self, tmp_path):
        rows = []
        for i in range(126):
            rows.append((f"inf{i:03d}", "informative", f"inf{i:03d}.txt"))
            rows.append((f"ima{i:03d}", "imaginative", f"ima{i:03d}.txt"))
        manifest = load_manifest(write_manifest(tmp_path, rows))
        assert len(manifest) == 252
        assert manifest.class_counts() == {"imaginative": 126, "informative": 126}


class TestPreprocess:
    dictionary = LemmaDictionary({}, {"the"})

    def test_stopwords_removed(self):
        doc = preprocess("The cat, the CAT!", self.dictionary, keep_stopwords=False)
        assert doc.tokens == ["cat", "cat"]
        assert doc.stopword_mask == [False, False]
        assert doc.raw_token_count == 4

    def test_stopwords_kept_and_masked(self):
        doc = preprocess("The cat, the CAT!", self.dictionary, keep_stopwords=True)
        assert doc.tokens == ["the", "cat", "the", "cat"]
        assert doc.stopword_mask == [True, False, True, False]

    def test_empty_after_cleaning(self):
        with pytest.raises(EmptyDocumentError):
            preprocess("123 ... !!!", self.dictionary, keep_stopwords=True)

    def test_digits_and_punctuation_stripped(self):
        assert tokenize("it's 42 o'clock, mr. Smith-Jones") == [
            "it", "s", "o", "clock", "mr", "smith", "jones",
        ]

    def test_lemmatization_applies_before_stoplist(self):
        d = LemmaDictionary({"was": "be"}, {"be"})
        doc = preprocess("was cat", d, keep_stopwords=False)
        assert doc.tokens == ["cat"]

    def test_idempotent_on_own_output(self):
        d = load_lemma_dictionary()
        doc = preprocess("The children were saying things quickly.", d, keep_stopwords=True)
        again = preprocess(" ".join(doc.tokens), d, keep_stopwords=True)
        assert again.tokens == doc.tokens

    def test_mask_restriction_matches_removal(self):
        d = load_lemma_dictionary()
        text = "The cat sat on the mat and the dog was barking at children."
        kept = preprocess(text, d, keep_stopwords=True)
        removed = preprocess(text, d, keep_stopwords=False)
        restricted = [t for t, m in zip(kept.tokens, kept.stopword_mask) if not m]
        assert restricted == removed.tokens


class TestWordFrequencies:
    def test_counts(self):
        from conftest import make_doc

        doc = make_doc(["the", "cat", "the", "cat"])
        assert word_frequencies(doc) == {"the": 2, "cat": 2}
        assert word_frequencies(make_doc(["a"])) == {"a": 1}

    def test_counts_sum_to_length_fuzz(self):
        from conftest import make_doc

        rng = np.random.default_rng(11)
        vocab = ["aa", "bb", "cc", "dd", "ee"]
        for _ in range(50):
            n = int(rng.integers(1, 60))
            toks = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(n)]
            freqs = word_frequencies(make_doc(toks))
            assert sum(freqs.values()) == n
            assert len(freqs) <= n


class TestLemmaDictionary:
    def test_a_lemma_with_a_comma_is_refused(self, tmp_path):
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text("walked\twalk\nthe\tth,e\n", encoding="utf-8")
        with pytest.raises(ProsenetError, match="lemmas.tsv:2: lemma 'th,e'"):
            load_lemma_dictionary(lemmas)


class TestShippedData:
    def test_dictionary_loads(self):
        d = load_lemma_dictionary()
        assert d.lemma("said") == "say"
        assert d.lemma("children") == "child"
        assert d.lemma("unknownword") == "unknownword"
        assert d.is_stopword("the") and d.is_stopword("by")
        # words named in the shipped local-feature examples must be stopwords
        for word in ("the", "by", "an", "have", "it"):
            assert d.is_stopword(word)

    def test_distinct_lemmas_bounded_by_raw_count(self):
        d = load_lemma_dictionary()
        doc = preprocess("Cats and dogs were running; the dogs ran away.", d, True)
        assert len(set(doc.tokens)) <= doc.raw_token_count
