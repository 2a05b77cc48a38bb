import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import net_from_edges  # noqa: E402
from prosenet.corpus import Document  # noqa: E402
from prosenet.graph import build_network  # noqa: E402
from prosenet.pipeline import RunConfig, geodesic_measures  # noqa: E402


@pytest.fixture
def lemma_dictionary():
    from prosenet.corpus import load_lemma_dictionary

    return load_lemma_dictionary()


def make_doc(tokens, doc_id="t", label="informative", stop_mask=None):
    return Document(
        doc_id, label, list(tokens), len(tokens),
        stop_mask if stop_mask is not None else [False] * len(tokens),
    )


def geodesic(net, **settings):
    """The measures of ``net``'s geodesic pass under ``RunConfig(**settings)``,
    without walks: ``B``, ``C``, ``E`` and one ``N`` per ``h_access`` depth."""
    return geodesic_measures(net, RunConfig(**settings))


def zipf_doc(tokens: int, words: int = 3000, seed: int = 3):
    """A document of Zipf-distributed pseudo-words, as prose spreads them."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / (np.arange(words) + 2.7)
    draws = rng.choice(words, tokens, p=weights / weights.sum())
    return make_doc([f"w{t}" for t in draws])


def write_toy_corpus(base: Path, n_per_class: int = 8, tokens: int = 500, seed: int = 7):
    """Two synthetic styles that differ in function-word usage patterns."""
    rng = np.random.default_rng(seed)
    content = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}x" for i in range(120)]
    stops = ["the", "of", "and", "to", "in", "that", "is", "was", "he", "for",
             "it", "with", "as", "his", "on", "be", "at", "by", "an"]
    base.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(n_per_class):
        for label in ("informative", "imaginative"):
            toks = []
            while len(toks) < tokens:
                if label == "informative":
                    toks.append(str(rng.choice(stops[:10])))
                    toks.append(str(rng.choice(content[:60])))
                    if rng.random() < 0.6:
                        toks.append(str(rng.choice(stops)))
                else:
                    toks.append(str(rng.choice(content[40:])))
                    if rng.random() < 0.35:
                        toks.append(str(rng.choice(stops[5:])))
                    toks.append(str(rng.choice(content)))
            doc_id = f"{label[:3]}{i:02d}"
            path = base / f"{doc_id}.txt"
            path.write_text(" ".join(toks[:tokens]) + ".", encoding="utf-8")
            lines.append(f"{doc_id}\t{label}\t{path.name}")
    manifest = base / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@pytest.fixture(scope="session")
def toy_manifest(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy_corpus")
    return write_toy_corpus(base)


# hypothesis strategies for the property tests: edge-list graphs with
# disconnected parts, isolated nodes and hubs, and token networks

@st.composite
def edge_list_networks(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        spokes = draw(st.sets(st.integers(0, n - 1), max_size=n))
        edges |= {(min(hub, v), max(hub, v)) for v in spokes if v != hub}
    isolated = draw(st.integers(0, 3))
    return net_from_edges(n + isolated, edges)


@st.composite
def text_networks(draw):
    tokens = draw(st.lists(st.integers(0, 10), min_size=2, max_size=40))
    window = draw(st.integers(1, 3))
    return build_network(make_doc([f"w{t}" for t in tokens]), window)


networks = st.one_of(edge_list_networks(), text_networks())
