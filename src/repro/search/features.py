"""Per-chunk text features, computed once and shared across queries.

The semantic reranker and the ROUGE-L guardrail look at the same chunks
request after request, and everything they derive from a chunk depends only
on its text.  This module owns that "chunk text → features" step:
:func:`rerank_features` for the reranker and :func:`chunk_surface_tokens`
for ROUGE-L.

Features are computed on a chunk's first use and held in one process-wide
LRU of :data:`FEATURE_CACHE_SIZE` entries.  The key is every input of the
pure function that produced the value — the lexicon's content
:attr:`~repro.embeddings.concepts.ConceptLexicon.signature`, the analyzer
(a frozen, hashable dataclass) and the text — never an object id: an edited
chunk misses and gets fresh features, a grown lexicon never reads an older
entry, and deep copies of a deployment share the entries.  Values are
immutable tuples of interned strings and floats.

A stored fingerprint keeps the ``concepts_in_text`` keys and weights in
insertion order, so the dict rebuilt from it (:func:`weights`) intersects
and sums exactly like the original and every score is equal to the last bit.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import NamedTuple, TypeVar

from repro.embeddings.concepts import ConceptLexicon, fingerprint_norm
from repro.text.analyzer import ItalianAnalyzer
from repro.text.similarity import surface_tokens

#: Entries held by the process-wide feature store (both kinds together).
FEATURE_CACHE_SIZE = 4096

#: A concept fingerprint as stored: concept ids and their weights, in the
#: insertion order of the ``concepts_in_text`` dict.  Two flat tuples take
#: less memory than a tuple of pairs.
Fingerprint = tuple[tuple[str, ...], tuple[float, ...]]

_V = TypeVar("_V")


class RerankFeatures(NamedTuple):
    """What the reranker reads of one chunk."""

    title_concepts: Fingerprint
    title_norm: float
    content_concepts: Fingerprint
    content_norm: float
    content_terms: frozenset[str]


class FeatureStore:
    """Thread-safe LRU of text-derived values with hit/miss counters."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, compute: Callable[[], _V]) -> _V:
        """The value under *key*, computing and storing it on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return value  # type: ignore[return-value]
        value = compute()
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value


#: The process-wide store every reranker and ROUGE guardrail shares.
STORE = FeatureStore(FEATURE_CACHE_SIZE)


def weights(fingerprint: Fingerprint) -> dict[str, float]:
    """The ``concepts_in_text`` dict a stored fingerprint was made from."""
    return dict(zip(*fingerprint))


def _fingerprint(concepts: dict[str, float]) -> Fingerprint:
    return tuple(sys.intern(cid) for cid in concepts), tuple(concepts.values())


def _rerank_features(
    lexicon: ConceptLexicon, analyzer: ItalianAnalyzer, title: str, content: str
) -> RerankFeatures:
    title_weights = lexicon.concepts_in_text(title)
    content_weights = lexicon.concepts_in_text(content)
    return RerankFeatures(
        title_concepts=_fingerprint(title_weights),
        title_norm=fingerprint_norm(title_weights),
        content_concepts=_fingerprint(content_weights),
        content_norm=fingerprint_norm(content_weights),
        content_terms=frozenset(sys.intern(term) for term in analyzer.analyze(content)),
    )


def rerank_features(
    lexicon: ConceptLexicon, analyzer: ItalianAnalyzer, title: str, content: str
) -> RerankFeatures:
    """The reranker's features of a chunk with this *title* and *content*."""
    return STORE.get(
        ("rerank", lexicon.signature, analyzer, title, content),
        lambda: _rerank_features(lexicon, analyzer, title, content),
    )


def chunk_surface_tokens(content: str) -> tuple[str, ...]:
    """The surface tokens ROUGE-L compares for a chunk's *content*."""
    return STORE.get(
        ("surface", content),
        lambda: tuple(sys.intern(token) for token in surface_tokens(content)),
    )
