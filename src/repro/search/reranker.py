"""Semantic reranker.

Stands in for the proprietary multi-lingual deep reranking model (Bing /
Microsoft Research, multi-task learning) integrated in Azure AI Search that
the paper adds on top of RRF (Section 4).  A cross-encoder of that family
judges *semantic agreement* between query and passage rather than term
overlap; we reproduce that with the concept lexicon: the reranker score
blends

* concept-fingerprint cosine between the query and the chunk content,
* concept overlap with the chunk title (titles are strong relevance cues in
  short enterprise documents),
* a small lexical-overlap term that rewards exact jargon/code matches.

Scores are scaled to ``[0, max_score]`` with Azure's 0–4 range as default;
the final hybrid relevance is ``RRF sum + reranker score``, as the paper
states.

Everything the score reads of a chunk comes from
:func:`repro.search.features.rerank_features`, computed once per chunk text
and shared across queries; the query's fingerprint and term set are computed
once per :meth:`SemanticReranker.rerank` call.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

from repro.embeddings.concepts import ConceptLexicon, fingerprint_norm, fingerprint_overlap
from repro.obs import spans
from repro.obs.trace import RequestContext, null_context
from repro.search.features import rerank_features, weights
from repro.search.results import RetrievedChunk
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer


def _hash_noise(query: str, chunk_id: str) -> float:
    """Deterministic pseudo-noise in [-1, 1) keyed on the (query, chunk) pair."""
    digest = hashlib.blake2b(f"{query}\x00{chunk_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**63 - 1.0


class SemanticReranker:
    """Concept-level query/passage scorer added on top of fused rank.

    Args:
        lexicon: concept lexicon defining shared meaning.
        max_score: upper bound of the reranker score (Azure uses 4.0).
        title_weight / content_weight / lexical_weight: blend weights;
            they are normalized internally so only ratios matter.
        noise: amplitude of the deterministic per-(query, chunk) score
            perturbation modelling cross-encoder judgement error; 0 makes
            the reranker an oracle, which no deployed model is.
    """

    def __init__(
        self,
        lexicon: ConceptLexicon,
        max_score: float = 4.0,
        title_weight: float = 0.35,
        content_weight: float = 0.45,
        lexical_weight: float = 0.30,
        noise: float = 0.35,
        analyzer: ItalianAnalyzer | None = None,
    ) -> None:
        if max_score <= 0:
            raise ValueError("max_score must be positive")
        total = title_weight + content_weight + lexical_weight
        if total <= 0:
            raise ValueError("at least one blend weight must be positive")
        self._lexicon = lexicon
        self._max_score = max_score
        self._title_weight = title_weight / total
        self._content_weight = content_weight / total
        self._lexical_weight = lexical_weight / total
        self._noise = noise
        self._analyzer = analyzer if analyzer is not None else FULL_ANALYZER

    def score(self, query: str, result: RetrievedChunk) -> float:
        """Semantic relevance of *result* to *query* in [0, max_score]."""
        return self._scorer(query)(result)

    def rerank(
        self,
        query: str,
        results: list[RetrievedChunk],
        ctx: RequestContext | None = None,
    ) -> list[RetrievedChunk]:
        """Add the reranker score to each fused result and re-sort.

        The input scores are assumed to be RRF sums; the output score is
        ``rrf + reranker`` per the paper's hybrid ranking definition.  The
        pre-rerank component breakdown is preserved and the reranker's
        delta recorded as ``rerank_adjust``, so score provenance survives
        all the way to the answer layer.
        """
        ctx = ctx or null_context()
        with ctx.trace.span(spans.STAGE_RERANK, candidates=len(results)):
            return self._rerank(query, results)

    def _rerank(self, query: str, results: list[RetrievedChunk]) -> list[RetrievedChunk]:
        score = self._scorer(query)
        rescored = []
        for result in results:
            reranker_score = score(result)
            components = dict(result.components)
            components["rerank_adjust"] = reranker_score
            rescored.append(
                RetrievedChunk(
                    record=result.record,
                    score=result.score + reranker_score,
                    components=components,
                )
            )
        rescored.sort(key=lambda r: (-r.score, r.record.chunk_id))
        return rescored

    def _scorer(self, query: str) -> Callable[[RetrievedChunk], float]:
        """The score function for *query*, with the query side computed once."""
        lexicon, analyzer = self._lexicon, self._analyzer
        query_concepts = lexicon.concepts_in_text(query)
        query_norm = fingerprint_norm(query_concepts)
        query_terms = analyzer.analyze_unique(query)

        def score(result: RetrievedChunk) -> float:
            record = result.record
            features = rerank_features(lexicon, analyzer, record.title, record.content)
            title_agreement = fingerprint_overlap(
                query_concepts, query_norm, weights(features.title_concepts), features.title_norm
            ).score
            content_agreement = fingerprint_overlap(
                query_concepts, query_norm, weights(features.content_concepts), features.content_norm
            ).score
            lexical = (
                len(query_terms & features.content_terms) / len(query_terms)
                if query_terms
                else 0.0
            )
            blended = (
                self._title_weight * title_agreement
                + self._content_weight * content_agreement
                + self._lexical_weight * lexical
            )
            scaled = self._max_score * min(max(blended, 0.0), 1.0)
            return max(0.0, scaled + self._noise * _hash_noise(query, record.chunk_id))

        return score
