"""Reference implementations that the optimised code is held ``==`` to.

Each oracle is the straightforward version the library used before it read
per-chunk features from the shared store and computed LCS bit-parallel:

* :func:`lcs_length_dp` — the O(n·m) dynamic program over two rolling rows;
* :func:`rouge_l_dp` — ROUGE-L F-measure on top of it;
* :class:`OracleReranker` — the per-candidate semantic reranker, which
  re-analyzes the query, the title and the content for every candidate.
"""

from __future__ import annotations

import hashlib

from repro.embeddings.concepts import ConceptLexicon
from repro.guardrails.base import GuardrailVerdict
from repro.search.results import RetrievedChunk
from repro.text.analyzer import FULL_ANALYZER, SURFACE_ANALYZER, ItalianAnalyzer


def lcs_length_dp(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, by dynamic programming."""
    if not a or not b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    previous = [0] * (len(b) + 1)
    current = [0] * (len(b) + 1)
    for token_a in a:
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous, current = current, previous
    return previous[len(b)]


def rouge_l_dp(candidate: str, reference: str, beta: float = 1.2) -> float:
    """ROUGE-L F-measure (Lin, 2004) over the DP LCS."""
    candidate_tokens = [token.lower() for token in SURFACE_ANALYZER.analyze(candidate)]
    reference_tokens = [token.lower() for token in SURFACE_ANALYZER.analyze(reference)]
    if not candidate_tokens or not reference_tokens:
        return 0.0
    lcs = lcs_length_dp(candidate_tokens, reference_tokens)
    precision = lcs / len(candidate_tokens)
    recall = lcs / len(reference_tokens)
    if precision == 0.0 and recall == 0.0:
        return 0.0
    beta_sq = beta * beta
    return (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)


def rouge_verdict_oracle(
    answer: str, context: list[RetrievedChunk], threshold: float = 0.15
) -> GuardrailVerdict:
    """The max-over-chunks ROUGE-L guardrail verdict, chunk by chunk."""
    score = max((rouge_l_dp(answer, chunk.record.content) for chunk in context), default=0.0)
    if score < threshold:
        return GuardrailVerdict(
            passed=False,
            guardrail="rouge",
            detail=f"max ROUGE-L {score:.3f} below threshold {threshold}",
            score=score,
        )
    return GuardrailVerdict(passed=True, score=score)


def _concept_overlap_score(lexicon: ConceptLexicon, a: str, b: str) -> float:
    weights_a = lexicon.concepts_in_text(a)
    weights_b = lexicon.concepts_in_text(b)
    if not weights_a or not weights_b:
        return 0.0
    shared = {cid: min(weights_a[cid], weights_b[cid]) for cid in weights_a.keys() & weights_b.keys()}
    norm_a = sum(w * w for w in weights_a.values()) ** 0.5
    norm_b = sum(w * w for w in weights_b.values()) ** 0.5
    dot = sum(weights_a[cid] * weights_b[cid] for cid in shared)
    return dot / (norm_a * norm_b) if norm_a and norm_b else 0.0


class OracleReranker:
    """The semantic reranker scoring each candidate from its raw text."""

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
        total = title_weight + content_weight + lexical_weight
        self._lexicon = lexicon
        self._max_score = max_score
        self._title_weight = title_weight / total
        self._content_weight = content_weight / total
        self._lexical_weight = lexical_weight / total
        self._noise = noise
        self._analyzer = analyzer if analyzer is not None else FULL_ANALYZER

    def score(self, query: str, result: RetrievedChunk) -> float:
        title_agreement = _concept_overlap_score(self._lexicon, query, result.record.title)
        content_agreement = _concept_overlap_score(self._lexicon, query, result.record.content)
        lexical = self._lexical_overlap(query, result.record.content)
        blended = (
            self._title_weight * title_agreement
            + self._content_weight * content_agreement
            + self._lexical_weight * lexical
        )
        score = self._max_score * min(max(blended, 0.0), 1.0)
        digest = hashlib.blake2b(
            f"{query}\x00{result.record.chunk_id}".encode("utf-8"), digest_size=8
        ).digest()
        noise = int.from_bytes(digest, "little") / 2**63 - 1.0
        return max(0.0, score + self._noise * noise)

    def rerank(self, query: str, results: list[RetrievedChunk]) -> list[RetrievedChunk]:
        rescored = []
        for result in results:
            reranker_score = self.score(query, result)
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

    def _lexical_overlap(self, query: str, content: str) -> float:
        query_terms = self._analyzer.analyze_unique(query)
        if not query_terms:
            return 0.0
        content_terms = self._analyzer.analyze_unique(content)
        return len(query_terms & content_terms) / len(query_terms)
