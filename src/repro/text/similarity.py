"""Text similarity measures used by guardrails and dataset construction.

* :func:`rouge_l` — the ROUGE-L F-measure (Lin, 2004) that drives the paper's
  primary hallucination guardrail (Section 6, threshold 0.15).
* :func:`lcs_length` — longest common subsequence, the core of ROUGE-L.
* :func:`jaccard` — Jaccard similarity on non-stop terms, used by the UAT
  dataset construction (Section 8) to pick human questions similar to
  frequent log queries.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.text.analyzer import FULL_ANALYZER, SURFACE_ANALYZER, ItalianAnalyzer


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of token lists *a* and *b*.

    Bit-parallel LCS (Allison & Dix 1986, in Hyyrö's 2004 formulation)
    over Python ints: bit ``i`` of the row vector stands for position ``i``
    of the longer sequence, and one add/subtract/or per token of the
    shorter one advances the whole dynamic-programming row at once.  The
    LCS is the number of zero bits left in the row.
    """
    if len(b) > len(a):
        a, b = b, a
    if not b:
        return 0
    matches: dict[str, int] = {}
    for position, token in enumerate(a):
        matches[token] = matches.get(token, 0) | (1 << position)
    full = (1 << len(a)) - 1
    row = full
    for token in b:
        match = matches.get(token)
        if match is not None:
            carry = row & match
            row = ((row + carry) | (row - carry)) & full
    return len(a) - row.bit_count()


def surface_tokens(text: str, analyzer: ItalianAnalyzer = SURFACE_ANALYZER) -> list[str]:
    """The lower-cased token sequence ROUGE-L compares."""
    return [token.lower() for token in analyzer.analyze(text)]


@dataclass(frozen=True)
class RougeLScore:
    """Precision/recall/F decomposition of a ROUGE-L comparison."""

    precision: float
    recall: float
    fmeasure: float


def rouge_l_score(
    candidate: str,
    reference: str,
    analyzer: ItalianAnalyzer = SURFACE_ANALYZER,
    beta: float = 1.2,
) -> RougeLScore:
    """Full ROUGE-L score of *candidate* against *reference*.

    Follows Lin (2004): P = LCS/len(candidate), R = LCS/len(reference),
    F = ((1+beta^2) P R) / (R + beta^2 P).  Tokenization keeps stop words
    (surface analyzer) because ROUGE is a surface measure.
    """
    return rouge_l_tokens(
        surface_tokens(candidate, analyzer), surface_tokens(reference, analyzer), beta
    )


def rouge_l_tokens(
    candidate_tokens: Sequence[str], reference_tokens: Sequence[str], beta: float = 1.2
) -> RougeLScore:
    """ROUGE-L of two already tokenized sequences (see :func:`rouge_l_score`)."""
    if not candidate_tokens or not reference_tokens:
        return RougeLScore(0.0, 0.0, 0.0)
    lcs = lcs_length(candidate_tokens, reference_tokens)
    precision = lcs / len(candidate_tokens)
    recall = lcs / len(reference_tokens)
    if precision == 0.0 and recall == 0.0:
        return RougeLScore(0.0, 0.0, 0.0)
    beta_sq = beta * beta
    fmeasure = (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)
    return RougeLScore(precision, recall, fmeasure)


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F-measure, the scalar the guardrail thresholds on."""
    return rouge_l_score(candidate, reference).fmeasure


def jaccard(a: str, b: str, analyzer: ItalianAnalyzer = FULL_ANALYZER) -> float:
    """Jaccard similarity of the non-stop term sets of *a* and *b*."""
    set_a = analyzer.analyze_unique(a)
    set_b = analyzer.analyze_unique(b)
    if not set_a and not set_b:
        return 0.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)
