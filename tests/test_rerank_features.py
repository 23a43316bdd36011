"""Rerank and ROUGE-L from stored per-chunk features are ``==`` to the oracles.

The reranker and the ROUGE-L guardrail read chunk features from the
process-wide store in :mod:`repro.search.features`; these tests hold their
scores, components, order and verdicts equal to the per-candidate reference
implementations in :mod:`tests.oracles`, and pin the store's keying, bound
and sharing contract.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AskRequest
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.guardrails.rouge import RougeGuardrail
from repro.search import features
from repro.search.features import (
    FEATURE_CACHE_SIZE,
    FeatureStore,
    chunk_surface_tokens,
    rerank_features,
    weights,
)
from repro.search.hybrid import HybridSemanticSearch
from repro.search.reranker import SemanticReranker
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.text.analyzer import FULL_ANALYZER
from repro.text.similarity import surface_tokens
from tests.oracles import OracleReranker, rouge_verdict_oracle


@pytest.fixture(scope="module")
def kb120():
    """The 120-topic knowledge base the live-ingest benchmark serves."""
    return KbGenerator(KbGeneratorConfig(num_topics=120, seed=2025)).generate()


@pytest.fixture(scope="module")
def system120(kb120, lexicon):
    return build_uniask_system(kb120.store(), lexicon, seed=3)


@pytest.fixture(scope="module")
def questions120(kb120):
    return generate_human_dataset(kb120, HumanDatasetConfig(num_questions=120, seed=11))


@pytest.fixture(scope="module")
def fused120(system120, questions120):
    """(question, fused pre-rerank candidates) for the human question set."""
    config = dataclasses.replace(system120.config.retrieval, use_reranker=False)
    searcher = HybridSemanticSearch(system120.index, config=config)
    return [(q.text, searcher.search(q.text)) for q in questions120]


@pytest.fixture()
def fresh_store(monkeypatch) -> FeatureStore:
    """An empty process-wide store of the production capacity."""
    store = FeatureStore(FEATURE_CACHE_SIZE)
    monkeypatch.setattr(features, "STORE", store)
    return store


def _fingerprint(ranking: list[RetrievedChunk]) -> list[tuple]:
    """Everything a ranking carries, floats as exact hex."""
    return [
        (
            r.record.chunk_id,
            r.score.hex(),
            sorted((key, value.hex()) for key, value in r.components.items()),
        )
        for r in ranking
    ]


class TestRerankMatchesOracle:
    def test_human_questions_cold_and_warm(self, lexicon, fused120, fresh_store):
        reranker = SemanticReranker(lexicon)
        oracle = OracleReranker(lexicon)
        expected = [oracle.rerank(question, fused) for question, fused in fused120]
        for _ in ("cold", "warm"):
            for (question, fused), want in zip(fused120, expected):
                got = reranker.rerank(question, fused)
                assert got == want
                assert _fingerprint(got) == _fingerprint(want)
        assert fresh_store.hits > 0

    def test_public_score_matches_oracle(self, lexicon, fused120):
        reranker = SemanticReranker(lexicon, noise=0.0)
        oracle = OracleReranker(lexicon, noise=0.0)
        for question, fused in fused120[:30]:
            for result in fused:
                assert reranker.score(question, result) == oracle.score(question, result)


_TOY_CONCEPTS = [
    Concept("bonifico", "bonifico", ("trasferimento fondi",)),
    Concept("carta", "carta di credito", ("carta revolving",)),
    Concept("token", "token di sicurezza", ("chiavetta OTP",)),
    Concept("act_attivare", "attivare", ("abilitare",)),
    Concept("act_bloccare", "bloccare", ("sospendere",)),
]

_TOY_ROWS = [
    ("doc-bonifico", "Attivare bonifico", "Per attivare un bonifico accedere al portale dei pagamenti."),
    ("doc-carta", "Bloccare carta di credito", "Per bloccare la carta di credito chiamare il numero verde."),
    ("doc-token", "Attivare token di sicurezza", "Il token di sicurezza si attiva dal profilo personale."),
    ("doc-carta-att", "Attivare carta di credito", "Per attivare la carta di credito usare GestCarte."),
    ("doc-vuoto", "", ""),
]

_TOY_CANDIDATES = [
    RetrievedChunk(
        record=ChunkRecord(chunk_id=f"{doc_id}#0", doc_id=doc_id, title=title, content=content),
        score=0.01 * rank,
        components={"rrf_text": 0.01 * rank},
    )
    for rank, (doc_id, title, content) in enumerate(_TOY_ROWS)
]

_QUERY_WORDS = [
    "bonifico", "bonifici", "trasferimento", "fondi", "carta", "carte", "credito",
    "revolving", "token", "sicurezza", "chiavetta", "OTP", "attivare", "abilitare",
    "bloccare", "sospendere", "il", "la", "di", "per", "l'estratto", "GestCarte",
    "numero", "verde", "?", "ERR-1003", "pizza",
]

toy_queries = st.lists(
    st.one_of(st.sampled_from(_QUERY_WORDS), st.text(alphabet="abcdeior", min_size=1, max_size=6)),
    min_size=0,
    max_size=12,
).map(" ".join)


class TestRerankToyProperties:
    @given(
        toy_queries,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.sampled_from([0.0, 0.35, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rerank_equals_oracle(self, query, title_w, content_w, lexical_w, noise):
        lexicon = ConceptLexicon(_TOY_CONCEPTS)
        kwargs = dict(
            title_weight=title_w, content_weight=content_w, lexical_weight=lexical_w, noise=noise
        )
        got = SemanticReranker(lexicon, **kwargs).rerank(query, _TOY_CANDIDATES)
        expected = OracleReranker(lexicon, **kwargs).rerank(query, _TOY_CANDIDATES)
        assert got == expected
        assert _fingerprint(got) == _fingerprint(expected)


class TestRougeMatchesOracle:
    def test_engine_answers_and_wider_contexts(self, system120, questions120):
        guardrail = RougeGuardrail()
        checked = 0
        for question in questions120[:60]:
            answer = system120.engine.answer(AskRequest.of(question.text)).answer
            if not answer.raw_answer:
                continue
            for context in (list(answer.context), list(answer.documents[:10])):
                assert guardrail.check(question.text, answer.raw_answer, context) == (
                    rouge_verdict_oracle(answer.raw_answer, context)
                )
                checked += 1
            off_topic = "La carbonara si prepara con guanciale, uova e pecorino romano."
            assert guardrail.check(question.text, off_topic, list(answer.context)) == (
                rouge_verdict_oracle(off_topic, list(answer.context))
            )
        assert checked > 0

    @given(
        st.lists(st.sampled_from(_QUERY_WORDS + ["e", "la", "la", "carta"]), max_size=150).map(" ".join),
        st.lists(
            st.lists(st.sampled_from(_QUERY_WORDS + ["e", "la"]), max_size=200).map(" ".join),
            min_size=0,
            max_size=4,
        ),
        st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_texts(self, answer, contents, threshold):
        context = [
            RetrievedChunk(
                record=ChunkRecord(chunk_id=f"d{i}#0", doc_id=f"d{i}", title="t", content=content),
                score=1.0,
            )
            for i, content in enumerate(contents)
        ]
        assert RougeGuardrail(threshold).check("q", answer, context) == (
            rouge_verdict_oracle(answer, context, threshold)
        )


class TestFeatureStore:
    TITLE = "Attivare carta di credito"
    CONTENT = "Per attivare la carta di credito usare GestCarte."

    def test_edited_chunk_gets_fresh_features(self):
        lexicon = ConceptLexicon(_TOY_CONCEPTS)
        before = rerank_features(lexicon, FULL_ANALYZER, self.TITLE, self.CONTENT)
        edited = "Per bloccare un bonifico chiamare il numero verde."
        after = rerank_features(lexicon, FULL_ANALYZER, self.TITLE, edited)
        assert after != before
        assert weights(after.content_concepts) == lexicon.concepts_in_text(edited)
        assert after.content_terms == frozenset(FULL_ANALYZER.analyze(edited))
        record = ChunkRecord(chunk_id="c#0", doc_id="c", title=self.TITLE, content=edited)
        candidate = [RetrievedChunk(record=record, score=0.0)]
        query = "bloccare bonifico"
        assert SemanticReranker(lexicon).rerank(query, candidate) == (
            OracleReranker(lexicon).rerank(query, candidate)
        )
        assert chunk_surface_tokens(edited) == tuple(surface_tokens(edited))

    def test_equal_lexicons_share_entries(self, fresh_store):
        first = ConceptLexicon(_TOY_CONCEPTS)
        second = ConceptLexicon(list(_TOY_CONCEPTS))
        assert first.signature == second.signature
        stored = rerank_features(first, FULL_ANALYZER, self.TITLE, self.CONTENT)
        assert rerank_features(second, FULL_ANALYZER, self.TITLE, self.CONTENT) is stored
        assert (fresh_store.misses, fresh_store.hits) == (1, 1)

    def test_grown_lexicon_never_reads_older_entry(self):
        lexicon = ConceptLexicon(_TOY_CONCEPTS)
        old_signature = lexicon.signature
        old = rerank_features(lexicon, FULL_ANALYZER, self.TITLE, self.CONTENT)
        assert "gestcarte" not in weights(old.content_concepts)
        lexicon.add(Concept("gestcarte", "GestCarte"))
        assert lexicon.signature != old_signature
        new = rerank_features(lexicon, FULL_ANALYZER, self.TITLE, self.CONTENT)
        assert new is not old
        assert weights(new.content_concepts) == lexicon.concepts_in_text(self.CONTENT)
        assert "gestcarte" in weights(new.content_concepts)

    def test_lru_is_bounded(self, monkeypatch, lexicon, fused120):
        assert features.STORE.capacity == FEATURE_CACHE_SIZE
        small = FeatureStore(8)
        monkeypatch.setattr(features, "STORE", small)
        reranker = SemanticReranker(lexicon)
        oracle = OracleReranker(lexicon)
        for question, fused in fused120[:10]:
            assert reranker.rerank(question, fused) == oracle.rerank(question, fused)
            assert len(small) <= 8
        assert small.misses > 8

    def test_lru_evicts_least_recently_used(self):
        store = FeatureStore(2)
        store.get("a", lambda: 1)
        store.get("b", lambda: 2)
        assert store.get("a", lambda: -1) == 1
        store.get("c", lambda: 3)
        assert len(store) == 2
        assert store.get("b", lambda: -2) == -2
        assert store.get("a", lambda: -1) == -1
        with pytest.raises(ValueError):
            FeatureStore(0)

    def test_concurrent_lookups_keep_the_bound_and_the_counts(self):
        store = FeatureStore(16)
        workers, lookups = 6, 2000
        errors: list[str] = []

        def hammer(worker: int) -> None:
            for i in range(lookups):
                key = (worker * 7 + i) % 40
                if store.get(key, lambda: key * 3) != key * 3:
                    errors.append(f"wrong value for {key}")
                if len(store) > 16:
                    errors.append("bound exceeded")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.hits + store.misses == workers * lookups
        assert len(store) <= 16

    def test_deepcopied_deployment_reuses_entries(self, system120, questions120, fresh_store):
        question = questions120[0].text
        first = copy.deepcopy(system120)
        expected = first.engine.answer(AskRequest.of(question)).answer
        misses = fresh_store.misses
        hits = fresh_store.hits
        second = copy.deepcopy(system120)
        assert second.lexicon is not system120.lexicon
        answer = second.engine.answer(AskRequest.of(question)).answer
        assert misses > 0
        assert fresh_store.misses == misses
        assert fresh_store.hits > hits
        assert answer.raw_answer == expected.raw_answer
        assert [c.record.chunk_id for c in answer.documents] == [
            c.record.chunk_id for c in expected.documents
        ]
