"""The layers the traced run times, and what each one should move.

Each :class:`Layer` names the repository module it belongs to, the public
callables the traced run wraps (:class:`Target`), and the end-to-end metric
a change to that layer is predicted to move, on which workload.  Later
performance changes cite a row of :data:`LAYERS` by its ``name`` when they
state, before any code is written, which numbers should move.

Span names are the layer names; a layer with several targets (the index
write path, the answer cache) books every target under its own span name
so each can be reported separately.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One public callable to time: ``module.owner.attr`` (``owner`` may be "")."""

    module: str
    owner: str
    attr: str
    span: str

    def resolve(self):
        """The object that holds the attribute (a class or a module)."""
        holder = importlib.import_module(self.module)
        return getattr(holder, self.owner) if self.owner else holder

    @property
    def dotted(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}.{owner}{self.attr}"


@dataclass(frozen=True)
class Layer:
    """One row of the layer → end-to-end prediction table."""

    name: str
    module: str
    targets: tuple[Target, ...]
    metrics: tuple[str, ...]
    predicts: str


def _t(module: str, owner: str, attr: str, span: str) -> Target:
    return Target(f"repro.{module}", owner, attr, span)


#: The prediction table.  ``metrics`` are the per-layer metric names the
#: traced run reports for the layer (see :data:`PER_LAYER_METRICS`).
LAYERS: tuple[Layer, ...] = (
    Layer(
        "service", "service.backend",
        (_t("service.backend", "BackendService", "serve", "service"),),
        ("service.self_ms",),
        "p50_ms, qps on log_replay_cached; under 1% of live_ingest",
    ),
    Layer(
        "core", "core.engine",
        (_t("core.engine", "UniAskEngine", "answer", "core"),),
        ("core.self_ms",),
        "p50_ms on log_replay_cached",
    ),
    Layer(
        "cache", "cache.answer_cache",
        (
            _t("cache.answer_cache", "AnswerCache", "lookup", "cache.lookup"),
            _t("cache.answer_cache", "AnswerCache", "store", "cache.store"),
        ),
        ("cache.hit_ratio", "cache.lookups"),
        "p50_ms, qps on log_replay_cached",
    ),
    Layer(
        "content_filter", "llm.content_filter",
        (_t("llm.content_filter", "ContentFilter", "check", "content_filter"),),
        ("content_filter.ms",),
        "p50_ms on both workloads (small)",
    ),
    Layer(
        "fulltext", "search.fulltext",
        (_t("search.fulltext", "FullTextSearch", "search", "fulltext"),),
        ("fulltext.ms",),
        "p50_ms on live_ingest",
    ),
    Layer(
        "embed", "embeddings.cache",
        (_t("embeddings.cache", "CachingEmbedder", "embed", "embed"),),
        ("embed.ms", "embed.calls", "embed.hit_ratio"),
        "setup_s; write_p50_ms on both workloads",
    ),
    Layer(
        "vector", "search.vector + ann.hnsw",
        (
            _t("search.vector", "VectorSearch", "search_by_vector", "vector"),
            _t("ann.hnsw", "HnswIndex", "search", "ann.search"),
        ),
        ("vector.self_ms", "ann.search_ms", "ann.fetch_per_result"),
        "p50_ms on live_ingest, more as its tombstones raise the fetch",
    ),
    Layer(
        "ann_build", "ann.hnsw",
        (_t("ann.hnsw", "HnswIndex", "add", "ann.add"),),
        ("ann.add_ms", "ann.adds"),
        "setup_s and write_p50_ms on both workloads",
    ),
    Layer(
        "fusion", "search.fusion",
        # HybridSemanticSearch calls the name it imported into its module.
        (_t("search.hybrid", "", "reciprocal_rank_fusion", "fusion"),),
        ("fusion.ms", "fusion.candidates"),
        "p50_ms on live_ingest (small)",
    ),
    Layer(
        "reranker", "search.reranker",
        (_t("search.reranker", "SemanticReranker", "rerank", "reranker"),),
        ("reranker.ms", "reranker.candidates", "reranker.us_per_candidate"),
        "p50_ms, qps on live_ingest; hardly any on log_replay_cached",
    ),
    Layer(
        "prompt", "llm.prompts",
        # UniAskEngine calls the name it imported into its module.
        (_t("core.engine", "", "build_answer_prompt", "prompt"),),
        ("prompt.ms",),
        "p50_ms on live_ingest (small)",
    ),
    Layer(
        "llm", "llm.simulated",
        (_t("llm.simulated", "SimulatedChatLLM", "complete", "llm"),),
        ("llm.ms", "llm.enrich_ms", "llm.calls"),
        "p50_ms on live_ingest; setup_s (enrichment)",
    ),
    Layer(
        "guardrails", "guardrails",
        (
            _t("guardrails.citation", "CitationGuardrail", "check", "guardrail.citation"),
            _t("guardrails.rouge", "RougeGuardrail", "check", "guardrail.rouge"),
            _t("guardrails.clarification", "ClarificationGuardrail", "check",
               "guardrail.clarification"),
        ),
        ("guardrail.citation.ms", "guardrail.rouge.ms", "guardrail.clarification.ms",
         "guardrail.fired_ratio"),
        "p50_ms on live_ingest; answered_rate",
    ),
    Layer(
        "pipeline", "pipeline.ingestion + pipeline.indexing",
        (
            _t("pipeline.ingestion", "IngestionService", "poll_now", "ingestion.poll"),
            _t("pipeline.indexing", "IndexingService", "drain", "indexing.drain"),
            _t("pipeline.indexing", "IndexingService", "build_records",
               "indexing.build_records"),
        ),
        ("ingestion.poll_ms", "indexing.drain_ms", "indexing.build_records_ms"),
        "write_p50_ms on both workloads; setup_s",
    ),
    Layer(
        "index", "search.index",
        (
            _t("search.index", "SearchIndex", "add_chunk", "index.write"),
            _t("search.index", "SearchIndex", "delete_document", "index.write"),
        ),
        ("index.write_self_ms", "index.tombstone_ratio", "index.segment_count"),
        "write_p50_ms, p50_ms on live_ingest",
    ),
)

#: name → (unit, better).  The traced run reports exactly these.
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "service.self_ms": ("ms", "lower"),
    "core.self_ms": ("ms", "lower"),
    "cache.hit_ratio": ("share", "higher"),
    "cache.lookups": ("count", "higher"),
    "content_filter.ms": ("ms", "lower"),
    "fulltext.ms": ("ms", "lower"),
    "embed.ms": ("ms", "lower"),
    "embed.calls": ("count", "lower"),
    "embed.hit_ratio": ("share", "higher"),
    "vector.self_ms": ("ms", "lower"),
    "ann.search_ms": ("ms", "lower"),
    "ann.fetch_per_result": ("ratio", "lower"),
    "ann.add_ms": ("ms", "lower"),
    "ann.adds": ("count", "lower"),
    "fusion.ms": ("ms", "lower"),
    "fusion.candidates": ("count", "lower"),
    "reranker.ms": ("ms", "lower"),
    "reranker.candidates": ("count", "lower"),
    "reranker.us_per_candidate": ("us", "lower"),
    "prompt.ms": ("ms", "lower"),
    "llm.ms": ("ms", "lower"),
    "llm.enrich_ms": ("ms", "lower"),
    "llm.calls": ("count", "lower"),
    "guardrail.citation.ms": ("ms", "lower"),
    "guardrail.rouge.ms": ("ms", "lower"),
    "guardrail.clarification.ms": ("ms", "lower"),
    "guardrail.fired_ratio": ("share", "lower"),
    "ingestion.poll_ms": ("ms", "lower"),
    "indexing.drain_ms": ("ms", "lower"),
    "indexing.build_records_ms": ("ms", "lower"),
    "index.write_self_ms": ("ms", "lower"),
    "index.tombstone_ratio": ("share", "lower"),
    "index.segment_count": ("count", "lower"),
    "request.traced_ms": ("ms", "lower"),
    "unattributed_ms": ("ms", "lower"),
}

#: Span names of layers on the query path, in pipeline order.
QUERY_SPANS: tuple[str, ...] = (
    "service", "core", "cache.lookup", "cache.store", "content_filter", "fulltext",
    "embed", "vector", "ann.search", "fusion", "reranker", "prompt", "llm",
    "guardrail.citation", "guardrail.rouge", "guardrail.clarification",
)

#: Span names of layers on the write path (set-up ingest and live edits).
WRITE_SPANS: tuple[str, ...] = (
    "ingestion.poll", "indexing.drain", "indexing.build_records", "llm", "embed",
    "index.write", "ann.add",
)


def all_targets() -> tuple[Target, ...]:
    return tuple(target for layer in LAYERS for target in layer.targets)


def format_table() -> str:
    """The prediction table as text, one layer per line."""
    lines = [f"{'layer':<15} {'module':<40} metrics  →  should move"]
    for layer in LAYERS:
        lines.append(f"{layer.name:<15} {layer.module:<40} {', '.join(layer.metrics)}")
        lines.append(f"{'':<15} {'':<40} → {layer.predicts}")
    return "\n".join(lines)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, system) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of a traced run, plus the breakdown behind them.

    Query-path times are self milliseconds per served request (warm-up and
    window); write-path times are self milliseconds per call over set-up
    and edits.  The marker searches of the output checks are left out.
    """
    selfs = tracer.self_times()
    client_ns = {request: end - start for request, _, start, end in tracer.requests}
    served = {r for r, phase, _, _ in tracer.requests if phase in ("warmup", "query")}
    writes = {"setup"} | {r for r, phase, _, _ in tracer.requests if phase == "write"}
    query_ns: Counter[str] = Counter()
    write_ns: Counter[str] = Counter()
    write_calls: Counter[str] = Counter()
    all_ns: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for (_, request, layer, _, _), self_ns in zip(tracer.spans, selfs):
        all_ns[layer] += self_ns
        calls[layer] += 1
        if request in served:
            query_ns[layer] += self_ns
        elif request in writes:
            write_ns[layer] += self_ns
            write_calls[layer] += 1
    unattributed = tracer.unattributed()
    n = len(served)
    served_ns = sum(client_ns[r] for r in served)
    gap_ns = served_ns - sum(query_ns.values()) - sum(unattributed[r] for r in served)
    counts = tracer.counts
    embedder = system.embedder

    def per_request(layer: str) -> float:
        return _ratio(query_ns[layer], n) / 1e6

    def per_write(layer: str) -> float:
        return _ratio(write_ns[layer], write_calls[layer]) / 1e6

    metrics = {
        "service.self_ms": per_request("service"),
        "core.self_ms": per_request("core"),
        "cache.hit_ratio": _ratio(counts["cache.hits"], calls["cache.lookup"]),
        "cache.lookups": calls["cache.lookup"],
        "content_filter.ms": per_request("content_filter"),
        "fulltext.ms": per_request("fulltext"),
        "embed.ms": _ratio(all_ns["embed"], calls["embed"]) / 1e6,
        "embed.calls": calls["embed"],
        "embed.hit_ratio": _ratio(embedder.hits, embedder.hits + embedder.misses),
        "vector.self_ms": per_request("vector"),
        "ann.search_ms": per_request("ann.search"),
        "ann.fetch_per_result": _ratio(counts["ann.fetched"], counts["vector.kept"]),
        "ann.add_ms": _ratio(all_ns["ann.add"], calls["ann.add"]) / 1e6,
        "ann.adds": calls["ann.add"],
        "fusion.ms": per_request("fusion"),
        "fusion.candidates": _ratio(counts["fusion.candidates"], calls["fusion"]),
        "reranker.ms": per_request("reranker"),
        "reranker.candidates": _ratio(counts["reranker.candidates"], calls["reranker"]),
        "reranker.us_per_candidate": _ratio(all_ns["reranker"] / 1e3,
                                            counts["reranker.candidates"]),
        "prompt.ms": per_request("prompt"),
        "llm.ms": per_request("llm"),
        "llm.enrich_ms": _ratio(write_ns["llm"], write_calls["indexing.build_records"]) / 1e6,
        "llm.calls": calls["llm"],
        "guardrail.citation.ms": per_request("guardrail.citation"),
        "guardrail.rouge.ms": per_request("guardrail.rouge"),
        "guardrail.clarification.ms": per_request("guardrail.clarification"),
        "guardrail.fired_ratio": _ratio(counts["guardrail.fired"], calls["guardrail.citation"]),
        "ingestion.poll_ms": per_write("ingestion.poll"),
        "indexing.drain_ms": per_write("indexing.drain"),
        "indexing.build_records_ms": per_write("indexing.build_records"),
        "index.write_self_ms": per_write("index.write"),
        "index.tombstone_ratio": system.index.tombstone_ratio,
        "index.segment_count": system.index.segment_count,
        "request.traced_ms": _ratio(served_ns, n) / 1e6,
        "unattributed_ms": _ratio(sum(unattributed[r] for r in served), n) / 1e6,
    }
    breakdown = {
        "served": n,
        "served_ns": served_ns,
        "attribution_gap_ns": gap_ns,
        "query_ns": query_ns,
        "write_ns": write_ns,
        "calls": calls,
        "unattributed_ns": sum(unattributed[r] for r in served),
    }
    return metrics, breakdown
