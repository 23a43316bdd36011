"""The workloads: inputs made from a seed, and the closed-loop client.

Every workload drives the default deployment (``build_uniask_system`` →
``create_backend`` → ``BackendService.serve``) from one process with one
closed-loop client and no threads: each request is sent only after the
previous answer page came back, as an employee waits before searching
again.  The client generates the knowledge base, the questions, the query
log and the document edits from ``--seed``; the program receives only
those inputs.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import random
import re
import resource
import statistics
import sys
import traceback
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from repro.api import ALL_OUTCOMES, OUTCOME_ANSWERED, create_backend
from repro.cache import CacheConfig
from repro.core.answer import OUTCOME_GENERATION_ERROR
from repro.core.config import UniAskConfig
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import (
    HumanDatasetConfig,
    KeywordDatasetConfig,
    generate_human_dataset,
    generate_keyword_dataset,
    keyword_query_pool,
)
from repro.corpus.vocabulary import build_banking_lexicon
from repro.search.fulltext import FullTextSearch

from perfbench import reference


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``queries`` is ``human`` or ``log``."""

    name: str
    topics: int
    queries: str
    #: Trials (and probe edits) per second of ``--seconds``: the trial
    #: script is sized so that a run takes about ``--seconds`` here.
    trials_per_s: float
    probes_per_s: float = 0.0
    cache: bool = False
    edits_per_question: int = 0


# Why these two (BENCHMARK.json says it per workload): live_ingest serves
# the paper's main traffic through the full pipeline and the write path;
# log_replay_cached bypasses the pipeline through the answer cache, leaving
# the service, monitoring and cache layers.  Together they time every layer
# of perfbench/layers.py.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("live_ingest", topics=120, queries="human", trials_per_s=11,
                 edits_per_question=1),
        # The hit path does not depend on corpus size, while filling the
        # cache costs one pipeline run per distinct query: 60 topics keep
        # that fill at ~125 queries.
        Workload("log_replay_cached", topics=60, queries="log", trials_per_s=4000,
                 probes_per_s=10, cache=True),
    )
}


@dataclass(frozen=True)
class Scale:
    """Sizes that do not depend on the workload."""

    topic_divisor: int = 1
    error_families: int = 14
    #: Questions served once before the passes; the log warms with all of its.
    warmup: int = 8
    passes: int = 3
    setups: int = 2
    min_trials: int = 24
    min_probe_edits: int = 8
    fingerprint_requests: int = 24

    def script(self, workload: Workload, seconds: float) -> tuple[int, int]:
        """(trials, probe edits) of every pass of a ``seconds``-long run."""
        trials = round(seconds * workload.trials_per_s / self.passes)
        probes = round(seconds * workload.probes_per_s / self.passes)
        return (max(self.min_trials, trials),
                max(self.min_probe_edits, probes) if workload.edits_per_question == 0 else 0)


SCALES = {
    "full": Scale(),
    # Seconds-long runs for the benchmark's own tests.
    "tiny": Scale(topic_divisor=20, error_families=2, warmup=1, passes=2, setups=1,
                  min_trials=4, min_probe_edits=2, fingerprint_requests=4),
}

#: One corpus and one deployment seed per size: the KB seed changes the
#: corpus size by up to ±5% and the deployment seed the simulated LLM's
#: choices, which would move every metric between seeds more than noise.
#: ``--seed`` picks the traffic: questions, log and edits.
KB_SEED = 1234

#: Simulated seconds between an editor's save and the previous event, so
#: every edit is strictly newer than the last ingestion poll.
EDIT_GAP_S = 1.0

#: Consonants only: the Italian stemmer leaves such markers intact.
_MARKER_LETTERS = "bcdfghlmnpqrstvz"
_PARAGRAPH = re.compile(r"<p>(.*?)</p>")


@dataclass(frozen=True)
class Question:
    text: str
    relevant: frozenset[str]


@dataclass
class Inputs:
    """Everything the client sends, generated from the seed."""

    kb: object
    warmup: list[Question]
    stream: list[Question]
    cycle: bool
    seed: int


def make_inputs(workload: Workload, seed: int, scale: Scale, seconds: float) -> Inputs:
    """The traffic of one run over a fixed corpus.

    The question workload serves a fixed evaluation set, as many questions
    as the run's trial script plays, in an order the seed picks: every seed
    then measures the same work, and quality metrics do not depend on which
    questions a seed happened to draw.  The log workload replays a log the
    seed generates.
    """
    topics = max(4, workload.topics // scale.topic_divisor)
    kb = KbGenerator(
        KbGeneratorConfig(num_topics=topics, error_families=scale.error_families, seed=KB_SEED)
    ).generate()
    if workload.queries == "log":
        _, log = generate_keyword_dataset(kb, KeywordDatasetConfig(seed=seed))
        truth = dict(keyword_query_pool(kb))
        replay = [
            Question(entry.query, truth[entry.query])
            for entry in sorted(log.entries, key=lambda e: (e.timestamp, e.query))
        ]
        # Warm-up fills the cache with every distinct query of the log, in
        # order of first appearance; the passes then replay the log.
        return Inputs(kb, _distinct((q.text, q.relevant) for q in replay), replay,
                      cycle=True, seed=seed)
    labeled = generate_human_dataset(kb, HumanDatasetConfig(num_questions=600, seed=KB_SEED))
    questions = _distinct((q.text, q.relevant_docs) for q in labeled)
    trials = scale.script(workload, seconds)[0]
    stream = questions[scale.warmup: scale.warmup + trials]
    random.Random(seed).shuffle(stream)
    return Inputs(kb, questions[: scale.warmup], stream, cycle=False, seed=seed)


def _distinct(pairs) -> list[Question]:
    seen: set[str] = set()
    out = []
    for text, relevant in pairs:
        if text not in seen:
            seen.add(text)
            out.append(Question(text, frozenset(relevant)))
    return out


def build_config(workload: Workload) -> UniAskConfig | None:
    if not workload.cache:
        return None
    # Each hit advances the simulated clock by ~20 ms, so at wall-clock hit
    # rates a 3600 s TTL would expire the whole cache at a point of the
    # window that depends on machine speed.  Entries here never expire by
    # age; capacity (1,024) holds every distinct query of the log.
    return UniAskConfig(cache=CacheConfig(enabled=True, answer_ttl_seconds=None))


# -- edits ------------------------------------------------------------------------


class Editor:
    """Length-preserving paragraph edits, each carrying a unique marker.

    The edited pages and paragraphs are a fixed plan of *count* edits; the
    seed picks their order.
    """

    def __init__(self, seed: int, doc_ids: list[str], count: int) -> None:
        pick = random.Random(KB_SEED)
        doc_ids = sorted(doc_ids)
        self._plan = [
            (doc_ids[pick.randrange(len(doc_ids))], pick.randrange(1 << 16)) for _ in range(count)
        ]
        random.Random(seed).shuffle(self._plan)
        self._count = 0

    def next_edit(self, store) -> tuple[str, str, str]:
        """(doc id, new html, marker) for the next edit."""
        doc_id, draw = self._plan[self._count]
        self._count += 1
        marker = "xq" + _encode(self._count) + "k"
        html = store.get(doc_id).html
        paragraphs = [m for m in _PARAGRAPH.finditer(html) if len(m.group(1)) > len(marker) + 1]
        match = paragraphs[draw % len(paragraphs)]
        text = match.group(1)
        replaced = marker + " " + text[len(marker) + 1:]
        return doc_id, html[: match.start(1)] + replaced + html[match.end(1):], marker


def _encode(number: int) -> str:
    letters = []
    while True:
        number, digit = divmod(number, len(_MARKER_LETTERS))
        letters.append(_MARKER_LETTERS[digit])
        if number == 0:
            return "".join(reversed(letters))


# -- output checks -------------------------------------------------------------------


def check_answer(answer) -> list[str]:
    """Output checks on one served answer; returns the violations."""
    problems = []
    if answer.outcome not in ALL_OUTCOMES:
        problems.append(f"unknown outcome {answer.outcome!r}")
    if answer.outcome == OUTCOME_GENERATION_ERROR:
        problems.append("generation_error outcome")
    context_ids = {chunk.record.chunk_id for chunk in answer.context}
    for citation in answer.citations:
        if citation.chunk_id not in context_ids:
            problems.append(f"citation {citation.key} -> {citation.chunk_id} not in context")
    if answer.outcome == OUTCOME_ANSWERED and not answer.documents:
        problems.append("answered without documents")
    return problems


def reciprocal_rank(answer, relevant: frozenset[str]) -> float:
    rank = 0
    seen: set[str] = set()
    for chunk in answer.documents:
        doc_id = chunk.record.doc_id
        if doc_id in seen:
            continue
        seen.add(doc_id)
        rank += 1
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


def signature(question: str, answer) -> str:
    """(question, outcome, cited chunk ids, top-10 doc ids) of one answer."""
    cited = ",".join(c.chunk_id for c in answer.citations)
    top = ",".join(c.record.doc_id for c in answer.documents[:10])
    return f"{question}\t{answer.outcome}\t{cited}\t{top}"


def rss_mb() -> float:
    """Current resident set size in MB (Linux ``/proc``; peak RSS elsewhere)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * resource.getpagesize() / 1e6
    except OSError:
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the closed loop ----------------------------------------------------------------


@dataclass
class Replica:
    """A deployment and the client's session on it."""

    system: object
    backend: object
    token: str


@dataclass
class RunResult:
    """Everything one run measured.  Latencies are ms, inf for a failed request."""

    workload: str
    seed: int
    # Times at the host's reference speed (perfbench/reference.py); the
    # raw_* twins are as measured.
    setup_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)  # best of the passes
    write_ms: list[float] = field(default_factory=list)  # best of the passes
    raw_setup_s: list[float] = field(default_factory=list)
    raw_latencies_ms: list[float] = field(default_factory=list)
    raw_write_ms: list[float] = field(default_factory=list)
    reference_ms: list[float] = field(default_factory=list)  # reference tasks of the passes
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    signatures: list[str] = field(default_factory=list)  # warm-up, then pass 1
    scored: int = 0  # answers of the warm-up and the first pass
    outcomes: dict[str, int] = field(default_factory=dict)
    answered: int = 0
    reciprocal_ranks: list[float] = field(default_factory=list)
    rss_before_mb: float = 0.0
    rss_after_mb: float = 0.0
    peak_rss_mb: float = 0.0
    fingerprint_requests: int = 32
    system: object = None

    @property
    def fingerprinted(self) -> int:
        return min(len(self.signatures), self.fingerprint_requests)

    @property
    def fingerprint(self) -> str:
        """Digest of the first requests' signatures; same seed, same digest."""
        digest = hashlib.sha256()
        for line in self.signatures[: self.fingerprint_requests]:
            digest.update(line.encode() + b"\n")
        return digest.hexdigest()[:16]


class Pass:
    """The trial script, played once by one closed-loop client on one replica.

    A trial is one question, followed by the workload's edits.  Every pass
    of a run plays the same trials on its own copy of the warmed deployment.
    """

    def __init__(self, label: str, replica: Replica, workload: Workload, inputs: Inputs,
                 result: RunResult, edits: int = 0, tracer=None,
                 writer: Replica | None = None) -> None:
        self.label = label
        self.replica = replica
        # Edits go to *writer* when given, else to the deployment served.
        self.writer = writer or replica
        self.workload = workload
        self.inputs = inputs
        self.result = result
        self.tracer = tracer
        self.editor = Editor(inputs.seed, [d.doc_id for d in inputs.kb.documents], edits)
        # Warm-up and the first pass are scored; later passes repeat them.
        self.scored = label in ("warm", "p1")
        self.fulltext = FullTextSearch(self.writer.system.index)
        self.latencies: list[float] = []
        self.writes: list[float] = []
        # Start (perf_counter s) of every request and edit, and
        # (start, ms) of every reference task, to rescale each latency by
        # the host speed measured around it.
        self.latency_at: list[float] = []
        self.write_at: list[float] = []
        self.references: list[tuple[float, float]] = []
        self._next_reference = 0.0
        self.signatures: list[str] = []
        self._served = 0

    def _begin(self, request: str) -> None:
        """Spans from here on belong to *request*."""
        if self.tracer is not None:
            self.tracer.request = request

    def _end(self, request: str, phase: str, start: int, end: int) -> None:
        if self.tracer is not None:
            self.tracer.record_request(request, phase, start, end)
        self._begin("client")

    def _fail(self, request: str, problems: list[str]) -> None:
        self.result.failed += 1
        self.result.problems.extend(f"{request}: {p}" for p in problems)

    def serve(self, question: Question, phase: str = "query") -> float:
        """Serve one question; returns its latency in ms (inf when it failed)."""
        replica = self.replica
        self._served += 1
        request = f"{self.label}.{phase}{self._served}"
        self._begin(request)
        self.latency_at.append(perf_counter())
        start = perf_counter_ns()
        try:
            record = replica.backend.serve(replica.token, question.text)
        except Exception:
            end = perf_counter_ns()
            answer = None
            problems = ["serve raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
        else:
            end = perf_counter_ns()
            answer = record.answer
            problems = check_answer(answer)
            if replica.backend.single_flight is not None:
                # Coalescing services leave the clock to the caller: the next
                # request of a closed loop arrives when this one completed.
                replica.system.clock.advance(answer.response_time)
        self._end(request, phase, start, end)
        result = self.result
        result.attempted += 1
        if self.scored and answer is not None:
            result.scored += 1
            result.outcomes[answer.outcome] = result.outcomes.get(answer.outcome, 0) + 1
            result.answered += answer.outcome == OUTCOME_ANSWERED
            if question.relevant:
                result.reciprocal_ranks.append(reciprocal_rank(answer, question.relevant))
        if problems:
            self._fail(f"{request} {question.text!r}", problems)
        self.signatures.append(signature(question.text, answer) if answer else "raised")
        return float("inf") if problems else (end - start) / 1e6

    def edit(self) -> float:
        """One edit, timed from the store write until it is searchable (ms)."""
        system = self.writer.system
        request = f"{self.label}.edit{len(self.writes) + 1}"
        system.clock.advance(EDIT_GAP_S)
        doc_id, html, marker = self.editor.next_edit(system.store)
        self._begin(request)
        self.write_at.append(perf_counter())
        start = perf_counter_ns()
        system.store.update_html(doc_id, html, modified_at=system.clock.now())
        system.ingestion.poll_now()
        system.indexing.drain()
        end = perf_counter_ns()
        self._end(request, "write", start, end)
        self._begin("check")
        hits = self.fulltext.search(marker, n=1)
        self._begin("client")
        self.result.attempted += 1
        latency = (end - start) / 1e6
        if not hits or hits[0].record.doc_id != doc_id:
            top = hits[0].record.doc_id if hits else None
            self._fail(request, [f"marker {marker} ranks {top} first, not {doc_id}"])
            latency = float("inf")
        self.writes.append(latency)
        return latency

    def time_reference(self, force: bool = False) -> None:
        """Time a reference task when one is due (every ``reference.EVERY_S``)."""
        now = perf_counter()
        if force or now >= self._next_reference:
            self.references.append((now, reference.time_task()))
            self._next_reference = perf_counter() + reference.EVERY_S

    def run(self, script: tuple[int, int], limit_s: float | None = None,
            min_trials: int = 0) -> None:
        """Play ``script = (trials, probe edits)``; past *limit_s*, stop after
        *min_trials* trials.

        Workloads without edits of their own play probe edits, spread evenly
        between the trials, so every workload measures write latency.
        """
        stream = self.inputs.stream
        trials, probes = script
        every = max(1, trials // probes) if probes else 0
        deadline = perf_counter() + limit_s if limit_s else float("inf")
        for _ in range(REFERENCES_AROUND):
            self.time_reference(force=True)
        for position in range(trials):
            if position == len(stream) and not self.inputs.cycle:
                break
            if position >= min_trials and perf_counter() > deadline:
                break
            self.latencies.append(self.serve(stream[position % len(stream)]))
            for _ in range(self.workload.edits_per_question):
                self.edit()
            if every and position % every == every - 1 and len(self.writes) < probes:
                self.edit()
            self.time_reference()
        if self.label == "p1":
            gc.collect()
            self.result.rss_after_mb = rss_mb()
        while len(self.writes) < probes:
            self.edit()
            self.time_reference()
        for _ in range(REFERENCES_AROUND):
            self.time_reference(force=True)

    def rescaled(self, latencies: list[float], starts: list[float]) -> list[float]:
        """*latencies* at the reference speed, each by the reference tasks
        nearest to it in time (``REFERENCES_AROUND`` on either side)."""
        times = [t for t, _ in self.references]
        out = []
        for latency, start in zip(latencies, starts):
            at = bisect_left(times, start)
            nearby = self.references[max(0, at - REFERENCES_AROUND): at + REFERENCES_AROUND]
            out.append(latency * reference.factor([ms for _, ms in nearby]))
        return out


#: Reference tasks timed around each set-up, and on either side of a
#: request or edit to rescale it; also at the start and end of every pass.
REFERENCES_AROUND = 15


def _best(columns: list[list[float]]) -> list[float]:
    """Per position, the best of the passes; inf when any pass failed there."""
    return [
        float("inf") if float("inf") in values else min(values) for values in zip(*columns)
    ]


def run_workload(workload: Workload, seed: int, seconds: float, scale: Scale,
                 tracer=None) -> RunResult:
    """Set up (several times when untraced), warm up, then play the passes.

    Every pass plays the same trial script (sized by ``Scale.script``) on a
    fresh copy of the warmed deployment.  Each request's and edit's latency
    is rescaled to the host's reference speed by the reference tasks timed
    around it, then taken as its best over the passes, which filters short
    stalls out of the percentiles while every pass still does the full
    work.  Set-ups are rescaled by reference tasks timed before and after.
    """
    inputs = make_inputs(workload, seed, scale, seconds)
    lexicon = build_banking_lexicon()
    config = build_config(workload)
    result = RunResult(workload.name, seed, fingerprint_requests=scale.fingerprint_requests)
    setups = 1 if tracer is not None else scale.setups

    def set_up():
        gc.collect()
        print(f"[{workload.name}] set-up {len(result.setup_s) + 1}/{setups}", file=sys.stderr)
        around = [reference.time_task() for _ in range(REFERENCES_AROUND)]
        start = perf_counter()
        system = build_uniask_system(inputs.kb.store(), lexicon, config=config, seed=KB_SEED)
        elapsed = perf_counter() - start
        around += [reference.time_task() for _ in range(REFERENCES_AROUND)]
        result.raw_setup_s.append(elapsed)
        result.setup_s.append(elapsed * reference.factor(around))
        return system

    system = set_up()
    backend = create_backend(system)
    template = Replica(system, backend, backend.login("bench-employee"))
    warm = Pass("warm", template, workload, inputs, result, tracer=tracer)
    for question in inputs.warmup:
        warm.serve(question, "warmup")
    result.signatures = list(warm.signatures)
    print(f"[{workload.name}] {len(system.index)} chunks; {scale.passes} passes, "
          f"{seconds:g} s", file=sys.stderr)
    passes: list[Pass] = []
    script = scale.script(workload, seconds)
    edits = script[0] * workload.edits_per_question + script[1]
    for number in range(1, scale.passes + 1):
        if 1 < number <= setups:
            # Later set-ups run between passes: they are timed like the first,
            # and they spread the passes over a longer span of time.
            set_up()
        replica = copy.deepcopy(template)
        gc.collect()
        if number == 1:
            result.rss_before_mb = rss_mb()
        # Probe edits go to a copy of their own: a corpus write empties the
        # answer cache that the workload without edits measures.
        writer = None if workload.edits_per_question else copy.deepcopy(template)
        played = Pass(f"p{number}", replica, workload, inputs, result, edits, tracer, writer)
        # A pass more than twice as slow as planned is cut short, and the
        # other passes replay what it played: the run stays bounded in time.
        if number == 1:
            played.run(script, 2 * seconds / scale.passes + 1, scale.min_trials)
        else:
            played.run(script)
        trials = len(played.latencies)
        script = (trials, len(played.writes) - trials * workload.edits_per_question)
        if passes and played.signatures != passes[0].signatures:
            diverged = next(i for i, (a, b) in enumerate(
                zip(played.signatures, passes[0].signatures)) if a != b)
            result.failed += 1
            result.problems.append(f"pass {number} diverged from pass 1 at request {diverged}")
        passes.append(played)
        result.system = played.writer.system
    for _ in range(len(result.setup_s), setups):
        set_up()
    result.signatures += passes[0].signatures
    result.raw_latencies_ms = _best([p.latencies for p in passes])
    result.raw_write_ms = _best([p.writes for p in passes])
    result.latencies_ms = _best([p.rescaled(p.latencies, p.latency_at) for p in passes])
    result.write_ms = _best([p.rescaled(p.writes, p.write_at) for p in passes])
    result.reference_ms = [ms for p in passes for _, ms in p.references]
    result.passes = len(passes)
    result.peak_rss_mb = peak_rss_mb()
    return result


# -- metrics ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; failed requests (inf) sort last."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == float("inf"):
        return ordered[high] if position > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(result: RunResult) -> dict[str, float]:
    """The end-to-end metrics of an untraced run (see BENCHMARK.json)."""
    window = result.latencies_ms
    finite = [v for v in window if v != float("inf")]
    return {
        "qps": 1000.0 * len(finite) / sum(finite) if finite else 0.0,
        "p50_ms": percentile(window, 0.50),
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
        "answered_rate": result.answered / result.scored,
        "mrr": statistics.fmean(result.reciprocal_ranks) if result.reciprocal_ranks else 0.0,
        "write_p50_ms": percentile(result.write_ms, 0.50),
    }


def report_only(result: RunResult) -> dict[str, tuple[float, str]]:
    """Metrics printed for people but not gated: ``error_rate`` is 0 on every
    correct run, and the tails rest on too few requests and edits per run
    (fewer than ten beyond the 95th percentile on the question workloads).
    The raw_* metrics are the gated times as measured, before rescaling to
    the reference speed."""
    return {
        "raw_p50_ms": (percentile(result.raw_latencies_ms, 0.50), "ms"),
        "raw_write_p50_ms": (percentile(result.raw_write_ms, 0.50), "ms"),
        "raw_setup_s": (statistics.median(result.raw_setup_s), "s"),
        "reference_task_ms": (statistics.median(result.reference_ms), "ms"),
        "p95_ms": (percentile(result.latencies_ms, 0.95), "ms"),
        "write_p95_ms": (percentile(result.write_ms, 0.95), "ms"),
        "rss_growth_mb": (result.rss_after_mb - result.rss_before_mb, "MB"),
        "error_rate": (result.failed / result.attempted, "share"),
    }
