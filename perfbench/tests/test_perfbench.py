"""The benchmark's own tests, on tiny inputs (run: python -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, reference, tracing, workloads
from perfbench.run import run_one

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_workload_and_per_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("per_layer") == {k: u for k, (u, _) in layers.PER_LAYER_METRICS.items()}
    spans = {target.span for target in layers.all_targets()}
    assert set(layers.QUERY_SPANS) | set(layers.WRITE_SPANS) <= spans
    in_table = {metric for layer in layers.LAYERS for metric in layer.metrics}
    assert in_table | {"request.traced_ms", "unattributed_ms"} == set(layers.PER_LAYER_METRICS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_with_its_unit(name, trace):
    correct, attempted, failed, metrics, units, lines = run_one(
        name, 3, SECONDS, trace, "tiny"
    )
    assert correct, lines
    assert attempted >= workloads.SCALES["tiny"].min_trials and failed == 0
    expected = _declared("per_layer" if trace else "end_to_end")
    assert set(metrics) == set(expected)
    assert {key: units[key][0] for key in metrics} == expected
    tracing.assert_untraced()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_other_seed_changes_inputs_not_metric_names(name):
    scale = workloads.SCALES["tiny"]
    workload = workloads.WORKLOADS[name]

    def traffic(seed):
        inputs = workloads.make_inputs(workload, seed, scale, SECONDS)
        editor = workloads.Editor(seed, [d.doc_id for d in inputs.kb.documents], 8)
        return [q.text for q in inputs.stream], editor._plan

    assert traffic(1) != traffic(2)
    assert traffic(1) == traffic(1)
    names = [set(run_one(name, seed, SECONDS, False, "tiny")[3]) for seed in (1, 2)]
    assert names[0] == names[1]


def test_same_seed_gives_same_fingerprint():
    scale = workloads.SCALES["tiny"]
    workload = workloads.WORKLOADS["live_ingest"]
    runs = [workloads.run_workload(workload, 5, SECONDS, scale) for _ in range(2)]
    assert runs[0].fingerprint == runs[1].fingerprint
    assert runs[0].fingerprinted == scale.fingerprint_requests
    assert runs[0].passes == scale.passes and not runs[0].problems


def test_raising_stage_counts_as_failure_not_crash(monkeypatch):
    from repro.search.reranker import SemanticReranker

    original = SemanticReranker.rerank
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected reranker fault")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SemanticReranker, "rerank", flaky)
    result = workloads.run_workload(
        workloads.WORKLOADS["live_ingest"], 3, SECONDS, workloads.SCALES["tiny"]
    )
    # The raising request fails, and its pass no longer matches the other one.
    assert result.failed == 2
    assert any("injected reranker fault" in p for p in result.problems)
    assert any("diverged" in p for p in result.problems)
    assert float("inf") in result.latencies_ms
    assert len(result.latencies_ms) >= workloads.SCALES["tiny"].min_trials
    assert workloads.end_to_end(result)["p50_ms"] > 0


def test_tracer_restores_attributes_and_attributes_all_time():
    tracer = tracing.Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
        result = workloads.run_workload(
            workloads.WORKLOADS["live_ingest"], 4, SECONDS, workloads.SCALES["tiny"], tracer
        )
    tracing.assert_untraced()
    _, breakdown = layers.per_layer(tracer, result.system)
    assert breakdown["attribution_gap_ns"] == 0
    scale = workloads.SCALES["tiny"]
    assert breakdown["served"] == scale.passes * len(result.latencies_ms) + scale.warmup
    parents = {parent for parent, *_ in tracer.spans}
    assert -1 in parents and len(parents) > 1


def test_rescaling_uses_the_reference_tasks_nearest_in_time():
    scale = workloads.SCALES["tiny"]
    workload = workloads.WORKLOADS["live_ingest"]
    result = workloads.run_workload(workload, 2, SECONDS, scale)
    played = workloads.Pass("p1", workloads.Replica(result.system, None, ""), workload,
                            workloads.make_inputs(workload, 2, scale, SECONDS), result)
    slow, fast = 2 * reference.REFERENCE_MS, reference.REFERENCE_MS / 2
    side = workloads.REFERENCES_AROUND
    played.references = ([(t, slow) for t in range(2 * side + 1)]
                         + [(100 + t, fast) for t in range(2 * side + 1)])
    assert played.rescaled([10.0, 10.0], [side, 100 + side]) == [5.0, 20.0]
    assert result.raw_setup_s and len(result.setup_s) == len(result.raw_setup_s)
    assert len(result.raw_latencies_ms) == len(result.latencies_ms)
    assert statistics.median(result.reference_ms) > 0


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(0, 5), (3, 8), (10, 12)], 1, 11) == 7 + 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
