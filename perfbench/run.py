"""Wall-clock benchmark of the UniAsk serve path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload live_ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the same workload with every layer's public calls wrapped and
reports the per-layer metrics (spans go to ``perfbench/out/``) and the
layer → end-to-end prediction table.  A report for people comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 when an output check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _missing(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import the program from ``src/`` of this checkout, and nothing else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _missing(f"no program at {src / 'repro'}; run from a full checkout")
    sys.path[:0] = [str(ROOT), str(src)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _missing(f"imported repro from {repro.__file__}, not from {src}")


def _units() -> dict[str, tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}


def _json_number(value: float):
    return value if math.isfinite(value) else None


def run_one(name: str, seed: int, seconds: float, trace: bool, scale_name: str = "full"):
    """Run one workload; returns (correct, attempted, failed, metrics, units, lines)."""
    from perfbench import layers, tracing, workloads

    workload = workloads.WORKLOADS[name]
    scale = workloads.SCALES[scale_name]
    lines = [f"== {name}  seed {seed}  {seconds:g} s  {'traced' if trace else 'untraced'}"
             f"  closed loop, 1 client"]
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            result = workloads.run_workload(workload, seed, seconds, scale, tracer)
        tracing.assert_untraced()
        metrics, breakdown = layers.per_layer(tracer, result.system)
        units = layers.PER_LAYER_METRICS
        correct_attribution = breakdown["attribution_gap_ns"] == 0
        lines += _layer_table(breakdown) + [layers.format_table()]
        path = OUT / f"{name}-seed{seed}-spans.tsv.gz"
        tracer.write(path)
        lines.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        tracing.assert_untraced()
        result = workloads.run_workload(workload, seed, seconds, scale)
        metrics = workloads.end_to_end(result)
        units = _units()
        correct_attribution = True
    window = result.latencies_ms
    lines.append(
        f"inputs: {len(result.system.index)} chunks; {result.passes} passes of "
        f"{len(window)} requests and {len(result.write_ms)} edits, best of the passes; "
        f"set-ups {', '.join(f'{s:.2f}' for s in result.setup_s)} s"
    )
    lines.append("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(result.outcomes.items())))
    for key, value in metrics.items():
        unit, better = units[key]
        lines.append(f"  {key:<28} {value:>12.4f} {unit:<6} ({better} is better)")
    for key, (value, unit) in workloads.report_only(result).items():
        lines.append(f"  {key:<28} {value:>12.4f} {unit:<6} (reported, not gated)")
    lines.append(f"  samples: {len(window)} requests, {len(result.write_ms)} edits, "
                 f"best of {result.passes} passes")
    lines.append(f"fingerprint {result.fingerprint} over the first {result.fingerprinted} requests")
    for problem in result.problems[:20]:
        lines.append(f"CHECK FAILED {problem}")
    correct = result.failed == 0 and correct_attribution
    return correct, result.attempted, result.failed, metrics, units, lines


def _layer_table(breakdown: dict) -> list[str]:
    from perfbench.layers import QUERY_SPANS, WRITE_SPANS

    served, total = breakdown["served"], breakdown["served_ns"]
    lines = [
        f"traced request time by layer ({served} served requests; self time, "
        f"wait 0 everywhere: one process, no queues)",
        f"  {'layer':<26} {'calls':>8} {'ms/request':>11} {'share':>7}",
    ]
    query_ns, calls = breakdown["query_ns"], breakdown["calls"]
    for layer in QUERY_SPANS:
        ns = query_ns[layer]
        lines.append(f"  {layer:<26} {calls[layer]:>8} {ns / served / 1e6:>11.4f} "
                     f"{ns / total:>7.1%}")
    ns = breakdown["unattributed_ns"]
    lines.append(f"  {'unattributed':<26} {'':>8} {ns / served / 1e6:>11.4f} {ns / total:>7.1%}")
    lines.append(f"  attribution gap {breakdown['attribution_gap_ns']} ns "
                 f"(layer self times + unattributed = traced request time)")
    lines.append("write path (set-up and edits): self ms in total")
    for layer in WRITE_SPANS:
        lines.append(f"  {layer:<26} {breakdown['write_ns'][layer] / 1e6:>11.1f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; one of {', '.join(workloads.WORKLOADS)}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, values, units, lines = run_one(
            name, args.seed, args.seconds, bool(args.trace)
        )
        print("\n".join(lines), flush=True)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, value in values.items():
            metrics[prefix + key] = {"value": _json_number(value), "unit": units[key][0]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
