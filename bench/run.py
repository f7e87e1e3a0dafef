"""The twoseq benchmark: one workload per run, a closed loop with one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the root of a checkout; it imports the package from ``src``.
One process and one thread issue operations back to back.  Each operation
runs one CLI pipeline (`cases.run_*`) on generated text, and each verdict
is compared, outside the timed region, with the answer fixed when the text
was generated.  The loop makes whole passes over the workload's fixed
input set until ``--seconds`` have passed and at least `MIN_PASSES` passes
are done.  The calibration kernel of ``calib`` is timed before every
operation, and each latency is scaled to the kernel's nominal speed, so
that the figures follow the program and not the load on a shared machine.
Every latency sample is one input's median over the passes:

- ``ops_per_s``: inputs in the set divided by the sum of their latencies;
- ``latency_p50_ms``, ``latency_tail_ms``: the median latency, and the
  highest percentile with at least ten samples beyond it (the percentile
  and the sample count are in the ``detail`` line);
- ``setup_s``: median over fresh interpreters of the wall time to import
  ``twoseq`` and build ``corpus.entries`` for all nine systems, scaled by
  the kernel timed in the same interpreter;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which runs one workload;
- ``output_nodes_ratio``: nodes of the proofs the pipelines end with (the
  cut-free output of ``cutelim``, else the expanded proof that was checked)
  over nodes of the scripts they read.

Failures (exceptions and wrong verdicts) are ``failed`` out of
``attempted``; any failure makes the exit code 1.  With ``--trace 1`` the
loop runs half the time untraced and half traced (see ``spans``), and the
metrics are per-layer: each time or count is for one pass over the input
set (times as timed, not scaled), plus the growth fits of ``scaling``.  The last line of standard output
is the result as one JSON object; the line before it holds the details,
with the unscaled figures.  ``--smoke`` runs every workload at tiny sizes
in both modes and checks that every metric named in BENCHMARK.json is
emitted with its unit and that nothing failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
TRACED_MIN_PASSES = 2    # in each half of a traced run
SETUP_RUNS = 7
TAIL_BEYOND = 10

# the kernel is timed after the set-up, whose imports it must not warm
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from twoseq import corpus
from twoseq.calculus import SystemId
for s in SystemId:
    corpus.entries(s)
took = time.perf_counter() - t0
import calib, statistics
print(took, statistics.median(calib.sample() for _ in range(9)))
"""


def setup_seconds(runs: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters run one after another,
    scaled and unscaled."""
    import calib
    scaled, raw = [], []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True)
        took, ref = map(float, done.stdout.split())
        raw.append(took)
        scaled.append(took * calib.NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Measurement:
    latencies: list[list[float]]        # per case, one per pass, scaled
    raw: list[list[float]]              # per case, one per pass, as timed
    counts: list = field(default_factory=list)   # NodeCounts of pass one
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    passes: int = 0


def measure(workload, cases, seconds: float, min_passes: int,
            tracer=None) -> Measurement:
    """Whole passes over the cases.  Outcomes are dropped as soon as they
    are verified, so the loop keeps no proofs alive between operations."""
    import calib
    m = Measurement([[] for _ in cases], [[] for _ in cases])
    refs: list[float] = []
    started = time.perf_counter()
    while m.passes < min_passes or time.perf_counter() - started < seconds:
        for i, case in enumerate(cases):
            refs.append(calib.sample())
            out, problem = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(case)
                else:
                    with tracer.operation(m.passes * len(cases) + i):
                        out = workload.run(case)
            except Exception as e:          # counted as a failed operation
                problem = f"{type(e).__name__}: {e}"
            m.raw[i].append(time.perf_counter() - t0)
            if problem is None:
                try:
                    problem = workload.verify(case, out)
                except Exception as e:
                    problem = f"verifying: {type(e).__name__}: {e}"
            m.attempted += 1
            if problem is not None:
                m.failures.append(f"{case.family} {case.system.value} "
                                  f"size {case.size}: {problem}")
            if m.passes == 0 and out is not None:
                m.counts.append(out.node_counts())
            del out
        m.passes += 1
    factors = iter(calib.scales(refs))
    for p in range(m.passes):
        for i in range(len(cases)):
            m.latencies[i].append(m.raw[i][p] * next(factors))
    return m


def latency_metrics(latencies: list[list[float]]) -> tuple[dict, dict]:
    per_case = sorted(statistics.median(xs) for xs in latencies)
    n = len(per_case)
    k = max(n - 1 - TAIL_BEYOND, 0)
    metrics = {
        "ops_per_s": (n / sum(per_case), "1/s"),
        "latency_p50_ms": (statistics.median(per_case) * 1e3, "ms"),
        "latency_tail_ms": (per_case[k] * 1e3, "ms"),
    }
    detail = {"latency_samples": n, "tail_percentile": round(100 * (k + 1) / n, 2)}
    return metrics, detail


def family_ms(labels: list[str], latencies: list[list[float]]) -> dict:
    """Median latency of each input family, in ms."""
    by: dict[str, list[float]] = {}
    for label, xs in zip(labels, latencies):
        by.setdefault(label, []).append(statistics.median(xs))
    return {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by.items())}


def node_ratio(counts) -> float:
    return (sum(c.final for c in counts if c.script)
            / sum(c.script for c in counts))


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    import cases
    import scaling
    import spans

    workload = cases.WORKLOADS[name]
    inputs = workload.build(seed, cases.TINY if tiny else cases.FULL)
    min_passes = 1 if tiny else MIN_PASSES
    labels = [f"{c.family}-{c.size}" if c.size else c.family for c in inputs]
    detail: dict = {"workload": name, "seed": seed, "cases": len(inputs),
                    "families": Counter(labels)}
    # what generation left alive belongs to the harness, not the program:
    # keep later collections from scanning it
    gc.collect()
    gc.freeze()

    if not trace:
        m = measure(workload, inputs, seconds, min_passes)
        attempted, failures = m.attempted, m.failures
        metrics, d = latency_metrics(m.latencies)
        detail.update(d)
        detail["family_ms"] = family_ms(labels, m.latencies)
        metrics["output_nodes_ratio"] = (node_ratio(m.counts), "ratio")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        setup, setup_raw = setup_seconds(1 if tiny else SETUP_RUNS)
        metrics["setup_s"] = (setup, "s")
        raw, _ = latency_metrics(m.raw)
        detail["unscaled"] = {**{k: v for k, (v, _) in raw.items()},
                              "setup_s": setup_raw}
    else:
        half = min(min_passes, TRACED_MIN_PASSES)
        untraced = measure(workload, inputs, seconds / 2, half)
        tracer = spans.Tracer()
        with tracer.install():
            m = measure(workload, inputs, seconds / 2, half, tracer)
        attempted = untraced.attempted + m.attempted
        failures = untraced.failures + m.failures
        traced, d = latency_metrics(m.latencies)
        detail.update(d)
        layer = tracer.summary(len(inputs))
        parsed = sum(len(c.text.encode()) for c in inputs)
        layer["parser.parse_bytes_per_s"] = (
            parsed / layer["parser.parse_s"] if layer["parser.parse_s"] else 0.0)
        layer["calculus.bridge_nodes"] = sum(c.expanded - c.script
                                             for c in m.counts if c.script)
        layer["cutelim.nodes_in"] = sum(c.script for c in m.counts if c.output)
        layer["cutelim.nodes_out"] = sum(c.output for c in m.counts)
        layer["trace.traced_ops_per_s"] = traced["ops_per_s"][0]
        layer["trace.untraced_ops_per_s"] = \
            latency_metrics(untraced.latencies)[0]["ops_per_s"][0]
        s = scaling.series(seed, tiny)
        layer.update(scaling.fitted(s))
        detail["series"] = s
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    detail.update(passes=m.passes, attempted=attempted, failed=len(failures),
                  failed_share=len(failures) / attempted,
                  failures=failures[:10])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def unit_of(metric: str) -> str:
    if metric.endswith("bytes_per_s"):
        return "B/s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_exponent", "_growth")):
        return "ratio"
    return "count"


def smoke() -> int:
    """Every workload at tiny sizes, in both modes: every metric named in
    BENCHMARK.json must be emitted with its unit, and nothing may fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, detail = run(w["name"], 1, 0.0, trace, tiny=True)
            got = result["metrics"]
            for m in spec[key]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{w['name']}: {m['name']} [{m['unit']}] "
                                    f"missing or in another unit")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{w['name']}: unlisted metrics {sorted(extra)}")
            if detail["failed_share"] != 0 or not result["correct"]:
                problems.append(f"{w['name']}: failures {detail['failures']}")
            print(f"smoke {w['name']} trace={int(trace)}: "
                  f"{result['attempted']} operations", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "twoseq" / "__init__.py").is_file():
        print(f"error: no twoseq package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    import cases
    if args.workload not in cases.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(cases.WORKLOADS)}")
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
