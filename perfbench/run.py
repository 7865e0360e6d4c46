#!/usr/bin/env python3
"""Benchmark of compoz, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):

  cli-cold      one-shot compose / check-cc --route all / factor queries,
                each in a fresh `python -m compoz.cli` process;
  route-sweep   many random phi per fixed (f, g), every cancellation route
                and the exhaustive oracle voting on each;
  normal-suite  staircase, bilinear and twisted-binomial normality checks
                on pairs of normal elements.

With --trace 0 a run sets up several times (fresh import of compoz plus the
workload's inputs), then measures rounds of operations for at least
--seconds seconds and prints the end-to-end metrics.  With --trace 1 it
runs a fixed number of rounds twice, interleaved, once untraced and once
with every layer function wrapped (tracing.py), and prints the per-layer
metrics, the field-kernel timings, the waste ratios and the tracing
overhead.  compoz.orbits is not traced: no workload spends a measurable
share of its time there.  Both modes check every operation.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it, starting with
'#', state the sample counts, the seed, the Python version and the CPU
count.  Full results and the spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFS = HERE / "refs.json"

import tracing  # noqa: E402
from workloads import CLI_COMMANDS, MIN_ROUNDS, WORKLOADS, CliCold, drain  # noqa: E402

SETUP_REPEATS = 9
IMPORT_REPEATS = 5


def compoz_modules():
    return {k: m for k, m in sys.modules.items() if k == "compoz" or k.startswith("compoz.")}


def fresh_import():
    """Import compoz from the checkout's src/ with no module left from before."""
    for key in compoz_modules():
        del sys.modules[key]
    cz = importlib.import_module("compoz")
    if Path(cz.__file__).resolve().parent != (SRC / "compoz").resolve():
        raise RuntimeError(f"compoz imported from {cz.__file__}, not from {SRC}")
    return cz


def load_refs(name):
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)[name]


def make_workload(name, cz, seed, refs, boot=None):
    if name == CliCold.name:
        return CliCold(cz, seed, refs, src=SRC, cwd=ROOT, boot=boot)
    return WORKLOADS[name](cz, seed, refs)


def run_untraced(args, refs):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = make_workload(args.workload, fresh_import(), args.seed, refs)
        setups.append(time.perf_counter() - start)

    # Keep 8 bytes per op rather than the Op objects, so that the run's own
    # bookkeeping barely grows peak_rss_mib when the program gets faster.
    lat, top, failed, by_label = array("d"), array("d"), [], {}

    def record(op):
        lat.append(op.seconds)
        if op.top:
            top.append(op.seconds)
        if not op.ok:
            failed.append(op)
        count_sum = by_label.setdefault(op.label, [0, 0.0])
        count_sum[0] += 1
        count_sum[1] += op.seconds

    start = time.perf_counter()
    drain(wl.prepare(record))
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        drain(wl.run_round(rounds, record))
        rounds += 1
    wall = time.perf_counter() - start

    who = resource.RUSAGE_CHILDREN if args.workload == CliCold.name else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "top_rung_s": (statistics.median(top), "s"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    samples = {
        "setup_s": len(setups), "ops_per_s": len(lat), "op_p50_ms": len(lat),
        "op_p90_ms": len(lat), "top_rung_s": len(top), "peak_rss_mib": 1,
    }
    info = {"rounds": rounds, "wall_s": wall, "samples": samples,
            "label_mean_s": {k: [n, total / n] for k, (n, total) in sorted(by_label.items())}}
    return len(lat), failed, metrics, info


def _cli_children(run_dir):
    summaries, traces = [], []
    for path in sorted(run_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        summaries.append(doc["summary"])
        traces.append(doc["trace"])
    shutil.rmtree(run_dir)
    return tracing.merge_summaries(summaries), traces


def run_traced(args, refs):
    """The fixed plan twice, untraced and traced, interleaved step by step.

    Each copy has its own fresh import of compoz, so neither sees the
    other's caches; interleaving puts both under the same machine load, so
    their time difference is the tracing overhead.  compoz imports some
    names inside functions, so each copy's modules are put back into
    sys.modules before it takes a step.
    """
    metrics = tracing.kernel_metrics(fresh_import(), args.seed)
    plain = make_workload(args.workload, fresh_import(), args.seed, refs)
    modules = [compoz_modules()]
    if args.workload == CliCold.name:
        run_dir = OUT / f"children-{os.getpid()}"
        run_dir.mkdir(parents=True, exist_ok=True)
        boot = [sys.executable, str(HERE / "cli_boot.py"), str(run_dir)]
        traced = make_workload(args.workload, fresh_import(), args.seed, refs, boot=boot)
    else:
        traced = make_workload(args.workload, fresh_import(), args.seed, refs)
        tracer = tracing.Tracer()
        tracer.install()  # wraps only the second import, the one `traced` uses
    modules.append(compoz_modules())

    def plan(wl, record):
        yield from wl.prepare(record)
        for r in range(wl.trace_rounds):
            yield from wl.run_round(r, record)

    plain_ops, traced_ops = [], []
    steps = [plan(plain, plain_ops.append), plan(traced, traced_ops.append)]
    spent = [0.0, 0.0]
    while steps[0] or steps[1]:
        for i, step in enumerate(steps):
            if step is None:
                continue
            sys.modules.update(modules[i])
            start = time.perf_counter()
            if next(step, StopIteration) is StopIteration:
                steps[i] = None
            spent[i] += time.perf_counter() - start

    if args.workload == CliCold.name:
        summary, traces = _cli_children(run_dir)
    else:
        summary, traces = tracer.summary(), [tracer.dump()]
    metrics.update(tracing.layer_metrics(summary))
    metrics["trace.overhead_frac"] = (spent[1] / spent[0] - 1, "ratio")
    metrics.update(cli_metrics(plain_ops))
    info = {"untraced_s": spent[0], "traced_s": spent[1], "counters": summary["counters"]}
    ops = plain_ops + traced_ops
    return len(ops), [op for op in ops if not op.ok], metrics, info, traces


def cli_metrics(plain_ops):
    """cli.import_s, and the median process time per command (zero off cli-cold)."""
    metrics = {}
    for command in CLI_COMMANDS:
        times = [op.seconds for op in plain_ops if op.label.startswith(command + ":")]
        metrics[f"cli.{command}.proc_s"] = (statistics.median(times) if times else 0.0, "s")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import compoz.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    metrics["cli.import_s"] = (statistics.median(times), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "compoz" / "__init__.py").is_file():
        print(f"error: no compoz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = load_refs(args.workload)
    OUT.mkdir(exist_ok=True)

    traces = None
    if args.trace:
        attempted, failed, metrics, info, traces = run_traced(args, refs)
    else:
        attempted, failed, metrics, info = run_untraced(args, refs)

    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed,
           "workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**env, **info, "result": result,
                   "failures": [[op.label, op.problems] for op in failed[:50]]}, fh, indent=1)
    if traces is not None:
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({**env, "processes": traces}, fh, separators=(",", ":"))

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# attempted={attempted} failed={len(failed)} "
          f"fail_frac={len(failed) / attempted if attempted else 0.0:.6g}")
    for op in failed[:10]:
        print(f"# FAILED {op.label}: {'; '.join(op.problems)}")
    samples = info.get("samples", {})
    for k, (v, u) in metrics.items():
        n = f" (n={samples[k]})" if k in samples else ""
        print(f"# {k} = {v:.6g} {u}{n}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
