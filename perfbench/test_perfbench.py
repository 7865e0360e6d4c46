"""Tests of the benchmark's own checks and determinism.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import REF_SEED, NormalSuite, RouteSweep, drain  # noqa: E402

sys.path.insert(0, str(run.SRC))
OTHER_SEED = 7


def _workload(name, seed):
    return run.make_workload(name, run.fresh_import(), seed, run.load_refs(name))


def _corrupt_product(stdout):
    doc = json.loads(stdout)
    head, _, tail = doc["product"].partition(",")
    doc["product"] = f"{(int(head) + 1) % doc['q']},{tail}"
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def test_corrupted_cli_stdout_counts_as_failed_op():
    for seed in (REF_SEED, OTHER_SEED):
        wl = _workload("cli-cold", seed)
        group = wl.queries(0)[0]  # compose, check-cc, factor on the first rung
        results = [wl.run_query(q) for q in group]
        assert [op.ok for op in wl.check_group(0, group, results)] == [True] * 3

        code, stdout, seconds = results[0]
        for bad in (_corrupt_product(stdout), stdout[:-5]):
            ops = wl.check_group(0, group, [(code, bad, seconds)] + results[1:])
            assert not ops[0].ok, seed
        if seed == REF_SEED:
            # the reference alone catches a changed byte that every cross-check misses
            ops = wl.check_group(0, group, [(code, stdout + b" ", seconds)] + results[1:])
            assert any("reference" in p for p in ops[0].problems)


def test_flipped_route_verdict_counts_as_failed_op():
    wl = _workload("route-sweep", REF_SEED)
    for inst in wl.instances[1:]:
        inst["pair"] = None  # run the first instance only
    inst = wl.instances[0]
    inst["pair"] = wl.cz.RootPair.build(inst["f"], inst["g"])
    real_trial = wl.trial
    draws = inst["phi_rng"].getstate()

    def run_with(flip):
        inst["phi_rng"].setstate(draws)  # every call sees the phi of trial 1

        def trial(inst, phi):
            verdicts = real_trial(inst, phi)
            return {k: (not v if k in flip else v) for k, v in verdicts.items()}

        wl.trial = trial
        ops = []
        drain(wl.run_round(1, ops.append))
        return ops[0]

    assert run_with(()).ok
    assert not run_with(("matrix",)).ok
    flipped_all = run_with(("irreducible", "direct", "oracle", "coeffs", "matrix", "exhaustive"))
    assert any("reference" in p for p in flipped_all.problems)


def test_seed_changes_inputs_but_not_op_counts():
    a, b = _workload("cli-cold", REF_SEED), _workload("cli-cold", OTHER_SEED)
    qa, qb = a.queries(0), b.queries(0)
    assert [q.argv for g in qa for q in g] != [q.argv for g in qb for q in g]
    assert [len(g) for g in qa] == [len(g) for g in qb]

    for cls in (RouteSweep, NormalSuite):
        counts, inputs = [], []
        for seed in (REF_SEED, OTHER_SEED):
            wl = _workload(cls.name, seed)
            ops = []
            drain(wl.prepare(ops.append))
            drain(wl.run_round(0, ops.append))
            drain(wl.run_round(1, ops.append))
            assert all(op.ok for op in ops)
            counts.append(len(ops))
            if cls is RouteSweep:
                inputs.append([(i["f"], i["g"]) for i in wl.instances])
            else:
                inputs.append([s["pairs"][0][0].raw for s in wl.shapes.values()])
        assert counts[0] == counts[1]
        assert inputs[0] != inputs[1]


def test_traced_call_counts_repeat():
    summaries = []
    for _ in range(2):
        wl = _workload("route-sweep", OTHER_SEED)
        wl.instances = wl.instances[:3]
        tracer = tracing.Tracer()
        tracer.install()
        drain(wl.prepare(lambda op: None))
        for r in range(3):
            drain(wl.run_round(r, lambda op: None))
        summaries.append(tracer.summary())
    assert summaries[0]["calls"] == summaries[1]["calls"]
    assert summaries[0]["counters"] == summaries[1]["counters"]
    assert summaries[0]["calls"]["cancellation.cc_direct"] == 9


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [(0, 0, 100, -1), (1, 10, 30, 0), (1, 40, 90, 0)]
    summary = tracer.summary()
    assert summary["self_ns"] == {"outer": 30, "inner": 70}
    assert summary["calls"] == {"outer": 1, "inner": 2}
