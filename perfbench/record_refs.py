#!/usr/bin/env python3
"""Record the reference answers in refs.json from the current sources.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Runs each workload on the reference seed for a fixed number of rounds,
untimed, and stores every operation's answer: exit code and stdout digest
for cli-cold, the agreed verdict for route-sweep, the staircase, bilinear
and twisted predictions for normal-suite.  Run it only on a commit whose
outputs are known to be right; runs check later commits against it.
"""

import json
import sys

import run
from workloads import REF_SEED, WORKLOADS, drain

ROUNDS = {"cli-cold": 4, "route-sweep": 1500, "normal-suite": 500}


def record(name):
    wl = run.make_workload(name, run.fresh_import(), REF_SEED, None)
    wl.observed = {}
    failed = []

    def keep(op):
        if not op.ok:
            failed.append(op)

    drain(wl.prepare(keep))
    for r in range(ROUNDS[name]):
        drain(wl.run_round(r, keep))
    if failed:
        raise SystemExit(f"{name}: {len(failed)} operations failed their cross-checks")
    return wl.observed


def main(names):
    sys.path.insert(0, str(run.SRC))
    try:
        with open(run.REFS, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in names or sorted(WORKLOADS):
        observed = record(name)
        refs[name] = {
            label: "".join(seq) if all(len(v) == 1 for v in seq) else seq
            for label, seq in sorted(observed.items())
        }
        print(f"{name}: {sum(len(s) for s in observed.values())} answers recorded")
    with open(run.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
