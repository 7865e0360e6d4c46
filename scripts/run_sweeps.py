#!/usr/bin/env python3
"""Run the route-agreement and factor-structure sweeps and print JSON reports.

Examples:
    python3 scripts/run_sweeps.py routes --fields 2 3 --pairs 2,3 3,4 --count 200
    python3 scripts/run_sweeps.py factors --fields 2 --pairs 4,6 --count 8 --tables 8

Exit codes: 0 when every instance agrees, 1 on any disagreement or
violation, 2 on malformed input, 3 when an internal invariant breaks
(a RuntimeError: a failed certificate or reconstruction).
"""

import argparse
import json
import sys

sys.path.insert(0, "src")

import compoz as cz  # noqa: E402


def _pair(s):
    m, n = s.split(",")
    return int(m), int(n)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="which", required=True)
    for name in ("routes", "factors"):
        p = sub.add_parser(name)
        p.add_argument("--fields", nargs="+", default=["2", "3"])
        p.add_argument("--pairs", nargs="+", type=_pair, default=[(2, 3), (3, 2)])
        p.add_argument("--count", type=int, default=50)
        p.add_argument("--seed", type=int, default=cz.DEFAULT_SEED)
        if name == "factors":  # tables have no phi, so only factors takes them
            p.add_argument("--tables", type=int, default=0)
    args = parser.parse_args(argv)
    cfg = cz.SweepConfig(
        fields=tuple(args.fields),
        pairs=tuple(args.pairs),
        phi_count=args.count,
        table_count=getattr(args, "tables", 0),
        seed=args.seed,
    )
    try:
        if args.which == "routes":
            report = cz.run_route_agreement_sweep(cfg)
            bad = report["total_disagreements"]
        else:
            report = cz.run_factor_structure_sweep(cfg)
            bad = report["total_violations"]
    except ValueError as exc:  # a bad spec, pair or count, the size cap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a broken invariant, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
