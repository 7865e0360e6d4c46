"""The three benchmark workloads: inputs, operations and output checks.

Each workload is a closed loop with a single client: one operation runs at
a time and the next starts when it has finished.  Work is grouped in
rounds, each round holding the same mix of operations, so a run of any
length measures the same mix.  prepare() and run_round() are generators
that yield after each group of operations (one instance, shape or rung),
so that two runs of the same plan can be interleaved step by step.  Inputs are drawn by the benchmark from the
workload seed; the program only receives the drawn values.

Every operation is checked.  On any seed the independent answers of the
program must agree with each other (cross-checks); on the reference seed
they must also equal the answers recorded from the seed commit in
refs.json.  A mismatch, an exception or an unexpected exit code marks the
operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

REF_SEED = 0
MIN_ROUNDS = 3  # every run makes at least this many rounds


@dataclass
class Op:
    """One timed operation and what its checks found."""

    label: str
    seconds: float
    problems: list = field(default_factory=list)
    top: bool = False

    @property
    def ok(self):
        return not self.problems


class Workload:
    """A workload: rounds of operations after a one-off preparation."""

    name = ""
    trace_rounds = 1

    def __init__(self, cz, seed, refs=None):
        self.cz = cz
        self.seed = seed
        # references apply on the reference seed only
        self.refs = refs if seed == REF_SEED else None
        self.observed = None  # record_refs.py sets a dict here to keep the answers

    def answer(self, label, index, value):
        """Check answer `index` of `label`; return the reference mismatch, if any.

        A label has no reference beyond the answers recorded for it.
        """
        if self.observed is not None:
            seq = self.observed.setdefault(label, [])
            if index == len(seq):
                seq.append(value)
        expected = (self.refs or {}).get(label, "")
        if index < len(expected) and expected[index] != value:
            return [f"reference mismatch: expected {expected[index]!r}, got {value!r}"]
        return []

    def prepare(self, record):
        """Program work done once per run before the rounds."""
        yield from ()

    def run_round(self, r, record):
        raise NotImplementedError


def drain(steps):
    """Run a prepare() or run_round() generator to the end."""
    for _ in steps:
        pass


def random_phi(cz, base, m, n, rng, basis=None):
    """An m x n phi with coefficients drawn by the benchmark's own rng."""
    rows = [[base.random_element(rng) for _ in range(n)] for _ in range(m)]
    return cz.PhiPoly.build(base, rows, basis or cz.MONOMIAL)


def _timed(fn):
    # a raised exception is a failed operation, reported with its type
    start = time.perf_counter()
    try:
        result, problem = fn(), None
    except Exception as exc:  # noqa: BLE001 - any failure of the program is a failed op
        result, problem = None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, problem


# -- cli-cold ------------------------------------------------------------------

CLI_RUNGS = (
    ("3", 4, 3),
    ("3", 3, 4),
    ("3", 2, 5),
    ("2", 4, 6),
    ("2^2:1,1,1", 2, 3),
    ("2", 5, 7),
    ("3", 4, 5),
)
CLI_TOP = ("2", 7, 9)
TOP_PASSES = 2  # passes that include the top rung
CLI_COMMANDS = ("compose", "check-cc", "factor")


@dataclass
class Query:
    command: str
    rung: tuple
    argv: list


class CliCold(Workload):
    """One-shot CLI queries, each in a fresh interpreter.

    A round is one pass over the ladder: compose, check-cc --route all and
    factor on one draw per rung.  Rounds 0 and 1 also run check-cc --route
    all alone on the top rung.  One such query takes more than half a pass,
    so running it every pass would leave too few ladder queries per run for
    steady percentiles.

    f and g of each (pass, rung) come from a fixed stream, and phi from the
    workload seed.  The root scan in find_root costs anything from a few to
    a few hundred thousand evaluations depending on where the roots of f
    and g fall, so drawing f and g from the seed made the pass time swing
    by a third between seeds; with f and g fixed per pass, runs on
    different seeds measure the same ladder.
    """

    name = "cli-cold"
    trace_rounds = 1

    def __init__(self, cz, seed, refs=None, *, src=None, cwd=None, boot=None):
        super().__init__(cz, seed, refs)
        self.src = src
        self.cwd = cwd
        self.boot = boot  # argv prefix that starts a traced child, or None
        self._passes = {}
        for p in range(MIN_ROUNDS):
            self.queries(p)

    def draw(self, p, rung):
        cz = self.cz
        spec, m, n = rung
        base = cz.parse_field_spec(spec)
        label = f"{spec}:{m}:{n}"
        fg_rng = random.Random(f"cli-cold:fg:{p}:{label}")
        f = cz.random_irreducible(base, m, rng=fg_rng)
        g = cz.random_irreducible(base, n, rng=fg_rng)
        phi = random_phi(cz, base, m, n, random.Random(f"cli-cold:{self.seed}:{p}:{label}"))
        return [spec, cz.poly_to_text(f), cz.poly_to_text(g), phi.to_text().replace("\n", ";")]

    def queries(self, p):
        """The queries of pass p, grouped by rung; the top rung comes last."""
        if p not in self._passes:
            groups = []
            for rung in CLI_RUNGS + ((CLI_TOP,) if p < TOP_PASSES else ()):
                spec, f, g, phi = self.draw(p, rung)
                commands = ("check-cc",) if rung == CLI_TOP else CLI_COMMANDS
                group = []
                for command in commands:
                    argv = [command, "--q", spec, "--f", f, "--g", g, "--phi", phi,
                            "--format", "structured"]
                    if command == "check-cc":
                        argv += ["--route", "all"]
                    group.append(Query(command, rung, argv))
                groups.append(group)
            self._passes[p] = groups
        return self._passes[p]

    def run_query(self, query):
        """Run one query in a fresh process: (exit code, stdout bytes, seconds)."""
        prefix = self.boot or [sys.executable, "-m", "compoz.cli"]
        env = dict(os.environ, PYTHONPATH=str(self.src))
        start = time.perf_counter()
        proc = subprocess.run(prefix + query.argv, capture_output=True, env=env,
                              cwd=self.cwd, timeout=170)
        return proc.returncode, proc.stdout, time.perf_counter() - start

    def check_group(self, p, group, results):
        """Turn the results of one rung group into checked Ops."""
        ops, docs = [], {}
        for query, (code, stdout, seconds) in zip(group, results):
            spec, m, n = query.rung
            label = f"{query.command}:{spec}:{m}:{n}"
            op = Op(label, seconds, top=query.rung == CLI_TOP)
            digest = hashlib.sha256(stdout).hexdigest()[:16]
            op.problems += self.answer(label, p, f"{code}:{digest}")
            allowed = (0, 1) if query.command == "check-cc" else (0,)
            if code not in allowed:
                op.problems.append(f"exit code {code}")
            try:
                doc = json.loads(stdout)
            except ValueError:
                doc = None
            if not isinstance(doc, dict):
                op.problems.append("stdout is not one JSON document")
                doc = None
            if doc is not None and query.command == "check-cc":
                if code != (0 if doc.get("holds") else 1):
                    op.problems.append("exit code disagrees with the verdict")
                if math.gcd(m, n) == 1 and \
                        doc.get("cross_checks", {}).get("irreducible-product") != doc.get("holds"):
                    op.problems.append("irreducibility cross-check disagrees")
            ops.append(op)
            docs[query.command] = (op, doc)
        self._cross_check(group[0].rung, docs)
        return ops

    @staticmethod
    def _cross_check(rung, docs):
        def pair(a, b, what, holds):
            if a in docs and b in docs and docs[a][1] is not None and docs[b][1] is not None:
                if not holds(docs[a][1], docs[b][1]):
                    for key in (a, b):
                        docs[key][0].problems.append(what)

        _, m, n = rung
        pair("compose", "factor", "compose and factor products differ",
             lambda c, f: c.get("product") == f.get("product"))
        pair("factor", "check-cc", "factor cc_holds differs from check-cc",
             lambda f, k: f.get("cc_holds") == k.get("holds"))
        if math.gcd(m, n) == 1:
            pair("compose", "check-cc", "compose irreducibility differs from check-cc",
                 lambda c, k: c.get("irreducible") == k.get("holds"))

    def run_round(self, r, record):
        # Command-major order spreads the three queries of a rung over the
        # pass, so that one slow stretch of the machine does not hit them all.
        groups = self.queries(r)
        order = sorted((j, i) for i, group in enumerate(groups) for j in range(len(group)))
        results = {}
        for j, i in order:
            results[i, j] = self.run_query(groups[i][j])
            yield
        for i, group in enumerate(groups):
            for op in self.check_group(r, group, [results[i, j] for j in range(len(group))]):
                record(op)


# -- route-sweep ---------------------------------------------------------------

ROUTE_INSTANCES = tuple(
    (q, m, n) for q in (2, 3) for m, n in ((2, 3), (3, 2), (3, 4), (2, 5), (3, 5))
) + ((2, 4, 5),)
ROUTE_TOP = (2, 4, 5)


def verdict_code(verdicts):
    """'1' when every voter says cancellation holds, '0' when none does, else 'x'."""
    values = set(verdicts.values())
    if len(values) != 1:
        return "x"
    return "1" if values.pop() else "0"


class RouteSweep(Workload):
    """Many random phi per fixed (f, g): every cancellation route votes.

    A round is one trial per instance.  Trial 0 of each instance is the
    phi drawn by sample_cc_phi_matrices, which must cancel conjugates.
    """

    name = "route-sweep"
    trace_rounds = 40

    def __init__(self, cz, seed, refs=None):
        super().__init__(cz, seed, refs)
        self.instances = []
        for q, m, n in ROUTE_INSTANCES:
            base = cz.prime_field(q)
            key = f"route-sweep:{seed}:{q}:{m}:{n}"
            rng = random.Random(key)
            f = cz.random_irreducible(base, m, rng=rng)
            g = cz.random_irreducible(base, n, rng=rng)
            self.instances.append({
                "label": f"{q}:{m}:{n}", "base": base, "m": m, "n": n, "f": f, "g": g,
                "phi_rng": random.Random(key + ":phi"), "sample_seed": key + ":sample",
                "top": (q, m, n) == ROUTE_TOP, "pair": None, "sampled": None,
            })

    def prepare(self, record):
        cz = self.cz
        for inst in self.instances:
            def build(inst=inst):
                pair = cz.RootPair.build(inst["f"], inst["g"])
                sampled = cz.sample_cc_phi_matrices(
                    inst["f"], inst["g"], 1, rng=random.Random(inst["sample_seed"]))
                return pair, sampled[0]

            result, seconds, problem = _timed(build)
            if problem:
                record(Op(f"prepare:{inst['label']}", seconds, [problem]))
            else:
                inst["pair"], inst["sampled"] = result
            yield

    def trial(self, inst, phi):
        """All voters on one phi: a dict voter -> verdict."""
        cz = self.cz
        f, g, pair = inst["f"], inst["g"], inst["pair"]
        spec = cz.DiamondSpec.from_phi(phi)
        bd = spec.bind(pair)
        return {
            "irreducible": cz.is_irreducible(bd.composed()),
            "direct": cz.cc_direct(bd).holds,
            "oracle": cz.cc_oracle(bd).holds,
            "coeffs": cz.cc_by_coefficient_polys(f, g, phi).holds,
            "matrix": cz.matrix_cc_test(f, g, phi).holds,
            "exhaustive": cz.exhaustive_cc(f, g, spec, pair=pair),
        }

    def check_trial(self, label, t, verdicts, *, sampled=False):
        """Problems with one trial's verdict vector."""
        problems = []
        code = verdict_code(verdicts)
        if code == "x":
            problems.append(f"voters disagree: {verdicts}")
        if sampled and code != "1":
            problems.append("sampled phi does not cancel conjugates")
        return problems + self.answer(label, t, code)

    def run_round(self, r, record):
        for inst in self.instances:
            if inst["pair"] is None:
                continue
            sampled = r == 0
            phi = inst["sampled"] if sampled else random_phi(
                self.cz, inst["base"], inst["m"], inst["n"], inst["phi_rng"])
            verdicts, seconds, problem = _timed(lambda: self.trial(inst, phi))
            if problem:
                problems = [problem]
            else:
                problems = self.check_trial(inst["label"], r, verdicts, sampled=sampled)
            record(Op(inst["label"], seconds, problems, top=inst["top"]))
            yield


# -- normal-suite --------------------------------------------------------------

STAIRCASE_SHAPES = tuple(
    (q, m, n)
    for q in (2, 3)
    for m, n in ((2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5))
)
TWISTED_SHAPES = tuple(
    (q, m, n) for q in (2, 3, 5) for m, n in ((2, 3), (3, 2))
) + ((2, 3, 4), (3, 3, 4))
NORMAL_TOP = (3, 3, 5)
PAIRS_PER_SHAPE = 2


def twisted_grid(m, n):
    return [(k, l, sign) for k in range(m) for l in range(n) for sign in "+-"]


class NormalSuite(Workload):
    """Normality of bilinear values on normal pairs.

    Per shape, two pairs of normal elements are built once (the fields
    come from fixed seeds, the elements from the workload seed).  A round
    draws one linearized phi per staircase shape and takes the next grid
    point per twisted shape; one operation is one (phi, pair) check.
    """

    name = "normal-suite"
    trace_rounds = 30

    def __init__(self, cz, seed, refs=None):
        super().__init__(cz, seed, refs)
        self.shapes = {}
        for q, m, n in sorted(set(STAIRCASE_SHAPES) | set(TWISTED_SHAPES)):
            key = f"normal-suite:{seed}:{q}:{m}:{n}"
            self.shapes[(q, m, n)] = {
                "base": cz.prime_field(q), "m": m, "n": n,
                "phi_rng": random.Random(key + ":phi"),
                "pair_rng": random.Random(key + ":pairs"),
                "pairs": None,
            }

    def prepare(self, record):
        cz = self.cz
        for (q, m, n), shape in self.shapes.items():
            def build(shape=shape):
                base = shape["base"]
                cm = cz.extension_field(base, m, seed=0)
                cn = cz.extension_field(base, n, seed=1)
                common = cz.extension_field(base, math.lcm(m, n), seed=2)
                ea = cz.Embedding.find(cm, common, seed=0)
                eb = cz.Embedding.find(cn, common, seed=0)
                rng = shape["pair_rng"]
                return [
                    (ea(cz.random_normal_element(cm, rng=rng)),
                     eb(cz.random_normal_element(cn, rng=rng)))
                    for _ in range(PAIRS_PER_SHAPE)
                ]

            pairs, seconds, problem = _timed(build)
            if problem:
                record(Op(f"prepare:{q}:{m}:{n}", seconds, [problem]))
            else:
                shape["pairs"] = pairs
            yield

    def staircase_check(self, phi, a, b):
        """(staircase prediction, bilinear prediction, is_normal, cc_direct)."""
        cz = self.cz
        predicted_normal = cz.staircase_normal_test(phi, a, b)
        predicted_cc = cz.bilinear_cc_test(phi)
        normal = cz.is_normal(cz.evaluate_bilinear(phi, a, b))
        cc = cz.cc_direct(cz.DiamondSpec.from_phi(phi).bind(cz.RootPair.from_elements(a, b))).holds
        return predicted_normal, predicted_cc, normal, cc

    def check_staircase(self, label, r, answers):
        predicted_normal, predicted_cc, normal, cc = answers
        problems = []
        if normal != predicted_normal:
            problems.append("is_normal disagrees with the staircase prediction")
        if cc != predicted_cc:
            problems.append("cc_direct disagrees with bilinear_cc_test")
        code = str(2 * int(predicted_normal) + int(predicted_cc))
        return problems + self.answer(label, r, code)

    def run_round(self, r, record):
        cz = self.cz
        for key in STAIRCASE_SHAPES:
            shape = self.shapes[key]
            if shape["pairs"] is None:
                continue
            label = "stair:{}:{}:{}".format(*key)
            phi = random_phi(cz, shape["base"], shape["m"], shape["n"], shape["phi_rng"],
                             cz.LINEARIZED)
            for a, b in shape["pairs"]:
                answers, seconds, problem = _timed(lambda: self.staircase_check(phi, a, b))
                problems = [problem] if problem else self.check_staircase(label, r, answers)
                record(Op(label, seconds, problems, top=key == NORMAL_TOP))
            yield
        for key in TWISTED_SHAPES:
            shape = self.shapes[key]
            if shape["pairs"] is None:
                continue
            q, m, n = key
            label = f"twist:{q}:{m}:{n}"
            grid = twisted_grid(m, n)
            index = r % len(grid)
            k, l, sign = grid[index]
            params = cz.TwistedParams(q=q, m=m, n=n, k=k, l=l, sign=sign)
            phi = cz.twisted_product_phi(shape["base"], params)
            for a, b in shape["pairs"]:
                def check():
                    return (cz.twisted_normal_predicate(params),
                            cz.is_normal(cz.evaluate_bilinear(phi, a, b)))

                answers, seconds, problem = _timed(check)
                if problem:
                    problems = [problem]
                else:
                    predicted, normal = answers
                    problems = [] if predicted == normal else [
                        "is_normal disagrees with the twisted predicate"]
                    problems += self.answer(label, index, str(int(predicted)))
                record(Op(label, seconds, problems))
            yield


WORKLOADS = {w.name: w for w in (CliCold, RouteSweep, NormalSuite)}
