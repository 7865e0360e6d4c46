"""Span tracing of compoz from outside the package.

The tracer wraps a fixed list of public compoz functions and methods and
rebinds every reference to them in every loaded compoz module, so that a
call from one layer into another is recorded wherever it happens.  A span
is (name, start, end, parent); spans stay in memory and are written out
once, at the end of a run.  A layer's self time is its span's duration
minus the time covered by its direct child spans (calls are nested and
single-threaded, so the children never overlap).

Raw field arithmetic (FieldContext._mul and friends) is never wrapped:
per-call tracing there would distort the hot path.  The field kernels are
timed separately through the public FieldElement operators instead.

compoz.orbits is not traced: none of the three workloads spends a
measurable share of its time there.
"""

from __future__ import annotations

import functools
import importlib
import random
import statistics
import sys
import time

# (module, attribute) pairs; "Class.method" names a method or classmethod.
TARGETS = (
    ("ff", "extension_field"),
    ("ff", "random_irreducible"),
    ("ff", "is_irreducible"),
    ("ff", "find_root"),
    ("ff", "minimal_polynomial"),
    ("ff", "degree_over_base"),
    ("ff", "Embedding.find"),
    ("ff", "Polynomial.pow_mod"),
    ("ff", "Polynomial.gcd"),
    ("linalg", "mat_rank"),
    ("linalg", "mat_pow"),
    ("diamond", "RootPair.build"),
    ("diamond", "RootPair.from_elements"),
    ("diamond", "DiamondSpec.bind"),
    ("diamond", "BoundDiamond.composed"),
    ("diamond", "factor_report"),
    ("cancellation", "cc_direct"),
    ("cancellation", "cc_oracle"),
    ("cancellation", "cc_by_coefficient_polys"),
    ("cancellation", "matrix_cc_test"),
    ("cancellation", "petr_berlekamp_matrix"),
    ("cancellation", "sample_cc_phi_matrices"),
    ("oracle", "exhaustive_cc"),
    ("linearized", "is_normal"),
    ("linearized", "random_normal_element"),
    ("linearized", "staircase_normal_test"),
    ("linearized", "evaluate_bilinear"),
    ("linearized", "bilinear_cc_test"),
)

# Traced only so that the draws made inside sample_cc_phi_matrices can be
# counted; it gets no metric of its own.
HELPER_TARGETS = (("diamond", "PhiPoly.random"),)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

# Fields for the kernel timings: name -> (base spec, degree).
KERNEL_FIELDS = {
    "gf2_12": ("2", 12),
    "gf2_63": ("2", 63),
    "gf3_20": ("3", 20),
    "gf4_6": ("2^2:1,1,1", 6),
}
KERNEL_OPS = ("mul", "add", "frob", "inv")

# Counters summed over processes; the ratios are formed after merging.
COUNTERS = (
    "irreducible_calls",
    "irreducible_repeats",
    "random_irreducible_draws",
    "random_irreducible_tests",
    "random_normal_draws",
    "random_normal_tests",
    "sample_phi_draws",
    "sample_phi_accepted",
)


class Tracer:
    """Records spans for the wrapped compoz callables of one process."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []
        self._seen_polys = set()
        self.irreducible_repeats = 0
        self.sample_phi_accepted = 0

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        if name == "ff.is_irreducible":
            seen = self._seen_polys

            def before(args):
                poly = args[0]
                if poly in seen:
                    self.irreducible_repeats += 1
                else:
                    seen.add(poly)
        else:
            before = None
        count_accepted = name == "cancellation.sample_cc_phi_matrices"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None and args:
                before(args)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i] = (idx, start, clock(), parent)
                stack.pop()
            if count_accepted:
                self.sample_phi_accepted += len(result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every compoz module loaded at this point."""
        modules = [m for k, m in sys.modules.items() if k == "compoz" or k.startswith("compoz.")]
        for mod_name, attr in TARGETS + HELPER_TARGETS:
            mod = importlib.import_module(f"compoz.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def summary(self):
        """Per-name calls and self time, plus the waste counters."""
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        child_ns = [0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        parent_name = {}
        for i, (idx, start, end, parent) in enumerate(self.spans):
            calls[idx] += 1
            self_ns[idx] += end - start - child_ns[i]
            if parent >= 0:
                key = (self.names[self.spans[parent][0]], self.names[idx])
                parent_name[key] = parent_name.get(key, 0) + 1
        calls = dict(zip(self.names, calls))
        return {
            "calls": calls,
            "self_ns": dict(zip(self.names, self_ns)),
            "counters": {
                "irreducible_calls": calls.get("ff.is_irreducible", 0),
                "irreducible_repeats": self.irreducible_repeats,
                "random_irreducible_draws": calls.get("ff.random_irreducible", 0),
                "random_irreducible_tests": parent_name.get(
                    ("ff.random_irreducible", "ff.is_irreducible"), 0
                ),
                "random_normal_draws": calls.get("linearized.random_normal_element", 0),
                "random_normal_tests": parent_name.get(
                    ("linearized.random_normal_element", "linearized.is_normal"), 0
                ),
                "sample_phi_draws": parent_name.get(
                    ("cancellation.sample_cc_phi_matrices", "diamond.PhiPoly.random"), 0
                ),
                "sample_phi_accepted": self.sample_phi_accepted,
            },
        }

    def dump(self):
        return {"names": self.names, "spans": self.spans}


def merge_summaries(summaries):
    """Sum the summaries of several processes (the cli-cold children)."""
    out = {"calls": {}, "self_ns": {}, "counters": dict.fromkeys(COUNTERS, 0)}
    for s in summaries:
        for key in ("calls", "self_ns"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, v in s["counters"].items():
            out["counters"][name] += v
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary):
    """The per-layer metrics named in BENCHMARK.json, from a merged summary."""
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (summary["self_ns"].get(name, 0) / 1e9, "s")
    c = summary["counters"]
    metrics["ff.is_irreducible.repeat_frac"] = (
        _ratio(c["irreducible_repeats"], c["irreducible_calls"]), "ratio")
    metrics["ff.random_irreducible.tests_per_draw"] = (
        _ratio(c["random_irreducible_tests"], c["random_irreducible_draws"]), "count")
    metrics["linearized.random_normal_element.tests_per_draw"] = (
        _ratio(c["random_normal_tests"], c["random_normal_draws"]), "count")
    metrics["cancellation.sample_cc_phi_matrices.accept_frac"] = (
        _ratio(c["sample_phi_accepted"], c["sample_phi_draws"]), "ratio")
    return metrics


def _time_per_op(fn, args_list, min_seconds=0.04, repeats=5):
    """Median over repeats of the mean time per call, in microseconds."""
    def timed(loops):
        start = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        return time.perf_counter() - start

    loops = 1
    while timed(loops) < min_seconds:
        loops *= 2
    calls = loops * len(args_list)
    return statistics.median(timed(loops) / calls for _ in range(repeats)) * 1e6


def kernel_metrics(cz, seed):
    """Time the public FieldElement operations on the kernel fields."""
    metrics = {}
    for label, (spec, degree) in KERNEL_FIELDS.items():
        ctx = cz.extension_field(cz.parse_field_spec(spec), degree, seed=0)
        rng = random.Random(f"kernel:{seed}:{label}")
        xs = []
        while len(xs) < 16:
            x = ctx.random_element(rng)
            if not x.is_zero:
                xs.append(x)
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        one = ctx.one
        ops = {
            "mul": (lambda a, b: a * b, pairs),
            "add": (lambda a, b: a + b, pairs),
            "frob": (lambda a: a.frobenius(1), [(x,) for x in xs]),
            "inv": (lambda a: one / a, [(x,) for x in xs]),
        }
        for op in KERNEL_OPS:
            fn, args_list = ops[op]
            metrics[f"ff.kernel.{label}.{op}_us"] = (_time_per_op(fn, args_list), "us")
    return metrics
