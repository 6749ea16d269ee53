"""Outside-in tracer: wrappers around the calls into each cqi_sim layer.

``Tracer.install`` replaces every binding of a traced function in every
``cqi_sim`` module namespace (``postulates`` imports several
``contspace`` functions by value) with a wrapper that records a span
(name, start, end, parent) and, for a few functions, facts read from the
arguments or the result.  Spans stay in memory; ``summary`` turns the
spans of one operation pass into per-layer metrics and ``dump`` writes
them all out.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs whose calls are traced.
TRACED = [
    ("cli", "run"),
    ("cli", "load_config"),
    ("_kernels", "propagate"),
    ("_kernels", "double_quad"),
    ("contspace", "project"),
    ("contspace", "spectral_evolve"),
    ("contspace", "collapse_to_slice"),
    ("contspace", "physical_inner_product"),
    ("postulates", "born_probability_detail"),
    ("postulates", "cqi_probability_detail"),
    ("postulates", "two_point_report"),
    ("postulates", "evolved_wavefunction"),
    ("postulates", "first_order_amplitude"),
    ("postulates", "_region_sources"),
    ("postulates", "_t_density_for"),
    ("postulates", "_readout_grid"),
    ("postulates", "_born_double_region"),
    ("postulates", "_born_double_region_raw"),
    ("postulates", "_branch_functions"),
    ("postulates", "covariant_partial_trace"),
    ("postulates", "rr_probability"),
    ("hilbert", "reduced_state"),
    ("hilbert", "partial_trace"),
    ("hilbert", "von_neumann_entropy"),
    ("hilbert", "preferred_basis"),
    ("hilbert", "trace_distance"),
    ("epr", "no_communication_check"),
    ("chain", "run_chain"),
    ("chain", "general_interaction_probe"),
    ("zeno", "zeno_pair"),
    ("zeno", "time_reversed_zeno"),
    ("zeno", "iterated_zeno"),
    ("zeno", "zeno_cancellation"),
]

LARGE_PAIRS = 1_000_000  # propagate calls at or above this many pairs are "large"


def _layer(module: str) -> str:
    return module.lstrip("_")  # metric names must start with a letter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.facts: dict[int, dict] = {}  # span index -> recorded facts
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("cqi_sim")]
        for mod_name, fn_name in TRACED:
            mod = importlib.import_module(f"cqi_sim.{mod_name}")
            original = getattr(mod, fn_name)
            wrapper = self._wrap(f"{_layer(mod_name)}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patched):
            setattr(m, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        cached = hasattr(fn, "cache_info")
        spans, facts, stack = self.spans, self.facts, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            before = fn.cache_info().hits if cached else 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                facts[idx] = hook(args, kwargs, out)
            if cached:
                facts.setdefault(idx, {})["hit"] = fn.cache_info().hits > before
            return out

        if cached:  # keep an lru_cache's interface reachable
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # ------------------------------------------------------------------
    # reduction

    def summary(self, lo: int, hi: int, solve_s: float) -> dict:
        """Per-layer metrics of the spans with index in [lo, hi): one pass.

        Every traced function gets ``calls``, ``total_s`` and ``self_s``;
        a few get counts read from their arguments or results.
        BENCHMARK.json lists the subset that is reported.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        child = defaultdict(float)
        for i in range(lo, hi):
            _, t0, t1, parent = self.spans[i]
            if parent >= lo:
                child[parent] += t1 - t0
        for i in range(lo, hi):
            name, t0, t1, _ = self.spans[i]
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]

        m: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{_layer(mod_name)}.{fn_name}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.total_s"] = total[name]
            m[f"{name}.self_s"] = self_s[name]

        # kernel work: pairs, computed bytes, split at LARGE_PAIRS
        kern = {k: {"calls": 0, "pairs": 0, "bytes": 0, "self_s": 0.0} for k in ("", ".large", ".small")}
        pairs_under = defaultdict(int)  # parent name -> pairs of its direct propagate calls
        for i in range(lo, hi):
            name, t0, t1, parent = self.spans[i]
            if name != "kernels.propagate":
                continue
            f = self.facts[i]
            size = ".large" if f["pairs"] >= LARGE_PAIRS else ".small"
            for k in ("", size):
                kern[k]["calls"] += 1
                kern[k]["pairs"] += f["pairs"]
                kern[k]["bytes"] += f["bytes"]
                kern[k]["self_s"] += t1 - t0
            if parent >= 0:
                pairs_under[self.spans[parent][0]] += f["pairs"]
        for k, v in kern.items():
            for q in ("calls", "pairs", "self_s", "bytes"):
                m[f"kernels.propagate{k}.{q}"] = v[q]
            m[f"kernels.propagate{k}.pairs_per_s"] = v["pairs"] / v["self_s"] if v["self_s"] else 0.0
        for name in ("postulates.evolved_wavefunction", "postulates.first_order_amplitude"):
            m[f"{name}.pairs"] = pairs_under[name]

        # heuristics and convergence, read from arguments and results
        def facts_of(name):
            return [self.facts[i] for i in range(lo, hi) if self.spans[i][0] == name]

        src = facts_of("postulates._region_sources")
        m["postulates._region_sources.cache_hit_ratio"] = (
            sum(f["hit"] for f in src) / len(src) if src else 0.0
        )
        m["postulates._region_sources.t_density"] = max((f["t_density"] for f in src), default=0)
        m["postulates._readout_grid.n"] = max(
            (f["n"] for f in facts_of("postulates._readout_grid")), default=0
        )
        m["postulates.covariant_partial_trace.schmidt_rank"] = max(
            (f["rank"] for f in facts_of("postulates.covariant_partial_trace")), default=0
        )
        rich = self.richardson(lo, hi)
        m["postulates._born_double_region.densities_tried"] = (
            statistics.mean(len(r["densities"]) for r in rich) if rich else 0.0
        )
        m["postulates._born_double_region.converged_ratio"] = (
            sum(r["converged"] for r in rich) / len(rich) if rich else 0.0
        )
        m["postulates._born_double_region.slice_pairs"] = sum(r["slice_pairs"] for r in rich)

        # share of the pass covered by self time of the layers below cli.run
        below = sum(v for k, v in self_s.items() if k != "cli.run")
        m["trace.self_share"] = below / solve_s if solve_s else 0.0
        return m

    def richardson(self, lo: int, hi: int) -> list[dict]:
        """Densities tried per _born_double_region call, and whether its
        step test (change <= 0.3 * xcheck_tol) was met, recomputed from
        the values the raw double-region sums returned.  Each region
        slice costs one evolved_wavefunction call inside a raw sum, whose
        double loop then visits n (n + 1) / 2 slice pairs."""
        kids = defaultdict(list)
        for j in range(lo, hi):
            kids[self.spans[j][3]].append(j)

        def named(i, name):
            return [j for j in kids[i] if self.spans[j][0] == name]

        out = []
        for i in range(lo, hi):
            if self.spans[i][0] != "postulates._born_double_region":
                continue
            tol = self.facts[i]["xcheck_tol"]
            raws = named(i, "postulates._born_double_region_raw")
            vals = [self.facts[j]["value"] for j in raws]
            slices = [len(named(j, "postulates.evolved_wavefunction")) for j in raws]
            out.append({
                "densities": [self.facts[j]["t_density"] for j in raws],
                "values": vals,
                "converged": any(abs(b - a) <= 0.3 * tol * abs(b) for a, b in zip(vals, vals[1:])),
                "slice_pairs": sum(n * (n + 1) // 2 for n in slices),
            })
        return out

    def dump(self, path, passes: list[tuple[int, int]], extra: dict) -> None:
        """Write every span plus the recorded facts and pass boundaries."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        doc = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "passes": passes,
            "spans": [[index[n], round(t0 - base, 9), round(t1 - base, 9), p]
                      for n, t0, t1, p in self.spans],
            "facts": {str(i): f for i, f in self.facts.items()},
            "richardson": [self.richardson(lo, hi) for lo, hi in passes],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _propagate_facts(args, kwargs, out):
    arrays = [a for a in args[:5] if isinstance(a, np.ndarray)]
    return {
        "pairs": int(np.size(args[0]) * np.size(args[2])),
        "bytes": int(sum(a.nbytes for a in arrays) + out.nbytes),  # computed, not measured
    }


_HOOKS = {
    "kernels.propagate": _propagate_facts,
    "postulates._region_sources": lambda a, k, out: {"t_density": int(_arg(a, k, 1, "t_density", 1))},
    "postulates._readout_grid": lambda a, k, out: {"n": int(len(out))},
    "postulates.covariant_partial_trace": lambda a, k, out: {"rank": int(out.schmidt_rank)},
    "postulates._born_double_region": lambda a, k, out: {"xcheck_tol": float(a[0].xcheck_tol)},
    "postulates._born_double_region_raw": lambda a, k, out: {
        "t_density": int(_arg(a, k, 1, "t_density")),
        "value": float(out),
    },
}
