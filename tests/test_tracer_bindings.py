"""Guard for the bindings that the benchmark tracer (perfbench/tracer.py)
resolves in cqi_sim by name.

Renaming or deleting a traced function, changing what the double-region
sum returns, or dropping the cache of ``_region_sources`` breaks a
``--trace 1`` benchmark run; these tests make it fail here first.  The
tracer source is only read and executed, never changed.
"""

import importlib
import types
from pathlib import Path

from cqi_sim import postulates as ps

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """The tracer module, executed from its source (no bytecode is written)."""
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_traced_names_resolve():
    missing = [
        f"{mod}.{name}"
        for mod, name in load_tracer().TRACED
        if not callable(getattr(importlib.import_module(f"cqi_sim.{mod}"), name, None))
    ]
    assert missing == []


def test_double_region_raw_returns_float():
    # the tracer records float(out) and the density from the second argument
    assert type(ps._born_double_region_raw(ps.two_point_experiment(), 1)) is float


def test_region_sources_keeps_cache_info():
    # the tracer's summary reads a cache-hit flag for every _region_sources call
    assert hasattr(ps._region_sources, "cache_info")
