"""Guard for the bindings that the benchmark tracer (perfbench/tracer.py)
resolves in cqi_sim by name.

Renaming or deleting a traced function, changing what the double-region
sum returns, dropping the cache of ``_region_sources``, or taking
``_region_sources``, ``_readout_grid`` or ``_t_density_for`` off a
detector run's path breaks a ``--trace 1`` benchmark run; these tests
make it fail here first.  The tracer source is only read and executed,
never changed.
"""

import importlib
import json
import types
from pathlib import Path

from cqi_sim import cli, postulates as ps

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_traced_detector_runs_report_the_recorded_resolution(tmp_path):
    tracer = load_tracer().Tracer()
    passes = {}
    tracer.install()
    try:
        for name, refine in (("detector-compare", 1), ("two-point", 0)):
            lo = len(tracer.spans)
            cli.run(ROOT / "configs" / f"{name}.json", refine=refine, out_dir=tmp_path)
            passes[name] = (lo, len(tracer.spans))
    finally:
        tracer.uninstall()
    for name, (lo, hi) in passes.items():
        m = tracer.summary(lo, hi, 1.0)
        levels = json.loads((tmp_path / f"{name}.json").read_text())["diagnostics"]["levels"]
        records = [lv["resolution"] for lv in levels]
        assert m["postulates._t_density_for.calls"] >= len(records)
        assert m["postulates._readout_grid.n"] == max(r["readout"][2] for r in records)
        assert m["postulates._region_sources.t_density"] == max(r["t_density"] for r in records)
