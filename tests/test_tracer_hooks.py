"""The benchmark tracer's hook names still resolve in the package.

``bench/tracer.py`` wraps functions and methods by name and reads cache
figures by attribute; a rename inside ``gitfankit`` would not fail the
benchmark, it would quietly read zero for a per-layer metric.  The tracer is
loaded from its file without being installed or changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# exact_linalg.rref was folded into the private integer RREF core; the
# benchmark still names it as a metric source (ROADMAP item 11)
STALE_SOURCES = {"exact_linalg.rref"}
# call counts that layer_metrics reads by name outside the tables
LAYER_METRIC_SOURCES = ("gitfan.chamber", "gitfan.chamber_star")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("gitfankit_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolve(dotted: str):
    """The object named "module.attr[.attr]" under gitfankit."""
    short, *path = dotted.split(".")
    obj = importlib.import_module(f"gitfankit.{short}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def named_functions(tracer):
    names = []
    for short, fns in tracer.PRIVATE_SPANS.items():
        names += [f"{short}.{fn}" for fn in fns]
    for short, fns in tracer.COUNTED_FUNCTIONS.items():
        names += [f"{short}.{fn}" for fn in fns]
    for table in (tracer.METHOD_SPANS, tracer.COUNTED_METHODS):
        for short, classes in table.items():
            names += [f"{short}.{cls}.{m}" for cls, methods in classes.items() for m in methods]
    names += list(tracer.Tracer().hooks())
    for kind, source in tracer._SPAN_METRICS.values():
        if kind in ("incl", "calls") and source not in STALE_SOURCES:
            names.append(source)
    return names + list(LAYER_METRIC_SOURCES)


def test_wrapped_names_resolve(tracer):
    missing = []
    for name in named_functions(tracer):
        try:
            obj = resolve(name)
        except AttributeError:
            missing.append(name)
            continue
        assert callable(obj), name
    assert missing == []


def test_cache_figures_resolve(tracer):
    poly = importlib.import_module("gitfankit.polyhedral")
    for fn in (poly._cone_from_gens, poly._cone_from_ineqs):
        info = fn.cache_info()
        assert {"hits", "misses", "currsize"} <= set(info._fields)
    assert isinstance(poly._PAIR_CACHE, dict)
