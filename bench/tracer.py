"""Spans and counters around gitfankit's layers, installed from outside.

``install()`` wraps module-level functions of the six gitfankit modules and a
few methods, and rebinds every name that refers to a wrapped object in every
module (``gitfan`` and ``semilattice`` import ``fan_from_maximal``, and
several modules import ``solve``/``rref``, with ``from ... import``).  A
spanned call records (name, start, end, parent) in memory; the hot
predicates ``Cone.contains``/``contains_cone`` and the pair check are only
counted.  ``Tracer.dump`` writes the spans as TSV and returns a summary that
``layer_metrics`` turns into the per-layer metrics.  The program's source is
not touched: cache figures are read from ``cache_info()`` and
``_PAIR_CACHE`` after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

MODULES = ("cli", "gitfan", "polyhedral", "grassmann", "semilattice", "exact_linalg")

# private functions worth a span: they hold the pipeline stages
PRIVATE_SPANS = {
    "gitfan": ("_gkz_pool", "_gkz_walls", "_delta_reduction_data", "_wall_regions",
               "_y_pool", "_y_star_pool", "_enveloping_witnesses", "_sigma_r_with_order"),
    "grassmann": ("_tree_cones", "_relint_meets_delta"),
    "semilattice": ("_fk_bridge_trial", "_sorted_families"),
    "cli": ("_emit",),
}
METHOD_SPANS = {
    "polyhedral": {"Cone": ("from_generators", "from_inequalities", "faces")},
    "semilattice": {"FiniteSemilattice": ("__init__", "hasse_edges")},
}
# called up to millions of times per invocation: counted, not spanned
COUNTED_FUNCTIONS = {"polyhedral": ("_pair_has_common_face",)}
COUNTED_METHODS = {"polyhedral": {"Cone": ("contains", "contains_cone")}}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self._active: list[int] = []
        # spans, one entry per call, kept in compact arrays until dump()
        self.start = array("d")
        self.end = array("d")
        self.name_of = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.values: dict[str, float] = {}
        self._y_sets: dict[tuple, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_time.append(0.0)
            self._active.append(0)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def spanned(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        stack, child, active = self._stack, self._child, self._active
        start, end, name_of, parent = self.start, self.end, self.name_of, self.parent
        calls, incl, self_time = self.calls, self.incl, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            calls[nid] += 1
            active[nid] += 1
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[idx] = t1
                stack.pop()
                active[nid] -= 1
                dur = t1 - t0
                self_time[nid] += dur - child.pop()
                if child:
                    child[-1] += dur
                if not active[nid]:
                    incl[nid] += dur
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        nid = self.name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks: counts that need the call's arguments or result -------------

    def hooks(self) -> dict:
        def fan_from_maximal(args, kwargs, fan):
            validate = kwargs.get("validate", args[1] if len(args) > 1 else True)
            if validate:
                k = len(fan.maximal)
                self.add("fan_pairs_checked", k * (k - 1) // 2)

        def arrangement_leaves(args, kwargs, leaves):
            self.add("arrangement_leaves", len(leaves))

        def gkz_pool(args, kwargs, pool):
            self.values["gkz_pool_cones"] = len(pool)

        def delta_data(args, kwargs, data):
            self.values["delta_trees"] = data.tree_count
            self.values["delta_reps_tried"] = data.rep_count
            self.values["delta_cones"] = len(data.fan.maximal)

        def delta_contains(args, kwargs, hit):
            self.add("delta_contains_hits", bool(hit))

        def semilattice_init(args, kwargs, _):
            size = len(args[0].labels)
            self.values["poset_elements_max"] = max(self.values.get("poset_elements_max", 0), size)

        def y_set_masks(args, kwargs, masks):
            self._y_sets[(args, tuple(sorted(kwargs.items())))] = len(masks)

        return {
            "polyhedral.fan_from_maximal": fan_from_maximal,
            "polyhedral.arrangement_leaves": arrangement_leaves,
            "gitfan._gkz_pool": gkz_pool,
            "gitfan._delta_reduction_data": delta_data,
            "grassmann.delta_contains": delta_contains,
            "semilattice.FiniteSemilattice.__init__": semilattice_init,
            "grassmann.y_set_masks": y_set_masks,
        }

    # -- output -------------------------------------------------------------

    def dump(self, spans_path: str) -> dict:
        """Write the spans as TSV and return the per-name summary."""
        names = self.names
        with open(spans_path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name_of[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n"
                )
        poly = importlib.import_module("gitfankit.polyhedral")
        gens = poly._cone_from_gens.cache_info()
        ineqs = poly._cone_from_ineqs.cache_info()
        values = dict(self.values)
        values["y_sets"] = sum(self._y_sets.values())
        values["pair_checks_computed"] = len(poly._PAIR_CACHE)
        values["cone_cache_hits"] = gens.hits + ineqs.hits
        values["dd_conversions"] = gens.misses + ineqs.misses
        values["cones_cached"] = gens.currsize + ineqs.currsize
        return {
            "spans": len(self.start),
            "calls": dict(zip(names, self.calls)),
            "incl_s": dict(zip(names, self.incl)),
            "self_s": dict(zip(names, self.self_time)),
            "values": values,
        }


def _defined_functions(mod):
    for name, obj in vars(mod).items():
        # plain functions, and lru_cache wrappers around them
        if inspect.isfunction(getattr(obj, "__wrapped__", obj)) and obj.__module__ == mod.__name__:
            yield name, obj


def install() -> Tracer:
    """Wrap the layers of the already imported gitfankit package."""
    tracer = Tracer()
    hooks = tracer.hooks()
    pkg = importlib.import_module("gitfankit")
    mods = {m: importlib.import_module(f"gitfankit.{m}") for m in MODULES}
    replaced: dict[int, tuple] = {}

    for short, mod in mods.items():
        for name, fn in list(_defined_functions(mod)):
            full = f"{short}.{name}"
            if name in COUNTED_FUNCTIONS.get(short, ()):
                replaced[id(fn)] = (fn, tracer.counted(full, fn))
            elif not name.startswith("_") or name in PRIVATE_SPANS.get(short, ()):
                replaced[id(fn)] = (fn, tracer.spanned(full, fn, hooks.get(full)))
        for cls_name, methods in METHOD_SPANS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                full = f"{short}.{cls_name}.{meth}"
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(tracer.spanned(full, raw.__func__, hooks.get(full))))
                else:
                    setattr(cls, meth, tracer.spanned(full, raw, hooks.get(full)))
        for cls_name, methods in COUNTED_METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.counted(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))

    # rebind every name bound to a wrapped function, "from ... import" included
    for mod in list(mods.values()) + [pkg]:
        for name, obj in list(vars(mod).items()):
            original, wrapper = replaced.get(id(obj), (None, None))
            if original is obj:
                setattr(mod, name, wrapper)
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics from the summaries of one round's traced invocations
# ---------------------------------------------------------------------------

# metric name -> (kind, source); kinds: "incl" inclusive seconds of a span,
# "calls" call count, "value" a hook or cache figure (summed over invocations)
_SPAN_METRICS = {
    "cli.main_s": ("incl", "cli.main"),
    "polyhedral.fan_from_maximal_calls": ("calls", "polyhedral.fan_from_maximal"),
    "polyhedral.fan_from_maximal_s": ("incl", "polyhedral.fan_from_maximal"),
    "polyhedral.fan_pairs_checked": ("value", "fan_pairs_checked"),
    "polyhedral.pair_checks_computed": ("value", "pair_checks_computed"),
    "polyhedral.stellar_subdivide_calls": ("calls", "polyhedral.stellar_subdivide"),
    "polyhedral.stellar_subdivide_s": ("incl", "polyhedral.stellar_subdivide"),
    "polyhedral.dd_conversions": ("value", "dd_conversions"),
    "polyhedral.cones_cached": ("value", "cones_cached"),
    "polyhedral.arrangement_leaves": ("value", "arrangement_leaves"),
    "polyhedral.arrangement_leaves_s": ("incl", "polyhedral.arrangement_leaves"),
    "polyhedral.faces_s": ("incl", "polyhedral.Cone.faces"),
    "polyhedral.is_subfan_s": ("incl", "polyhedral.is_subfan"),
    "polyhedral.contains_calls": ("calls", "polyhedral.Cone.contains"),
    "polyhedral.contains_cone_calls": ("calls", "polyhedral.Cone.contains_cone"),
    "exact_linalg.solve_calls": ("calls", "exact_linalg.solve"),
    "exact_linalg.solve_s": ("incl", "exact_linalg.solve"),
    "exact_linalg.rref_calls": ("calls", "exact_linalg.rref"),
    "exact_linalg.rref_s": ("incl", "exact_linalg.rref"),
    "exact_linalg.rank_calls": ("calls", "exact_linalg.rank"),
    "exact_linalg.rank_s": ("incl", "exact_linalg.rank"),
    "grassmann.delta_contains_calls": ("calls", "grassmann.delta_contains"),
    "grassmann.delta_contains_hits": ("value", "delta_contains_hits"),
    "grassmann.delta_contains_s": ("incl", "grassmann.delta_contains"),
    "grassmann.delta_meets_relint_calls": ("calls", "grassmann.delta_meets_relint"),
    "grassmann.tropical_sign_s": ("incl", "grassmann.tropical_sign"),
    "grassmann.weights_s": ("incl", "grassmann.weights"),
    "grassmann.y_set_masks_s": ("incl", "grassmann.y_set_masks"),
    "grassmann.y_sets": ("value", "y_sets"),
    "gitfan.delta_reduction_s": ("incl", "gitfan._delta_reduction_data"),
    "gitfan.gkz_pool_s": ("incl", "gitfan._gkz_pool"),
    "gitfan.gkz_pool_cones": ("value", "gkz_pool_cones"),
    "gitfan.delta_trees": ("value", "delta_trees"),
    "gitfan.delta_reps_tried": ("value", "delta_reps_tried"),
    "gitfan.delta_cones": ("value", "delta_cones"),
    "gitfan.verify_walls_s": ("incl", "gitfan.verify_walls"),
    "gitfan.verify_star_subfan_s": ("incl", "gitfan.verify_star_subfan"),
    "gitfan.verify_delta_subfan_s": ("incl", "gitfan.verify_delta_subfan"),
    "gitfan.verify_rays_s": ("incl", "gitfan.verify_ray_classification"),
    "gitfan.verify_nu_equality_s": ("incl", "gitfan.verify_nu_equality"),
    "gitfan.git_fan_s": ("incl", "gitfan.git_fan"),
    "gitfan.wall_fan_s": ("incl", "gitfan.wall_fan"),
    "gitfan.git_fan_star_s": ("incl", "gitfan.git_fan_star"),
    "gitfan.sigma_fan_s": ("incl", "gitfan.sigma_fan_cached"),
    "gitfan.sigma_r_s": ("incl", "gitfan.sigma_r"),
    "semilattice.semilattice_builds": ("calls", "semilattice.FiniteSemilattice.__init__"),
    "semilattice.semilattice_build_s": ("incl", "semilattice.FiniteSemilattice.__init__"),
    "semilattice.face_poset_calls": ("calls", "semilattice.face_poset"),
    "semilattice.face_poset_s": ("incl", "semilattice.face_poset"),
    "semilattice.hasse_edges_s": ("incl", "semilattice.FiniteSemilattice.hasse_edges"),
    "semilattice.blow_up_calls": ("calls", "semilattice.blow_up"),
    "semilattice.blow_up_s": ("incl", "semilattice.blow_up"),
    "semilattice.poset_isomorphic_calls": ("calls", "semilattice.poset_isomorphic"),
    "semilattice.poset_isomorphic_s": ("incl", "semilattice.poset_isomorphic"),
    "semilattice.is_building_set_s": ("incl", "semilattice.is_building_set"),
    "semilattice.verify_fk_bridge_s": ("incl", "semilattice.verify_fk_bridge"),
    "semilattice.verify_blowup_join_criterion_s": ("incl", "semilattice.verify_blowup_join_criterion"),
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{m}.self_s" for m in MODULES] + list(_SPAN_METRICS)
    names += [
        "polyhedral.pair_cache_hit_ratio",
        "polyhedral.cone_builds",
        "polyhedral.cone_build_s",
        "polyhedral.cone_cache_hit_ratio",
        "gitfan.delta_rep_yield",
        "gitfan.chamber_calls",
        "semilattice.poset_elements_max",
    ]
    return names


def layer_metrics(summaries: list[dict]) -> dict[str, dict]:
    """Per-layer metrics summed over one round's traced invocations."""

    def total(kind: str, key: str) -> float:
        field = {"incl": "incl_s", "calls": "calls", "value": "values"}[kind]
        return sum(s[field].get(key, 0) for s in summaries)

    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = sum(
            t for s in summaries for name, t in s["self_s"].items() if name.split(".")[0] == m
        )
    for name, (kind, key) in _SPAN_METRICS.items():
        out[name] = total(kind, key)
    pair_calls = total("calls", "polyhedral._pair_has_common_face")
    pair_misses = out["polyhedral.pair_checks_computed"]
    out["polyhedral.pair_cache_hit_ratio"] = (pair_calls - pair_misses) / pair_calls if pair_calls else 0.0
    builds = ("polyhedral.Cone.from_generators", "polyhedral.Cone.from_inequalities")
    out["polyhedral.cone_builds"] = sum(total("calls", b) for b in builds)
    out["polyhedral.cone_build_s"] = sum(total("incl", b) for b in builds)
    hits = total("value", "cone_cache_hits")
    lookups = hits + out["polyhedral.dd_conversions"]
    out["polyhedral.cone_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    reps = out["gitfan.delta_reps_tried"]
    out["gitfan.delta_rep_yield"] = out["gitfan.delta_cones"] / reps if reps else 0.0
    out["gitfan.chamber_calls"] = total("calls", "gitfan.chamber") + total("calls", "gitfan.chamber_star")
    out["semilattice.poset_elements_max"] = max(
        (s["values"].get("poset_elements_max", 0) for s in summaries), default=0
    )
    return {name: {"value": out[name], "unit": _unit(name)} for name in per_layer_names()}
