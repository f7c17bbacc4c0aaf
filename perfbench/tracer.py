"""Passive span tracer for the traced perfbench run.

The tracer wraps public entry points of ``actrep`` from outside the package:
nothing under ``src/`` changes, and every wrapper calls the original with the
same arguments and returns its result untouched.  Each wrapper records a
span (name, start, end, parent) in memory; the spans are written out only
when the run ends.

Two kinds of wrapper keep the memory bounded:

* coarse spans (estimator calls, engines, CLI helpers) are stored one by one;
* hot leaf calls (``GroupElement.__mul__``, ``CayleySpace.apply``), which run
  millions of times per pass, are folded as they close into one aggregate per
  (enclosing coarse span, name): call count, total time and child time.

A span's self time is its duration minus the time covered by its direct
child spans, coarse or leaf.  Calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import time
from contextlib import contextmanager

_clock = time.perf_counter

#: Modules whose globals may hold a patched function (``from x import f``).
_MODULES = (
    "actrep",
    "actrep.groups",
    "actrep.spaces",
    "actrep.operators",
    "actrep.dynamics",
    "actrep.cli",
)

#: Dynamics engines: their self time is ``dynamics.engine.self_s``.
ENGINES = (
    "verify_panalytic",
    "averaging_decay_report",
    "ideal_experiment",
    "pingpong_certificate",
    "finite_order_blowup",
    "tracial_property_check",
    "canonical_trace",
)

_CONFIG = ("load_config_lines", "build_config", "param_hash")
_WRITE = ("write_csv", "write_svg", "_witness_payload")


def _nlb_attrs(args, kwargs, est):
    T = args[0]
    union = set(T.coefficients)
    union.update(g.inverse() for g in T.coefficients)
    return {
        "terms": len(T.coefficients),
        "union": len(union),
        "witness_support": est.support_size,
        "iterations": est.iterations,
        "estimate": est.lower_bound,
    }


def _product_attrs(args, kwargs, result):
    return {"terms": len(args[0].coefficients) * len(args[1].coefficients)}


def _ball_attrs(args, kwargs, result):
    return {"points": len(result)}


def _wj_attrs(args, kwargs, result):
    return {"words": result.words_tested}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        # coarse spans: [id, name, start, end, parent id, child seconds, attrs]
        self.spans: list[list] = []
        # leaf aggregates: (owner span id, name) -> [calls, total s, child s]
        self.leaf: dict[tuple[int, str], list] = {}
        # frames: [child seconds, id of the nearest coarse span]; -1 is the root
        self._stack: list[list] = [[0.0, -1]]

    def span(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = [len(spans), name, 0.0, 0.0, parent[1], 0.0, None]
            spans.append(rec)
            frame = [0.0, rec[0]]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                parent[0] += t1 - t0
                rec[2], rec[3], rec[5] = t0, t1, frame[0]
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result

        return wrapper

    def leaf_span(self, name, fn):
        leaf, stack = self.leaf, self._stack

        def wrapper(*args):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args)
            finally:
                d = _clock() - t0
                stack.pop()
                parent[0] += d
                agg = leaf.get((parent[1], name))
                if agg is None:
                    leaf[(parent[1], name)] = [1, d, frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += d
                    agg[2] += frame[0]

        return wrapper

    def dump(self, path: pathlib.Path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
             "child_s": s[5], "attrs": s[6]}
            for s in self.spans
        ]
        payload["leaf"] = [
            {"owner": owner, "name": name, "calls": a[0], "total_s": a[1], "child_s": a[2]}
            for (owner, name), a in sorted(self.leaf.items())
        ]
        path.write_text(json.dumps(payload) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap the traced entry points for the duration of the block."""
    mods = [importlib.import_module(m) for m in _MODULES]
    groups, spaces, operators, dynamics, cli = mods[1:]
    undo: list[tuple[object, str, object]] = []

    def patch_attr(owner, attr, wrapper):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(home, attr, name, attrs=None):
        orig = getattr(home, attr)
        wrapper = tracer.span(name, orig, attrs)
        for mod in mods:
            if mod.__dict__.get(attr) is orig:
                patch_attr(mod, attr, wrapper)

    patch_attr(groups.GroupElement, "__mul__",
               tracer.leaf_span("groups.mul", groups.GroupElement.__mul__))
    patch_attr(spaces.CayleySpace, "apply",
               tracer.leaf_span("spaces.apply", spaces.CayleySpace.apply))
    patch_attr(spaces.CayleySpace, "enumerate_ball",
               tracer.span("spaces.enumerate_ball", spaces.CayleySpace.enumerate_ball, _ball_attrs))
    patch_function(spaces, "orbit_decompose", "spaces.orbit_decompose")
    patch_function(operators, "norm_lower_bound", "operators.norm_lower_bound", _nlb_attrs)
    patch_function(operators, "op_apply", "operators.op_apply", _product_attrs)
    patch_attr(operators.FormalOperator, "__mul__",
               tracer.span("operators.formal_mul", operators.FormalOperator.__mul__, _product_attrs))
    patch_function(dynamics, "build_Ta", "dynamics.build_Ta")
    patch_function(dynamics, "average_MJ", "dynamics.average_MJ")
    patch_function(dynamics, "check_Wj_disjoint", "dynamics.check_Wj_disjoint", _wj_attrs)
    for name in ENGINES:
        patch_function(dynamics, name, f"dynamics.{name}")
    patch_function(cli, "main", "cli.run")
    for name in _CONFIG:
        patch_function(cli, name, "cli.config")
    for name in ("element", "operator"):
        patch_attr(cli.ExperimentConfig, name,
                   tracer.span("cli.config", getattr(cli.ExperimentConfig, name)))
    for name in _WRITE:
        patch_function(cli, name, "cli.write")
    # the witness JSON is serialized, and every output file written, through these
    patch_attr(json, "dumps", tracer.span("cli.write", json.dumps))
    patch_attr(pathlib.Path, "write_text", tracer.span("cli.write", pathlib.Path.write_text))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    spans = tracer.spans
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def total(name, outermost=False):
        return sum(
            s[3] - s[2] for s in by_name.get(name, ())
            if not (outermost and s[4] >= 0 and spans[s[4]][1] == name)
        )

    def self_time(names):
        return sum(s[3] - s[2] - s[5] for n in names for s in by_name.get(n, ()))

    def attr_sum(name, key):
        return sum(s[6][key] for s in by_name.get(name, ()))

    def leaf_sum(name, owner_name=None, field=0):
        return sum(
            a[field] for (owner, n), a in tracer.leaf.items()
            if n == name and (owner_name is None or (owner >= 0 and spans[owner][1] == owner_name))
        )

    nlb = "operators.norm_lower_bound"
    mul_calls, mul_s = leaf_sum("groups.mul"), leaf_sum("groups.mul", field=1)
    closure_applies = leaf_sum("spaces.apply", nlb)
    useful = sum(s[6]["witness_support"] * s[6]["union"] for s in by_name.get(nlb, ()))
    m = {
        "groups.mul.calls": (mul_calls, "count"),
        "groups.mul.s": (mul_s, "s"),
        "groups.mul.us_per_call": (1e6 * mul_s / mul_calls if mul_calls else 0.0, "us"),
        "spaces.apply.calls": (leaf_sum("spaces.apply"), "count"),
        "spaces.apply.s": (leaf_sum("spaces.apply", field=1), "s"),
        "spaces.enumerate_ball.s": (total("spaces.enumerate_ball"), "s"),
        "spaces.enumerate_ball.points": (attr_sum("spaces.enumerate_ball", "points"), "count"),
        "spaces.orbit_decompose.s": (total("spaces.orbit_decompose"), "s"),
        "operators.norm_lower_bound.calls": (len(by_name.get(nlb, ())), "count"),
        "operators.norm_lower_bound.s": (total(nlb), "s"),
        "operators.norm_lower_bound.self_s": (self_time([nlb]), "s"),
        "operators.closure.applies": (closure_applies, "count"),
        "operators.closure.s": (leaf_sum("spaces.apply", nlb, field=1), "s"),
        "operators.witness_support": (attr_sum(nlb, "witness_support"), "count"),
        "operators.iterations": (attr_sum(nlb, "iterations"), "count"),
        "operators.window_useful_ratio": (useful / closure_applies if closure_applies else 0.0, "ratio"),
        "operators.op_apply.calls": (len(by_name.get("operators.op_apply", ())), "count"),
        "operators.op_apply.s": (total("operators.op_apply"), "s"),
        "operators.op_apply.terms": (attr_sum("operators.op_apply", "terms"), "count"),
        "operators.formal_mul.calls": (len(by_name.get("operators.formal_mul", ())), "count"),
        "operators.formal_mul.s": (total("operators.formal_mul"), "s"),
        "operators.formal_mul.terms": (attr_sum("operators.formal_mul", "terms"), "count"),
        "dynamics.average_MJ.s": (total("dynamics.average_MJ"), "s"),
        "dynamics.build_Ta.s": (total("dynamics.build_Ta"), "s"),
        "dynamics.check_Wj_disjoint.s": (total("dynamics.check_Wj_disjoint"), "s"),
        "dynamics.check_Wj_disjoint.words": (attr_sum("dynamics.check_Wj_disjoint", "words"), "count"),
        "dynamics.engine.self_s": (self_time([f"dynamics.{n}" for n in ENGINES]), "s"),
        "cli.config.s": (total("cli.config", outermost=True), "s"),
        "cli.write.s": (total("cli.write", outermost=True), "s"),
        "cli.run.self_s": (self_time(["cli.run"]), "s"),
    }
    return m


def estimator_calls(tracer: Tracer) -> list[dict]:
    """One record per ``norm_lower_bound`` call, with its own closure applies."""
    out = []
    for s in tracer.spans:
        if s[1] == "operators.norm_lower_bound":
            rec = dict(s[6])
            agg = tracer.leaf.get((s[0], "spaces.apply"))
            rec["closure_applies"] = agg[0] if agg else 0
            out.append(rec)
    return out
