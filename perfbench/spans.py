"""Outside-in tracing of the `lscat` package.

`Tracer.install` wraps every public function of every public `lscat`
module, plus the public methods of a few classes, in a span.  Each
wrapper is bound at every place the original was bound: module
attributes (including names brought in with ``from ... import``), the
package namespace, and module-level dicts and tuples that hold the
function (such as the rule table in ``report``).  Generator functions are
left alone, since a span around one would time only its creation, and
so are the few per-monomial helpers in `UNTRACED`.
``cli``'s ``json.dumps`` is wrapped too, as the report renderer.

A span records its call count, its inclusive time (outermost calls of
that name only, so recursion is not counted twice) and its self time
(inclusive time minus its direct child spans).  Nothing in the program is
changed; the wrappers live only in the benchmark's process.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from collections import Counter

# One layer per module of src/lscat, in call order.
LAYERS = ("cli", "report", "weights", "steenrod", "algebra", "specseq",
          "gf2", "spaces", "bounds", "cells")
CLASSES = {
    "weights": ("LoopSpaceModel",),
    "steenrod": ("SteenrodAction",),
    "algebra": ("Algebra", "Element"),
    "specseq": ("BigradedPage",),
    "spaces": ("SpacePresentation",),
    "bounds": ("BoundsLedger",),
}
DUNDERS = ("__mul__", "__add__")
# Per-monomial helpers called ~10^5 times per report, where a span would
# cost more than the work it times; their time is their caller's self time.
UNTRACED = ("algebra.Algebra.monomial_degree",)
RENDER_SPANS = ("report.format_text", "specseq.BigradedPage.to_json",
                "cli.json.dumps")
# LoopSpaceModel members every op needs to build a page; all other
# weights spans belong to the weight / witness search.
MODEL_SETUP_SPANS = ("weights.LoopSpaceModel.e2",
                     "weights.LoopSpaceModel.differentials")


class Stat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span statistics and layer counters for the ops of one pass."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._layer_depth: Counter = Counter()
        self.stats: dict[str, Stat] = {}
        self.op = 0
        self.reset()

    def reset(self):
        for stat in self.stats.values():
            stat.calls, stat.incl_s, stat.self_s = 0, 0.0, 0.0
        self.layer_incl: Counter = Counter()
        self.e2_classes = 0
        self.infer_candidates = 0
        self.infer_matched = 0
        self.stages: set = set()
        self.stages_past_saturation: set = set()
        self.squared: set = set()
        self.rref_shapes: Counter = Counter()

    # -- installation ---------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType]):
        """Wrap the package whose modules are `modules` (name -> module)."""
        table: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = modules.get(f"lscat.{layer}")
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(val)
                ):
                    table[id(val)] = (val, self._wrap(f"{layer}.{attr}", layer, val))
            for cname in CLASSES.get(layer, ()):
                cls = getattr(mod, cname, None)
                if cls is not None:
                    self._wrap_class(layer, cls)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = _rebind(val, table)
                if new is not val:
                    setattr(mod, attr, new)
        cli = modules.get("lscat.cli")
        if cli is not None and getattr(cli, "json", None) is json:
            cli.json = types.SimpleNamespace(
                dumps=self._wrap("cli.json.dumps", "cli", json.dumps),
                loads=json.loads,
            )

    def _wrap_class(self, layer: str, cls: type):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(val, functools.cached_property):
                new = functools.cached_property(self._wrap(name, layer, val.func))
                new.__set_name__(cls, attr)
            elif isinstance(val, property):
                new = property(self._wrap(name, layer, val.fget), val.fset,
                               val.fdel, val.__doc__)
            elif isinstance(val, classmethod):
                new = classmethod(self._wrap(name, layer, val.__func__))
            elif isinstance(val, staticmethod):
                new = staticmethod(self._wrap(name, layer, val.__func__))
            elif callable(val) and not inspect.isclass(val) and \
                    not inspect.isgeneratorfunction(val):
                new = self._wrap(name, layer, val)
            else:
                continue
            setattr(cls, attr, new)

    def _wrap(self, name: str, layer: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack, depth, layer_depth = self._stack, self._depth, self._layer_depth
        clock = time.perf_counter
        before, after = _BEFORE.get(name), _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            layer_depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                d = depth[name]
                depth[name] = d - 1
                ld = layer_depth[layer]
                layer_depth[layer] = ld - 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if d == 1:
                    stat.incl_s += dt
                if ld == 1:
                    tracer.layer_incl[layer] += dt
            if after is not None:
                after(tracer, args, result)
            return result

        return span

    # -- derived metrics ----------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def incl(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.incl_s if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_s if stat else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(
            s.self_s for n, s in self.stats.items() if n.startswith(layer + ".")
        )

    def fired(self) -> list[str]:
        return sorted(n for n, s in self.stats.items() if s.calls)

    def counters(self, reports: int) -> dict[str, int]:
        """Deterministic work counts for one pass (`reports` = report ops)."""
        mwgt = self.calls("weights.LoopSpaceModel.mwgt_lower_bound")
        rows = [r for r, _ in self.rref_shapes]
        return {
            "weights.mwgt_evaluations": mwgt // reports if reports else 0,
            "weights.stages_computed": len(self.stages),
            "weights.stages_past_saturation": len(self.stages_past_saturation),
            "steenrod.total_square_calls":
                self.calls("steenrod.SteenrodAction.total_square"),
            "steenrod.total_square_distinct": len(self.squared),
            "steenrod.image_of_sq_calls":
                self.calls("steenrod.SteenrodAction.image_of_sq"),
            "algebra.homogeneous_part_calls":
                self.calls("algebra.Element.homogeneous_part"),
            "algebra.mul_calls": self.calls("algebra.Element.__mul__"),
            "algebra.basis_calls": self.calls("algebra.Algebra.basis"),
            "specseq.e2_classes": self.e2_classes,
            "specseq.infer_candidates": self.infer_candidates,
            "specseq.infer_matched": self.infer_matched,
            "specseq.truncate_calls": self.calls("specseq.truncate"),
            "specseq.apply_differential_calls":
                self.calls("specseq.apply_differential"),
            "gf2.rref_calls": self.calls("gf2.rref"),
            "gf2.rref_rows_max": max(rows, default=0),
            "gf2.rref_cells": sum(
                r * c * n for (r, c), n in self.rref_shapes.items()
            ),
        }

    def times(self) -> dict[str, float]:
        """Wall-time metrics for one pass, in seconds."""
        return {
            "weights.find_obstruction_s":
                self.self_time("weights.LoopSpaceModel.find_obstruction"),
            "weights.mwgt_s": self.incl("weights.LoopSpaceModel.mwgt_lower_bound"),
            "weights.self_s": self.layer_self("weights"),
            "steenrod.total_square_s":
                self.incl("steenrod.SteenrodAction.total_square"),
            "steenrod.self_s": self.layer_self("steenrod"),
            "algebra.homogeneous_part_s":
                self.incl("algebra.Element.homogeneous_part"),
            "algebra.basis_s": self.incl("algebra.Algebra.basis"),
            "algebra.self_s": self.layer_self("algebra"),
            "specseq.koszul_e2_s": self.incl("specseq.koszul_e2"),
            "specseq.infer_s": self.incl("specseq.infer_differentials"),
            "specseq.truncate_s": self.incl("specseq.truncate"),
            "specseq.apply_differential_s": self.incl("specseq.apply_differential"),
            "specseq.classify_s": self.incl("specseq.classify_truncation"),
            "specseq.self_s": self.layer_self("specseq"),
            "gf2.rref_s": self.incl("gf2.rref"),
            "spaces.validate_s": self.incl("spaces.validate"),
            "spaces.load_s": self.incl("spaces.SpacePresentation.load"),
            "bounds.ledger_s": float(self.layer_incl["bounds"]),
            "report.self_s": self.layer_self("report"),
            "report.render_s": sum(self.incl(n) for n in RENDER_SPANS),
        }


def _rebind(val, table):
    """`val` with every traced original replaced by its wrapper."""
    hit = table.get(id(val))
    if hit is not None and hit[0] is val:
        return hit[1]
    if isinstance(val, tuple):
        new = tuple(_rebind(v, table) for v in val)
        return new if any(a is not b for a, b in zip(new, val)) else val
    if isinstance(val, dict):
        for key, v in list(val.items()):
            nv = _rebind(v, table)
            if nv is not v:
                val[key] = nv
    return val


# -- observers: layer counters read from a span's arguments or result ----


def _observe_truncation(tracer, args, result):
    model, m = args[0], args[1]
    tracer.stages.add((tracer.op, m))
    e2 = model.__dict__.get("e2")
    if e2 is not None and m > max(s for s, _ in e2.basis):
        tracer.stages_past_saturation.add((tracer.op, m))


def _observe_total_square(tracer, args):
    action, element = args[0], args[1]
    tracer.squared.add((tracer.op, id(action), element.terms))


def _observe_koszul(tracer, args, result):
    tracer.e2_classes += sum(len(v) for v in result.basis.values())


def _observe_apply(tracer, args):
    if tracer._depth["specseq.infer_differentials"]:
        tracer.infer_candidates += 1


def _observe_infer(tracer, args, result):
    tracer.infer_matched += len(result)


def _observe_rref(tracer, args):
    tracer.rref_shapes[(len(args[0]), args[1])] += 1


# Observers that read arguments run before the call, so that calls which
# raise (rejected inference candidates) are counted too.
_BEFORE = {
    "steenrod.SteenrodAction.total_square": _observe_total_square,
    "specseq.apply_differential": _observe_apply,
    "gf2.rref": _observe_rref,
}
_AFTER = {
    "weights.LoopSpaceModel.truncation": _observe_truncation,
    "specseq.koszul_e2": _observe_koszul,
    "specseq.infer_differentials": _observe_infer,
}
