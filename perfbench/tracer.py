"""Spans around the calls into each pinforms module, recorded from outside the package.

``install`` replaces the public entry points of every layer (the modules
under ``src/pinforms/``) by timing wrappers, in every module namespace that
holds them, so calls between layers are caught as well as calls from the
benchmark.  Per-class scalars (``Enhancement.__call__``, ``cross_pairs``,
``gf2.dot``, ``pairing_bits``) run millions of times and are not wrapped;
``PinPlusForm.__call__`` is counted without a span.  GF(2) routines are
traced only as called from ``orbits``: that module's ``gf2`` reference is
replaced by a namespace of wrappers.

A span is (name, start, end, parent).  A layer's self time is the time of
its spans minus the part covered by their direct child spans.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from typing import Callable

GF2_TRACED = ("mat_mul", "mat_vec", "transpose", "inverse", "rank")
TABLE_FUNCTIONS = ("class_bit_matrix", "cross_parity_table", "self_pairing_table")
GENERATOR_BUILDERS = ("orbits.isometry_generators", "orbits.isometry_group")


class Tracer:
    """In-memory span recorder; spans are written out once, after the run."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        # An open span holds its name and parent, with zero start and end.
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.table_misses: set[int] = set()

    def wrap(self, fn, name: str, after=None, cache_info=None):
        """Timing wrapper; ``after(span_id, args, kwargs, result)`` runs once the span is closed."""
        spans, stack, clock, misses = self.spans, self.stack, self.clock, self.table_misses

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1]
            spans.append((name, 0.0, 0.0, parent))
            stack.append(sid)
            missed = cache_info().misses if cache_info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if cache_info and cache_info().misses != missed:
                misses.add(sid)
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, counter: str):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def parent_name(self, sid: int) -> str:
        parent = self.spans[sid][3]
        return self.spans[parent][0] if parent >= 0 else ""

    def write(self, path, run_id: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"run": run_id, **header}) + "\n")
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent, run_id]) + "\n")

    def times(self):
        """Per span name: call count, inclusive seconds and self seconds; and self seconds per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        span_self = []
        for sid, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[sid]
            calls[name] += 1
            inclusive[name] += end - start
            self_time[name] += own
            span_self.append(own)
        return calls, inclusive, self_time, span_self


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "pinforms" or name.startswith("pinforms."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function giving the per-layer metrics."""
    from pinforms import census, cli, enhancements, gf2, orbits, pinplus, refinements, surfaces, verify

    counters = tracer.counters

    def wrap_function(module, attr, after=None, cache_info=None):
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        _replace_everywhere(original, tracer.wrap(original, f"{layer}.{attr}", after, cache_info))

    def wrap_method(cls, attr, layer):
        original = getattr(cls, attr)
        setattr(cls, attr, tracer.wrap(original, f"{layer}.{cls.__name__}.{attr}"))

    def tallied(sid, args, kwargs, result):
        if tracer.parent_name(sid).startswith("census."):
            counters["census.structures_tallied"] += len(result)

    def histogram(sid, args, kwargs, result):
        n = args[0].form.dim
        counters["enhancements.computed_bytes"] += n * (1 << n) + (1 << n)

    def refinements_built(sid, args, kwargs, result):
        counters["refinements.structures"] += len(result)

    def table(sid, args, kwargs, result):
        if sid in tracer.table_misses:
            counters["surfaces.table_bytes"] += result.nbytes

    def generators(sid, args, kwargs, result):
        if tracer.parent_name(sid) not in GENERATOR_BUILDERS:
            counters["orbits.generators"] += len(result)

    def partition(sid, args, kwargs, result):
        structures = args[1] if len(args) > 1 else kwargs["structures"]
        counters["orbits.structures"] += len(structures)
        counters["orbits.orbits"] += len(result)

    def pinplus_enumerated(sid, args, kwargs, result):
        counters["pinplus.candidates"] += 1 << args[0].form.dim
        counters["pinplus.accepted"] += len(result)

    def suite_checks(sid, args, kwargs, result):
        counters["verify.checks"] += len(result)

    wrap_function(cli, "main")
    for attr in ("pin_census_enumerated", "pin_census_recursive", "pin_census_closed_form",
                 "reference_census", "bordism_class", "cobordant"):
        wrap_function(census, attr)
    wrap_function(enhancements, "enumerate_enhancements", tallied)
    wrap_function(enhancements, "value_histogram", histogram)
    for attr in ("brown_gauss", "brown_compass", "direct_sum_enhancement",
                 "enhancement_from_refinement", "cap_off_summand"):
        wrap_function(enhancements, attr)
    wrap_method(enhancements.Enhancement, "values_on_all", "enhancements")
    wrap_function(refinements, "enumerate_refinements", refinements_built)
    for attr in ("spin_census", "arf_symplectic", "arf_majority"):
        wrap_function(refinements, attr)
    wrap_method(refinements.Refinement, "values_on_all", "refinements")
    tables = [getattr(surfaces, attr) for attr in TABLE_FUNCTIONS]
    for attr, fn in zip(TABLE_FUNCTIONS, tables):
        wrap_function(surfaces, attr, table, fn.cache_info)
    wrap_function(orbits, "isometry_generators", generators)
    wrap_function(orbits, "isometry_group", generators)
    wrap_function(orbits, "orbit_partition", partition)
    for attr in ("act", "mulclose", "transvection", "banding_isometry"):
        wrap_function(orbits, attr)
    orbits.gf2 = types.SimpleNamespace(
        **{
            attr: tracer.wrap(getattr(gf2, attr), f"gf2.{attr}") if attr in GF2_TRACED else getattr(gf2, attr)
            for attr in dir(gf2)
            if not attr.startswith("_")
        }
    )
    wrap_function(pinplus, "enumerate_pinplus", pinplus_enumerated)
    wrap_function(pinplus, "is_well_defined")
    pinplus.PinPlusForm.__call__ = tracer.counting(pinplus.PinPlusForm.__call__, "pinplus.evals")
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = tracer.wrap(fn, f"verify.{suite}", suite_checks)
    suites = list(verify.SUITES)

    def metrics() -> dict[str, float]:
        calls, inclusive, self_time, span_self = tracer.times()
        spans = tracer.spans

        def layer_self(layer):
            return sum(t for name, t in self_time.items() if name.split(".", 1)[0] == layer)

        def ratio(num, den):
            return num / den if den else 0.0

        generator_spans = [
            sid for sid, span in enumerate(spans)
            if span[0] in GENERATOR_BUILDERS and tracer.parent_name(sid) not in GENERATOR_BUILDERS
        ]
        partition_acts = sum(
            1 for sid, span in enumerate(spans)
            if span[0] == "orbits.act" and tracer.parent_name(sid) == "orbits.orbit_partition"
        )
        hits = sum(fn.cache_info().hits for fn in tables)
        lookups = hits + sum(fn.cache_info().misses for fn in tables)
        out = {
            "cli.self_s": layer_self("cli"),
            "census.self_s": layer_self("census"),
            "census.structures_tallied": counters["census.structures_tallied"],
            "enhancements.self_s": layer_self("enhancements"),
            "enhancements.histogram_calls": calls["enhancements.value_histogram"],
            "enhancements.computed_bytes": counters["enhancements.computed_bytes"],
            "refinements.self_s": layer_self("refinements"),
            "refinements.structures": counters["refinements.structures"],
            "surfaces.table_build_s": sum(span_self[sid] for sid in tracer.table_misses),
            "surfaces.table_bytes": counters["surfaces.table_bytes"],
            "surfaces.table_hit_ratio": ratio(hits, lookups),
            "orbits.generator_build_s": sum(spans[s][2] - spans[s][1] for s in generator_spans),
            "orbits.generators": counters["orbits.generators"],
            "orbits.act_calls": calls["orbits.act"],
            "orbits.act_s": inclusive["orbits.act"],
            "orbits.partition_self_s": self_time["orbits.orbit_partition"],
            "orbits.act_new_ratio": ratio(
                counters["orbits.structures"] - counters["orbits.orbits"], partition_acts
            ),
            "gf2.calls": sum(c for name, c in calls.items() if name.startswith("gf2.")),
            "gf2.self_s": layer_self("gf2"),
            "pinplus.candidates": counters["pinplus.candidates"],
            "pinplus.accepted_ratio": ratio(counters["pinplus.accepted"], counters["pinplus.candidates"]),
            "pinplus.evals": counters["pinplus.evals"],
            "pinplus.check_s": inclusive["pinplus.is_well_defined"],
        }
        for suite in suites:
            out[f"verify.{suite}_s"] = inclusive[f"verify.{suite}"]
        out["verify.checks"] = counters["verify.checks"]
        out["trace.spans"] = len(spans)
        return out

    return metrics
