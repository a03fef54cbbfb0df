"""Spans recorded from outside the dstable package, and the per-layer
metrics derived from them.

A traced pass replaces the public functions listed in WRAPPED, in the
namespaces of the dstable modules that look them up, with wrappers that
record one span per call: name, start, end, parent span and run id, plus
counts taken from the arguments or the result. `restore` puts the originals
back, so untraced passes run the package untouched. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _size(v) -> int:
    return 1 if v is None else int(v)


def _points(i, name):
    return lambda args, kwargs: {"points": int(np.size(_arg(args, kwargs, i, name)))}


def _sized(i):
    return lambda args, kwargs: {"size": _size(_arg(args, kwargs, i, "size"))}


# qualified name -> (modules whose namespace looks it up, attrs from the
# arguments, attrs from the result)
WRAPPED = {
    "families.char_fn": (("cli", "analysis"), _points(1, "t"), None),
    "special.polylog_unit": (("families",), _points(1, "theta"), None),
    "inversion.pmf_from_cf": (
        ("inversion", "analysis", "cli"),
        lambda args, kwargs: {"n": int(_arg(args, kwargs, 2, "n"))}, None),
    "inversion.pmf_auto": (("inversion", "cli"), None,
                           lambda out: {"n": int(out.masses.size)}),
    "sampling.sample_family": (
        ("sampling", "analysis", "cli"),
        lambda args, kwargs: {"family": type(args[0]).__name__,
                              "size": _size(_arg(args, kwargs, 2, "size"))},
        None),
    "sampling.sample_poisson": (
        ("sampling",),
        lambda args, kwargs: {"rate": float(_arg(args, kwargs, 0, "rate")),
                              "size": _size(_arg(args, kwargs, 2, "size"))},
        lambda out: {"jumps": int(np.sum(out))}),
    "sampling.sample_sibuya": (("sampling",), _sized(2), None),
    "sampling.sample_tempered_sibuya": (("sampling",), _sized(3), None),
    "sampling.sample_zeta": (("sampling",), _sized(2), None),
    "analysis.tail_check": (("analysis", "cli"), None, None),
    "analysis.cf_distance": (("analysis", "cli"), None, None),
    "analysis.prelimit_experiment": (("analysis", "cli"), None, None),
    "analysis.stable_cdf": (("analysis",), _points(1, "x"), None),
    "analysis.ks_statistic": (("analysis",), None, None),
    "quadrature.tanh_sinh": (("analysis",), None, None),
    "cli.main": (("cli",), None, None),
}


class Tracer:
    """Spans of one traced pass, in call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.missing = {}  # qualified name -> why no wrapper was installed
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` with a span recorded around each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            if before is not None:
                span.update(before(args, kwargs))
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            else:
                span["end"] = time.perf_counter()
                if after is not None:
                    span.update(after(out))
                return out
            finally:
                self._stack.pop()

        return traced

    def install(self):
        """Swap the wrappers into the dstable namespaces; returns a restore list."""
        restore = []
        for qualname, (namespaces, before, after) in WRAPPED.items():
            home, attr = qualname.split(".")
            original = getattr(importlib.import_module(f"dstable.{home}"), attr, None)
            if original is None:
                self.missing[qualname] = f"dstable.{home} has no {attr}"
                continue
            wrapper = self.wrap(qualname, original, before, after)
            for ns in namespaces:
                module = importlib.import_module(f"dstable.{ns}")
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))
            if not any(r[2] is original for r in restore):
                self.missing[qualname] = (
                    f"no module among {', '.join(namespaces)} looks up {attr}")
        return restore


def restore(saved) -> None:
    for module, attr, original in saved:
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name, unit, better, wrapped function it comes from (None: measured outside)
METRICS = (
    ("families.char_fn.s", "s", "lower", "families.char_fn"),
    ("families.char_fn.calls", "count", "lower", "families.char_fn"),
    ("families.char_fn.points", "count", "lower", "families.char_fn"),
    ("special.polylog_unit.s", "s", "lower", "special.polylog_unit"),
    ("special.polylog_unit.points", "count", "lower", "special.polylog_unit"),
    ("inversion.pmf_from_cf.self_s", "s", "lower", "inversion.pmf_from_cf"),
    ("inversion.windows", "count", "lower", "inversion.pmf_from_cf"),
    ("inversion.points", "count", "lower", "inversion.pmf_from_cf"),
    ("inversion.final_n", "count", "lower", "inversion.pmf_from_cf"),
    ("inversion.useful_frac", "ratio", "higher", "inversion.pmf_from_cf"),
    ("inversion.verdict_windows", "count", "lower", "inversion.pmf_auto"),
    ("inversion.verdict_points", "count", "lower", "inversion.pmf_auto"),
    ("sampling.sample_family.self_s", "s", "lower", "sampling.sample_family"),
    ("sampling.sample_poisson.s", "s", "lower", "sampling.sample_poisson"),
    ("sampling.sample_sibuya.self_s", "s", "lower", "sampling.sample_sibuya"),
    ("sampling.sample_tempered_sibuya.self_s", "s", "lower",
     "sampling.sample_tempered_sibuya"),
    ("sampling.sample_zeta.s", "s", "lower", "sampling.sample_zeta"),
    ("sampling.lambda", "1/draw", "lower", "sampling.sample_poisson"),
    ("sampling.jumps", "count", "lower", "sampling.sample_poisson"),
    ("sampling.jumps_per_draw", "1/draw", "lower", "sampling.sample_poisson"),
    ("sampling.tempered_accept", "ratio", "higher",
     "sampling.sample_tempered_sibuya"),
    ("sampling.zeta_cap_accept", "ratio", "higher", "sampling.sample_zeta"),
    ("analysis.tail_check.self_s", "s", "lower", "analysis.tail_check"),
    ("analysis.cf_distance.self_s", "s", "lower", "analysis.cf_distance"),
    ("analysis.prelimit_experiment.self_s", "s", "lower",
     "analysis.prelimit_experiment"),
    ("analysis.stable_cdf.s", "s", "lower", "analysis.stable_cdf"),
    ("analysis.stable_cdf.points", "count", "lower", "analysis.stable_cdf"),
    ("analysis.ks_statistic.s", "s", "lower", "analysis.ks_statistic"),
    ("quadrature.tanh_sinh.s", "s", "lower", "quadrature.tanh_sinh"),
    ("quadrature.tanh_sinh.calls", "count", "lower", "quadrature.tanh_sinh"),
    ("cli.main.self_s", "s", "lower", "cli.main"),
    ("cli.process_s", "s", "lower", "cli.main"),
    ("cli.rows", "count", "higher", "cli.main"),
    ("cli.bytes", "count", "lower", "cli.main"),
    ("trace.overhead_frac", "ratio", "lower", None),
)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_values(spans) -> dict:
    """Per-layer values of one traced pass; a ratio with no base is None."""
    by_id = {s["id"]: s for s in spans}
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            kids[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def self_time(name):
        return sum(dur(s) - _covered((k["start"], k["end"]) for k in kids[s["id"]])
                   for s in by_name[name])

    def ancestor(s, name):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return s
        return None

    def ratio(num, den):
        return num / den if den else None

    windows = by_name["inversion.pmf_from_cf"]
    # windows tried by a pmf_auto call that ended in an error
    verdict = [w for w in windows
               if "error" in (ancestor(w, "inversion.pmf_auto") or {})]
    verdict_ids = {w["id"] for w in verdict}
    tried = [w for w in windows if w["id"] not in verdict_ids and "error" not in w]
    final_n = sum(s["n"] for s in by_name["inversion.pmf_auto"] if "error" not in s)
    final_n += sum(w["n"] for w in tried if ancestor(w, "inversion.pmf_auto") is None)
    points = sum(w["n"] for w in tried)

    families = by_name["sampling.sample_family"]
    poisson = by_name["sampling.sample_poisson"]
    jumps = sum(s.get("jumps", 0) for s in poisson)
    tempered = by_name["sampling.sample_tempered_sibuya"]
    proposals = sum(k["size"] for t in tempered for k in kids[t["id"]]
                    if k["name"] == "sampling.sample_sibuya")
    capped = [f for f in families if f["family"] == "TruncatedPolylogDS"]
    capped_jumps = sum(k.get("jumps", 0) for f in capped for k in kids[f["id"]]
                       if k["name"] == "sampling.sample_poisson")
    capped_asked = sum(k["size"] for f in capped for k in kids[f["id"]]
                       if k["name"] == "sampling.sample_zeta")

    return {
        "families.char_fn.s": total("families.char_fn"),
        "families.char_fn.calls": len(by_name["families.char_fn"]),
        "families.char_fn.points": sum(s["points"] for s in by_name["families.char_fn"]),
        "special.polylog_unit.s": total("special.polylog_unit"),
        "special.polylog_unit.points": sum(
            s["points"] for s in by_name["special.polylog_unit"]),
        "inversion.pmf_from_cf.self_s": self_time("inversion.pmf_from_cf"),
        "inversion.windows": len(tried),
        "inversion.points": points,
        "inversion.final_n": final_n,
        "inversion.useful_frac": ratio(final_n, points),
        "inversion.verdict_windows": len(verdict),
        "inversion.verdict_points": sum(w["n"] for w in verdict),
        "sampling.sample_family.self_s": self_time("sampling.sample_family"),
        "sampling.sample_poisson.s": total("sampling.sample_poisson"),
        "sampling.sample_sibuya.self_s": self_time("sampling.sample_sibuya"),
        "sampling.sample_tempered_sibuya.self_s": self_time(
            "sampling.sample_tempered_sibuya"),
        "sampling.sample_zeta.s": total("sampling.sample_zeta"),
        "sampling.lambda": max((s["rate"] for s in poisson), default=0.0),
        "sampling.jumps": jumps,
        "sampling.jumps_per_draw": ratio(jumps, sum(f["size"] for f in families)),
        "sampling.tempered_accept": ratio(sum(t["size"] for t in tempered), proposals),
        "sampling.zeta_cap_accept": ratio(capped_jumps, capped_asked),
        "analysis.tail_check.self_s": self_time("analysis.tail_check"),
        "analysis.cf_distance.self_s": self_time("analysis.cf_distance"),
        "analysis.prelimit_experiment.self_s": self_time(
            "analysis.prelimit_experiment"),
        "analysis.stable_cdf.s": total("analysis.stable_cdf"),
        "analysis.stable_cdf.points": sum(
            s["points"] for s in by_name["analysis.stable_cdf"]),
        "analysis.ks_statistic.s": total("analysis.ks_statistic"),
        "quadrature.tanh_sinh.s": total("quadrature.tanh_sinh"),
        "quadrature.tanh_sinh.calls": len(by_name["quadrature.tanh_sinh"]),
        "cli.main.self_s": self_time("cli.main"),
    }


def call_counts(spans) -> dict:
    counts = defaultdict(int)
    for s in spans:
        counts[s["name"]] += 1
    return counts


def report(values: dict, counts: dict, missing: dict, expected: set) -> tuple:
    """Metric entries for the result line, and the notes that go with them.

    A metric whose wrapped function the workload is expected to call, and
    which recorded no call, reads `unmeasured` (value None) with the reason.
    A ratio with no base on a workload that does not run its layer reads 0
    and is listed as not exercised.
    """
    metrics, notes = {}, {}
    for name, unit, _, source in METRICS:
        value = values.get(name)
        if source in expected and counts.get(source, 0) == 0:
            why = missing.get(source, f"{source} recorded no calls")
            metrics[name] = {"value": None, "unit": unit, "unmeasured": why}
            notes[name] = f"unmeasured: {why}"
            continue
        if value is None:
            value = 0.0
            notes[name] = "not exercised by this workload"
        metrics[name] = {"value": value, "unit": unit}
    return metrics, notes
