"""Runs the `invert` or `sample` workload in a fresh interpreter.

Started by run.py from the root of a checkout, with `src` first on the path.
It imports dstable, makes the warm-up calls, prints `ready` (the parent
times set-up up to that line), then runs passes over the workload's cases,
one op after the other, for about --seconds. The first pass checks every
output; later passes must reproduce its outputs exactly. The peak RSS is
read once the first pass has ended: glibc keeps freed large arrays in its
heap, so the peak grows by about 10% a pass, and over the whole run it would
depend on how many passes fit in --seconds. With --trace 1
every case also runs traced, and must give the same output. The last line
of stdout is one JSON object with the per-op timings, the failures and, when
traced, the per-layer values of each pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time


import cases
import checks
import tracing


def _digest(outcome) -> str:
    h = hashlib.sha256()
    if isinstance(outcome, BaseException):
        h.update(f"{type(outcome).__name__}: {outcome}".encode())
    elif hasattr(outcome, "masses"):
        h.update(outcome.masses.tobytes())
        h.update(repr((outcome.k_min, outcome.alias_bound)).encode())
    else:
        h.update(outcome.tobytes())
    return h.hexdigest()


class Workload:
    """The cases of one workload and how to run and check one of them."""

    def __init__(self, name: str, seed: int, here: str):
        from dstable import errors, families, inversion, sampling

        self.name = name
        self.cases = cases.workload_cases(name, seed)
        self.errors, self.families = errors, families
        self.inversion, self.sampling = inversion, sampling
        self.params = {c.label: cases.build_family(families, c.family, c.params)
                       for c in self.cases}
        self.refs = (checks.load_references(os.path.join(here, "reference.json"))
                     if name == "invert" else None)

    def warm_up(self) -> None:
        """One small call per case family, so lazy imports and first-call
        costs land in set-up rather than in the first op."""
        for p in self.params.values():
            if self.name == "invert":
                self.inversion.pmf_from_cf(lambda t: self.families.char_fn(p, t), p.a, 2048)
            else:
                self.sampling.sample_family(p, self.sampling.RngState(0), 64, threads=1)

    def run(self, case, tracer):
        """(seconds, outcome) of one op; an exception is its outcome."""
        p = self.params[case.label]
        if self.name == "invert":
            char_fn = self.families.char_fn
            if tracer is not None:
                before = tracing.WRAPPED["families.char_fn"][1]
                char_fn = tracer.wrap("families.char_fn", char_fn, before)
            cf = lambda t: char_fn(p, t)  # noqa: E731
            start = time.perf_counter()
            try:
                outcome = self.inversion.pmf_auto(cf, p.a, tol=case.tol, n_max=case.n_max)
            except Exception as exc:  # the check reports it
                outcome = exc
        else:
            rng = self.sampling.RngState(case.rng_seed)
            start = time.perf_counter()
            try:
                outcome = self.sampling.sample_family(p, rng, case.size, threads=1)
            except Exception as exc:  # the check reports it
                outcome = exc
        return time.perf_counter() - start, outcome

    def check(self, case, outcome):
        if self.name == "invert":
            return checks.check_pmf(case, outcome, self.refs.get(case.label),
                                         self.errors.PrecisionError)
        return checks.check_draws(case, outcome, self.params[case.label],
                                       self.families.char_fn)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("invert", "sample"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    work = Workload(args.workload, args.seed, here)
    work.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes, failures, digests, layer_runs, spans = [], [], {}, [], []
    attempted = 0
    begin = time.perf_counter()
    while True:
        # With tracing, each case runs untraced and traced back to back, in
        # alternating order from pass to pass, so that drift in the machine's
        # speed cancels out of the overhead.
        n = len(passes)
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-pass{n}") \
            if args.trace else None
        modes = ((False, True) if n % 2 == 0 else (True, False)) if args.trace else (False,)
        ops, traced_ops = {}, {}
        for case in work.cases:
            for traced in modes:
                saved = tracer.install() if traced else []
                try:
                    seconds, outcome = work.run(case, tracer if traced else None)
                finally:
                    tracing.restore(saved)
                (traced_ops if traced else ops)[case.label] = seconds
                attempted += 1
                digest = _digest(outcome)
                if case.label not in digests:
                    digests[case.label] = digest
                    why = work.check(case, outcome)
                else:
                    why = None if digest == digests[case.label] else (
                        "traced output differs from untraced" if traced
                        else "output differs from the first pass")
                if why is not None:
                    failures.append(f"{case.label} pass {n}: {why}")
                del outcome
        passes.append({"ops": ops, "traced_ops": traced_ops})
        if n == 0:
            first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            layer_runs.append((tracing.layer_values(tracer.spans),
                               tracing.call_counts(tracer.spans), tracer.missing))
            spans.extend(tracer.spans)
        walls = [sum(p["ops"].values()) + sum(p["traced_ops"].values()) for p in passes]
        if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break

    if args.trace_file:
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    result = {"passes": passes, "attempted": attempted, "failures": failures,
              "first_pass_rss_mb": first_pass_rss_mb}
    if layer_runs:
        result["layers"] = [
            {"values": v, "counts": dict(c), "missing": m} for v, c, m in layer_runs]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
