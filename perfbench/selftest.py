"""Self-tests of the benchmark: each output check rejects a perturbed result,
traced and untraced ops give identical outputs, a layer with no calls reads
unmeasured, and BENCHMARK.json names the metrics the benchmark reports.

    python3 perfbench/selftest.py      # from the root of a checkout

Exits 0 when every self-test passes. Takes a few seconds.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
from types import SimpleNamespace


HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from dstable import analysis, cli, errors, families, inversion, sampling  # noqa: E402

import cases  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

RESULTS = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def test_invert_check() -> None:
    case = next(c for c in cases.INVERT if c.label == "tsds")
    ref = checks.load_references(os.path.join(HERE, "reference.json"))[case.label]
    p = cases.build_family(families, case.family, case.params)
    pmf = inversion.pmf_auto(lambda t: families.char_fn(p, t), p.a, tol=case.tol,
                             n_max=case.n_max)
    why = checks.check_pmf(case, pmf, ref, errors.PrecisionError)
    expect("invert: the computed PMF passes", why is None, str(why))
    masses = pmf.masses.copy()
    masses[-pmf.k_min] += 10 * case.tol  # k = 0
    shifted = SimpleNamespace(masses=masses, k_min=pmf.k_min, alias_bound=pmf.alias_bound)
    expect("invert: a mass shifted by 10 tol fails",
           checks.check_pmf(case, shifted, ref, errors.PrecisionError) is not None)
    unreachable = next(c for c in cases.INVERT if not c.reachable)
    expect("invert: an unreachable case that returns fails",
           checks.check_pmf(unreachable, pmf, None, errors.PrecisionError) is not None)
    expect("invert: an unreachable case that raises PrecisionError passes",
           checks.check_pmf(unreachable, errors.PrecisionError("x"), None,
                            errors.PrecisionError) is None)


def test_sample_check() -> None:
    case = cases.SampleCase("sds", "sds", (0.6, 1.0, 1.0), 65536, "sibuya")
    p = cases.build_family(families, case.family, case.params)
    x = sampling.sample_family(p, sampling.RngState(11), case.size, threads=1)
    why = checks.check_draws(case, x, p, families.char_fn)
    expect("sample: exact draws pass", why is None, str(why))
    expect("sample: draws moved off the lattice fail",
           checks.check_draws(case, x + p.a / 2, p, families.char_fn) is not None)
    expect("sample: draws moved by one step fail",
           checks.check_draws(case, x + p.a, p, families.char_fn) is not None)


def test_cli_check(tmp: str) -> None:
    dst = SimpleNamespace(analysis=analysis, families=families,
                          inversion=inversion, sampling=sampling)
    ds = (("alpha", 0.7), ("beta", 0.5), ("sigma", 1.0), ("a", 0.1))
    for case in (cases.CliCase("cf_sds", "cf", "sds",
                               (("gamma", 0.6), ("sigma", 1.0), ("a", 0.5)),
                               ("--t-max", "10")),
                 cases.CliCase("sample_ds_json", "sample", "ds", ds,
                               ("--size", "2000", "--seed", "7"), fmt="json")):
        path = os.path.join(tmp, f"{case.label}.{case.fmt}")
        code = cli.main(case.argv(path))
        expected = checks.cli_expected(case, dst)
        why = checks.check_cli(case, path, code, expected)
        expect(f"cli {case.label}: the table passes", why is None, str(why))
        expect(f"cli {case.label}: a wrong exit code fails",
               checks.check_cli(case, path, 1, expected) is not None)
        short = os.path.join(tmp, f"short-{case.label}.{case.fmt}")
        if case.fmt == "json":
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            del payload["rows"][len(payload["rows"]) // 2]
            with open(short, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        else:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            del lines[len(lines) // 2]
            with open(short, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        expect(f"cli {case.label}: a table missing a row fails",
               checks.check_cli(case, short, 0, expected) is not None)
    bad = next(c for c in cases.workload_cases("cli", 0) if c.exit_code == 3)
    path = os.path.join(tmp, "unreachable.csv")
    expect("cli: the unreachable pmf exiting 3 passes",
           checks.check_cli(bad, path, 3, None) is None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,x,mass\n")
    expect("cli: the unreachable pmf exiting 0 fails",
           checks.check_cli(bad, path, 0, None) is not None)


def test_traced_identical() -> None:
    for workload, labels in (("invert", ("tsds", "tempered", "sds")),
                             ("sample", ("tsds", "sds_lam1.5", "tempered"))):
        work = worker.Workload(workload, 5, HERE)
        tracer = tracing.Tracer("selftest")
        for case in work.cases:
            if case.label not in labels:
                continue
            _, plain = work.run(case, None)
            saved = tracer.install()
            try:
                _, traced = work.run(case, tracer)
            finally:
                tracing.restore(saved)
            expect(f"{workload} {case.label}: traced output equals untraced",
                   worker._digest(plain) == worker._digest(traced))
        counts = tracing.call_counts(tracer.spans)
        expect(f"{workload}: the traced ops recorded spans",
               all(counts[name] > 0 for name in cases.EXPECTED[workload]
                   if name != "special.polylog_unit"
                   and name != "sampling.sample_zeta"), dict(counts))
    expect("wrappers are removed after a traced op", not any(
        hasattr(getattr(importlib.import_module(f"dstable.{ns}"), name.split(".")[1]),
                "__wrapped__")
        for name, (namespaces, _, _) in tracing.WRAPPED.items() for ns in namespaces))


def test_unmeasured() -> None:
    metrics, _ = tracing.report({"sampling.sample_zeta.s": 0}, {}, {},
                                {"sampling.sample_zeta"})
    entry = metrics["sampling.sample_zeta.s"]
    expect("a layer expected to run with no calls reads unmeasured",
           entry["value"] is None and "sample_zeta" in entry["unmeasured"], str(entry))
    metrics, _ = tracing.report({"sampling.sample_zeta.s": 0}, {}, {}, set())
    expect("a layer not expected to run reads 0",
           metrics["sampling.sample_zeta.s"]["value"] == 0)


def test_benchmark_json() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect("BENCHMARK.json per_layer matches tracing.METRICS",
           declared == [(n, u, b) for n, u, b, _ in tracing.METRICS])
    expect("BENCHMARK.json end_to_end names the metrics run.py reports",
           [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"])
    expect("BENCHMARK.json workloads match run.py",
           [w["name"] for w in bench["workloads"]] == ["invert", "sample", "cli"])


def main() -> int:
    tmp = os.path.join(os.getcwd(), ".perfbench", "selftest")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        test_invert_check()
        test_sample_check()
        test_cli_check(tmp)
        test_traced_identical()
        test_unmeasured()
        test_benchmark_json()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(RESULTS)} of {len(RESULTS)} self-tests passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    os.environ.setdefault("DSTABLE_THREADS", "1")
    sys.exit(main())
