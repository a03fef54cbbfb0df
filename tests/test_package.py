"""The package namespace re-exports each module's `__all__`, and nothing shadows; every
public numeric argument is read as a real number; the benchmark's self-tests pass."""

import dataclasses
import functools
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import dstable
from dstable import analysis, errors, families, inversion, sampling, special
from dstable.errors import DomainError

MODULES = (errors, families, special, inversion, sampling, analysis)


def test_no_name_is_public_in_two_modules():
    counts = Counter(name for m in MODULES for name in m.__all__)
    assert [name for name, c in counts.items() if c > 1] == []
    assert sorted(dstable.__all__) == sorted(["__version__", *counts])


def test_each_public_name_is_its_home_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(dstable, name) is getattr(m, name), (m.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dstable import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dstable.__all__)
    assert len(dstable.__all__) == len(set(dstable.__all__))


def test_perfbench_selftest():
    # the benchmark wraps public functions by name: a library change must keep the calls it traces
    root = pathlib.Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr


def _sites():
    """(label, call) for each public function, one numeric argument at a time set to "x"."""
    fam, s = dstable.SymmetricDS(0.5, 1.0, 1.0), dstable.StableParams(0.7, 0.0, 1.0)
    pmf = dstable.LatticePMF(1.0, -1, np.array([0.25, 0.5, 0.25]), 0.0)
    cf = functools.partial(dstable.char_fn, fam)
    rng = dstable.RngState(0)
    calls = {
        "char_fn": lambda x: dstable.char_fn(fam, x),
        "stable_cf": lambda x: dstable.stable_cf(s, x),
        "jump_cf": lambda x: dstable.compound_poisson_view(fam).jump_cf(x),
        "polylog_unit.theta": lambda x: dstable.polylog_unit(2.0, x),
        "polylog_unit.s": lambda x: dstable.polylog_unit(x, 0.5),
        "stable_cdf.x": lambda x: dstable.stable_cdf(s, x),
        "stable_cdf.tol": lambda x: dstable.stable_cdf(s, 0.5, tol=x),
        "cdf_from_pmf": lambda x: dstable.cdf_from_pmf(pmf, x),
        "tail_prob": lambda x: dstable.tail_prob(pmf, x),
        "ks_statistic": lambda x: dstable.ks_statistic(x, np.tanh),
        "sample_moments": lambda x: dstable.sample_moments(x),
        "binned_tv": lambda x: dstable.binned_tv(pmf, x),
        "tail_check.x_grid": lambda x: dstable.tail_check(fam, x_grid=x),
        "tail_check.alias_tol": lambda x: dstable.tail_check(fam, alias_tol=x),
        "LatticePMF.a": lambda x: dstable.LatticePMF(x, -1, pmf.masses, 0.0),
        "LatticePMF.k_min": lambda x: dstable.LatticePMF(1.0, x, pmf.masses, 0.0),
        "LatticePMF.alias_bound": lambda x: dstable.LatticePMF(1.0, -1, pmf.masses, x),
        "LatticePMF.mass_at": lambda x: pmf.mass_at(x),
        "pmf_from_cf": lambda x: dstable.pmf_from_cf(cf, x, 8),
        "pmf_auto": lambda x: dstable.pmf_auto(cf, 1.0, tol=x),
        "cf_distance": lambda x: dstable.cf_distance(fam, x),
        "levy_weight": lambda x: dstable.levy_weight(fam, x),
        "sample_poisson": lambda x: dstable.sample_poisson(x, rng),
        "sample_sibuya": lambda x: dstable.sample_sibuya(x, rng),
        "sample_tempered_sibuya.alpha": lambda x: dstable.sample_tempered_sibuya(x, 0.5, rng),
        "sample_tempered_sibuya.theta": lambda x: dstable.sample_tempered_sibuya(0.5, x, rng),
        "sample_zeta": lambda x: dstable.sample_zeta(x, rng),
        "sibuya_pmf": lambda x: dstable.sibuya_pmf(x, 1),
        "sibuya_survival": lambda x: dstable.sibuya_survival(x, 1),
        "riemann_zeta": lambda x: dstable.riemann_zeta(x),
    }
    for p in (fam, dstable.TruncatedSDS(0.5, 1.0, 1.0, 4), dstable.DiscreteStable(0.5, 0.0, 1.0, 1.0),
              dstable.TemperedDS(0.5, 0.0, 1.0, 1.0, 0.5, 0.5), dstable.PolylogDS(0.8, 1.0, 1.0, 1.0), s):
        for f in dataclasses.fields(p):
            calls[f"{type(p).__name__}.{f.name}"] = functools.partial(
                lambda p, name, x: dataclasses.replace(p, **{name: x}), p, f.name)
    return sorted(calls.items())


SITES = _sites()


@pytest.mark.parametrize("label, call", SITES, ids=[label for label, _ in SITES])
def test_every_numeric_argument_refuses_a_string(label, call):
    with pytest.raises(DomainError, match=" must "):
        call("x")
