"""Output checks. Each returns None when the output is right, or the reason
it is wrong; a wrong output counts as a failed op."""

from __future__ import annotations

import json
import math
import os

import numpy as np

import cases

# fixed t at which the empirical CF of a sample is compared with char_fn
ECF_T = (0.3, 0.7, 1.5, 3.0)
# |ECF - CF| has standard deviation <= 1/sqrt(n); 5 sigma is never reached by
# chance across the checks of a run
ECF_SIGMAS = 5.0
LATTICE_TOL = 1e-6  # largest distance of x/a from an integer


def load_references(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pmf(case, outcome, ref, precision_error) -> str | None:
    """A reachable case returns masses within `tol` of the reference masses
    (computed once at a window four times wider); the unreachable case
    raises PrecisionError."""
    if not case.reachable:
        if isinstance(outcome, precision_error):
            return None
        return f"expected PrecisionError, got {_describe(outcome)}"
    if isinstance(outcome, BaseException):
        return f"raised {_describe(outcome)}"
    if not outcome.alias_bound < case.tol:
        return f"alias_bound {outcome.alias_bound!r} is not below tol {case.tol!r}"
    k = np.asarray(ref["k"], dtype=np.int64)
    idx = k - outcome.k_min
    inside = (idx >= 0) & (idx < outcome.masses.size)
    got = np.zeros(k.size)
    got[inside] = outcome.masses[idx[inside]]
    err = np.abs(got - np.asarray(ref["mass"]))
    worst = int(np.argmax(err))
    if not err[worst] <= case.tol:
        return (f"mass at k={int(k[worst])} is {got[worst]!r}, reference "
                f"{ref['mass'][worst]!r}: off by more than tol {case.tol!r}")
    return None


def check_draws(case, draws, family, char_fn) -> str | None:
    """Every draw lies on the lattice a*Z, and the empirical CF at ECF_T is
    within ECF_SIGMAS/sqrt(n) of the exact CF. The check is statistical, so
    a sampler that changes the draws for a seed still passes."""
    if isinstance(draws, BaseException):
        return f"raised {_describe(draws)}"
    x = np.asarray(draws)
    if x.shape != (case.size,) or not np.all(np.isfinite(x)):
        return f"expected {case.size} finite draws, got shape {x.shape}"
    a = family.a
    off = np.abs(x / a - np.rint(x / a))
    if not off.max() <= LATTICE_TOL:
        return f"draw {x[int(np.argmax(off))]!r} is off the lattice {a}Z"
    bound = ECF_SIGMAS / math.sqrt(x.size)
    for t in ECF_T:
        emp = np.mean(np.exp(1j * t * x))
        exact = char_fn(family, t)
        if not abs(emp - exact) <= bound:
            return (f"empirical CF at t={t} is {emp:.5f}, exact {exact:.5f}: "
                    f"further apart than {bound:.4f}")
    return None


def _describe(outcome) -> str:
    if isinstance(outcome, BaseException):
        return f"{type(outcome).__name__}: {outcome}"
    return f"a {type(outcome).__name__}"


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _meta_value(v):
    """A metadata value as a number, bool or None, from CSV text or JSON."""
    if not isinstance(v, str):
        return v
    if v in ("true", "false"):
        return v == "true"
    if v == "":
        return None
    try:
        return float(v)
    except ValueError:
        return v


def read_table(path: str, fmt: str):
    """(metadata, columns, rows) of a table written by the dstable CLI."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            payload = json.load(fh)
            rows = np.array([[np.nan if v is None else v for v in row]
                             for row in payload["rows"]], dtype=float)
            return payload["meta"], payload["columns"], rows.reshape(-1, len(payload["columns"]))
        meta = {}
        line = fh.readline()
        while line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
            line = fh.readline()
        columns = line.rstrip("\n").split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        return meta, columns, rows.reshape(-1, len(columns))


def count_rows(path: str, fmt: str) -> int:
    return read_table(path, fmt)[2].shape[0]


def cli_expected(case, dst):
    """(metadata, columns, rows) that the command should write, from the same
    library calls made in-process with the same arguments and seed."""
    families, inversion, sampling, analysis = (
        dst.families, dst.inversion, dst.sampling, dst.analysis)
    given = dict(case.flags)
    meta = {"family": case.family, **given}
    if case.command == "converge":
        pitches = [float(s) for s in case.option("--pitches").split(",")]
        dist = []
        for a in pitches:
            p = cases.build_family(families, case.family, tuple(
                a if f == "a" else given[f] for f in cases.CTOR_FLAGS[case.family]))
            dist.append(analysis.cf_distance(p, 10.0, points=2001))
        meta |= {"t_max": 10.0, "points": 2001}
        return meta, ["pitch", "sup_distance"], np.column_stack([pitches, dist])
    p = cases.build_family(families, case.family,
                           tuple(given[f] for f in cases.CTOR_FLAGS[case.family]))
    if case.command == "cf":
        t = np.linspace(-10.0, 10.0, 1001)
        v = families.char_fn(p, t)
        meta |= {"t_max": 10.0, "points": 1001}
        return meta, ["t", "real", "imag"], np.column_stack([t, v.real, v.imag])
    if case.command == "pmf":
        pmf = inversion.pmf_auto(lambda t: families.char_fn(p, t), p.a,
                                 tol=float(case.option("--tol")), n_max=1 << 24)
        k = pmf.k_values()
        meta |= {"n": pmf.masses.size, "alias_bound": pmf.alias_bound}
        return meta, ["k", "x", "mass"], np.column_stack([k, k * p.a, pmf.clamped()])
    if case.command == "sample":
        size, seed = int(case.option("--size")), int(case.option("--seed"))
        draws = sampling.sample_family(p, sampling.RngState(seed), size, threads=1)
        meta |= {"size": size, "seed": seed}
        return meta, ["value"], draws.reshape(-1, 1)
    if case.command == "tails":
        rep = analysis.tail_check(p, x_grid=None, alias_tol=1e-8,
                                  n_max=int(case.option("--n-max")))
        meta |= {"theoretical_constant": rep.theoretical_constant,
                 "continuation_constant": rep.continuation_constant,
                 "relative_gap": rep.relative_gap,
                 "decay_exponent": rep.decay_exponent,
                 "super_linear": rep.super_linear}
        return meta, ["x", "scaled_tail"], np.column_stack([rep.x_grid, rep.scaled_tail])
    if case.command == "prelimit":
        n_values = [int(s) for s in case.option("--n-values").split(",")]
        reps, seed = int(case.option("--reps")), int(case.option("--seed"))
        rep = analysis.prelimit_experiment(p, n_values, reps=reps, seed=seed, threads=1)
        meta |= {"reps": reps, "seed": seed}
        return meta, ["n", "ks_stable", "ks_gaussian", "predicted_sum_variance"], \
            np.column_stack([rep.n_values, rep.ks_to_stable, rep.ks_to_gaussian,
                             rep.predicted_sum_variance])
    raise ValueError(f"no expected output for command {case.command!r}")


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None \
            or isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-300) or (
        math.isnan(a) and math.isnan(b))


def check_cli(case, path: str, exit_code: int, expected) -> str | None:
    """Exit code, metadata keys and values, row count and row values."""
    if exit_code != case.exit_code:
        return f"exit code {exit_code}, expected {case.exit_code}"
    if case.exit_code != 0:
        return f"wrote {path} although it failed" if os.path.exists(path) else None
    meta, columns, rows = read_table(path, case.fmt)
    want_meta, want_columns, want_rows = expected
    for key, value in want_meta.items():
        if key not in meta:
            return f"metadata key {key!r} missing"
        if not _same(_meta_value(meta[key]), value):
            return f"metadata {key}={meta[key]!r}, expected {value!r}"
    if list(columns) != want_columns:
        return f"columns {columns}, expected {want_columns}"
    if rows.shape != want_rows.shape:
        return f"{rows.shape[0]} rows, expected {want_rows.shape[0]}"
    if not np.allclose(rows, want_rows, rtol=1e-12, atol=0.0, equal_nan=True):
        bad = np.argwhere(~np.isclose(rows, want_rows, rtol=1e-12, atol=0.0,
                                      equal_nan=True))[0]
        return (f"row {bad[0]} column {columns[bad[1]]} is {rows[tuple(bad)]!r}, "
                f"expected {want_rows[tuple(bad)]!r}")
    return None
