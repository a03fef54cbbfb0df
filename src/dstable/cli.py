"""Command-line interface: evaluate CFs, invert PMFs, draw samples, and run
the tail / convergence / pre-limit experiments from a shell.

Every command selects a family by name and its parameter flags, and writes
one table (CSV with `# key=value` metadata lines, or a JSON object) to
stdout or --out. Exit status: 0 on success, 2 for invalid requests, 3 when a
result cannot be computed to tolerance.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .analysis import cf_distance, prelimit_experiment, tail_check
from .errors import DomainError, InversionError, PrecisionError
from .families import (
    DiscreteStable,
    PolylogDS,
    SymmetricDS,
    TemperedDS,
    TruncatedPolylogDS,
    TruncatedSDS,
    _RULES,
    char_fn,
)
from .inversion import pmf_auto, pmf_from_cf
from .sampling import RngState, sample_family
from .special import _check_index, _scalar

# family name -> (constructor, parameter flags in constructor order): the
# dataclass fields, named as in messages (p, q -> P, Q)
_FAMILIES = {
    name: (cls, tuple(_RULES[f.name][0] for f in fields(cls)))
    for name, cls in (("sds", SymmetricDS), ("truncated-sds", TruncatedSDS),
                      ("ds", DiscreteStable), ("tempered-ds", TemperedDS),
                      ("polylog-ds", PolylogDS), ("truncated-polylog-ds", TruncatedPolylogDS))
}

# flag -> (type, the families that take it), in order of first use: m, the one field
# that _RULES reads as an integer, is an int flag, and every other flag a float
_FLAGS = {
    flag: (int if ok is None else float, [n for n, (_, fs) in _FAMILIES.items() if flag in fs])
    for cls, _ in _FAMILIES.values() for flag, ok, _ in (_RULES[f.name] for f in fields(cls))
}

# table rows are formatted column by column, this many rows at a time
_ROW_BLOCK = 1 << 16


def _add_family_arguments(sub):
    sub.add_argument("family", choices=sorted(_FAMILIES),
                     help="distribution family")
    group = sub.add_argument_group("family parameters")
    for flag, (kind, families) in _FLAGS.items():
        group.add_argument("--" + flag, type=kind, help="for " + ", ".join(families))


def _build_family(args):
    """Construct the selected family from exactly its parameter flags."""
    ctor, wanted = _FAMILIES[args.family]
    given = {f for f in _FLAGS if getattr(args, f) is not None}
    missing = [f for f in wanted if f not in given]
    extra = sorted(given - set(wanted))
    if missing:
        raise DomainError(
            f"{args.family} needs {', '.join('--' + f for f in missing)}")
    if extra:
        raise DomainError(
            f"{args.family} does not take {', '.join('--' + f for f in extra)}")
    return ctor(*(getattr(args, f) for f in wanted))


def _list_flag(text: str, flag: str, cast) -> list:
    """The comma-separated values of `--flag`, each read by `cast`."""
    try:
        return [cast(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise DomainError(f"--{flag} must be a comma-separated list of "
                          f"{cast.__name__} values, got {text!r}")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _json_value(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else None
    return v


def _column_fields(col, fmt: str):
    """A numeric column as a % spec and its values: floats as %.17g in CSV, as _fmt
    writes them, and by repr as json.dump writes them in JSON, non-finite as null."""
    col = np.asarray(col)
    values = col.tolist()
    if col.dtype.kind == "f" and fmt == "json":
        for i in np.flatnonzero(~np.isfinite(col)):
            values[i] = "null"
    return "%.17g" if col.dtype.kind == "f" and fmt == "csv" else "%s", values


def _write_table(stream, fmt: str, meta: dict, names, columns) -> None:
    """Write one table, given as one sequence per column, as CSV or JSON.

    Rows are formatted _ROW_BLOCK at a time; the JSON rows are laid out as
    json.dump(indent=2) lays out the whole payload.
    """
    n = len(columns[0])
    if fmt == "json":
        import json
        head = json.dumps({"meta": {k: _json_value(v) for k, v in meta.items()},
                           "columns": list(names), "rows": []}, indent=2)
        # rows go between the brackets of the empty "rows": [] that ends head
        stream.write(head[:-len("]\n}")] + "\n" if n else head)
        frame, comma = "    [\n      {}\n    ]", ",\n      "
        sep, end = ",\n", "\n  ]\n}\n" if n else "\n"
    else:
        for k, v in meta.items():
            stream.write(f"# {k}={_fmt(v)}\n")
        stream.write(",".join(names) + "\n")
        frame, comma, sep, end = "{}", ",", "\n", "\n" if n else ""
    for lo in range(0, n, _ROW_BLOCK):
        specs, blocks = zip(*(_column_fields(col[lo:lo + _ROW_BLOCK], fmt) for col in columns))
        fields = [None] * (len(blocks[0]) * len(columns))  # row after row, for one %
        for c, values in enumerate(blocks):
            fields[c::len(columns)] = values
        row = frame.format(comma.join(specs))
        stream.write(("" if lo == 0 else sep) + sep.join([row] * len(blocks[0])) % tuple(fields))
    stream.write(end)


def _family_meta(args) -> dict:
    given = {f: getattr(args, f, None) for f in _FAMILIES[args.family][1]}
    return {"family": args.family} | {f: v for f, v in given.items() if v is not None}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_cf(args):
    p = _build_family(args)
    _check_index(args.points, "--points", 2)
    _scalar(args.t_max, "--t-max", lambda v: 0.0 < v < math.inf, "be finite and > 0")
    t = np.linspace(-args.t_max, args.t_max, args.points)
    vals = char_fn(p, t)
    meta = _family_meta(args) | {"t_max": args.t_max, "points": args.points}
    return meta, ("t", "real", "imag"), (t, vals.real, vals.imag)


def _cmd_pmf(args):
    p = _build_family(args)
    cf = lambda t: char_fn(p, t)
    if args.n is not None:
        pmf = pmf_from_cf(cf, p.a, args.n)
    else:
        pmf = pmf_auto(cf, p.a, tol=args.tol, n_max=args.n_max)
    meta = _family_meta(args) | {"n": pmf.masses.size, "alias_bound": pmf.alias_bound}
    return meta, ("k", "x", "mass"), (pmf.k_values(), pmf.x_values(), pmf.clamped())


def _cmd_sample(args):
    p = _build_family(args)
    rng = RngState(args.seed)
    draws = sample_family(p, rng, args.size, threads=args.threads)
    meta = _family_meta(args) | {"size": args.size, "seed": args.seed}
    return meta, ("value",), (draws,)


def _cmd_tails(args):
    p = _build_family(args)
    grid_flags, grid = (args.x_min, args.x_max, args.grid_points), None
    if any(v is not None for v in grid_flags):
        if any(v is None for v in grid_flags):
            raise DomainError(
                "--x-min, --x-max and --grid-points must be given together")
        grid = np.linspace(args.x_min, args.x_max, args.grid_points)
    report = tail_check(p, x_grid=grid, alias_tol=args.alias_tol,
                        n_max=args.n_max)
    meta = _family_meta(args) | {
        "theoretical_constant": report.theoretical_constant,
        "continuation_constant": report.continuation_constant,
        "relative_gap": report.relative_gap,
        "decay_exponent": report.decay_exponent,
        "super_linear": report.super_linear,
    }
    return meta, ("x", "scaled_tail"), (report.x_grid, report.scaled_tail)


def _cmd_converge(args):
    if args.a is not None:
        raise DomainError("converge sweeps the pitch itself: use --pitches, not --a")
    pitches = _list_flag(args.pitches, "pitches", float)
    if not pitches:
        raise DomainError("--pitches must list at least one pitch")
    distances = []
    for a in pitches:
        args.a = a
        p = _build_family(args)
        distances.append(cf_distance(p, args.t_max, points=args.points))
    args.a = None
    meta = _family_meta(args) | {"t_max": args.t_max, "points": args.points}
    return meta, ("pitch", "sup_distance"), (pitches, distances)


def _cmd_prelimit(args):
    p = _build_family(args)
    n_values = _list_flag(args.n_values, "n-values", int)
    report = prelimit_experiment(p, n_values, reps=args.reps, seed=args.seed,
                                 threads=args.threads)
    meta = _family_meta(args) | {"reps": args.reps, "seed": args.seed}
    columns = (report.n_values, report.ks_to_stable, report.ks_to_gaussian,
               report.predicted_sum_variance)
    return meta, ("n", "ks_stable", "ks_gaussian", "predicted_sum_variance"), columns


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstable",
        description="lattice approximations of stable laws: CFs, PMFs, "
                    "samplers, and verification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(s):
        _add_family_arguments(s)
        s.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        s.add_argument("--out", help="write to this file instead of stdout")

    s = sub.add_parser("cf", help="characteristic function on a t-grid")
    common(s)
    s.add_argument("--t-max", type=float, default=10.0)
    s.add_argument("--points", type=int, default=1001)
    s.set_defaults(run=_cmd_cf)

    s = sub.add_parser("pmf", help="lattice PMF by Fourier inversion")
    common(s)
    s.add_argument("--n", type=int, help="window size (power of two)")
    s.add_argument("--tol", type=float, default=1e-6,
                   help="alias bound for the automatic window (default 1e-6)")
    s.add_argument("--n-max", type=int, default=1 << 24)
    s.set_defaults(run=_cmd_pmf)

    s = sub.add_parser("sample", help="draw exact samples")
    common(s)
    s.add_argument("--size", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    s.set_defaults(run=_cmd_sample)

    s = sub.add_parser("tails", help="tail scaling against the closed form")
    common(s)
    s.add_argument("--x-min", type=float)
    s.add_argument("--x-max", type=float)
    s.add_argument("--grid-points", type=int)
    s.add_argument("--alias-tol", type=float, default=1e-8)
    s.add_argument("--n-max", type=int, default=1 << 22)
    s.set_defaults(run=_cmd_tails)

    s = sub.add_parser("converge", help="sup-CF distance to the stable target "
                                        "over a pitch ladder")
    common(s)
    s.add_argument("--pitches", required=True,
                   help="comma-separated lattice pitches, e.g. 0.5,0.1,0.02")
    s.add_argument("--t-max", type=float, default=10.0)
    s.add_argument("--points", type=int, default=2001)
    s.set_defaults(run=_cmd_converge)

    s = sub.add_parser("prelimit", help="KS distances of normalized sums")
    common(s)
    s.add_argument("--n-values", required=True,
                   help="comma-separated summand counts, e.g. 2,10,50")
    s.add_argument("--reps", type=int, default=20_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    s.set_defaults(run=_cmd_prelimit)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        meta, names, columns = args.run(args)
    except (DomainError, PrecisionError, InversionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, DomainError) else 3
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_table(fh, args.format, meta, names, columns)
    else:
        try:
            _write_table(sys.stdout, args.format, meta, names, columns)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (as `| head` does): the rest is unwanted;
            # stdout goes to devnull so the flush at interpreter exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
