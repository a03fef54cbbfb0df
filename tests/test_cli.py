"""Command-line behavior: table formats, family construction from flags,
agreement with the library calls, determinism, and exit codes."""

import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import dstable
from dstable.analysis import cf_distance, tail_check
from dstable.cli import _FAMILIES, _build_parser, _fmt, _json_value, _write_table, main
from dstable.analysis import stable_cdf
from dstable.families import PolylogDS, StableParams, SymmetricDS, TruncatedSDS, char_fn

SDS_FLAGS = ["sds", "--gamma", "0.6", "--sigma", "1", "--a", "0.5"]
TRUNC_FLAGS = ["truncated-sds", "--gamma", "0.4", "--sigma", "1",
               "--a", "1", "--m", "8"]


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------

def test_cf_csv_table(capsys):
    rc, out, _ = _run(capsys, ["cf"] + SDS_FLAGS
                      + ["--t-max", "3", "--points", "5"])
    assert rc == 0
    meta, header, rows = _parse_csv(out)
    assert meta["family"] == "sds" and float(meta["a"]) == 0.5
    assert header == ["t", "real", "imag"]
    assert len(rows) == 5
    assert rows[2] == ["0", "1", "0"]  # the CF is exactly 1 at the origin
    # symmetric family: real CF, even in t
    assert rows[0][0] == "-3" and rows[4][0] == "3"
    assert rows[0][1] == rows[4][1]
    assert all(r[2] == "0" for r in rows)


def test_cf_json_matches_library(capsys):
    rc, out, _ = _run(capsys, ["cf", "ds", "--alpha", "0.7", "--beta", "0.5",
                               "--sigma", "1", "--a", "0.2", "--t-max", "2",
                               "--points", "9", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["meta"]["family"] == "ds"
    assert payload["columns"] == ["t", "real", "imag"]
    rows = np.array(payload["rows"])
    from dstable.families import DiscreteStable
    want = char_fn(DiscreteStable(0.7, 0.5, 1.0, 0.2), rows[:, 0])
    assert np.allclose(rows[:, 1], want.real, atol=1e-15)
    assert np.allclose(rows[:, 2], want.imag, atol=1e-15)
    # skewed CF: imaginary part is odd in t
    assert rows[0, 2] == pytest.approx(-rows[-1, 2], abs=1e-15)


def test_cf_rejects_degenerate_grid(capsys):
    rc, _, err = _run(capsys, ["cf"] + SDS_FLAGS + ["--points", "1"])
    assert rc == 2 and "points" in err
    for t_max in ("0", "inf", "nan"):
        rc, _, err = _run(capsys, ["cf"] + SDS_FLAGS + ["--t-max", t_max])
        assert rc == 2 and "t-max" in err


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------

def test_pmf_fixed_window(capsys):
    rc, out, _ = _run(capsys, ["pmf"] + TRUNC_FLAGS + ["--n", "64"])
    assert rc == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["k", "x", "mass"] and len(rows) == 64
    assert int(meta["n"]) == 64
    ks = np.array([int(r[0]) for r in rows])
    xs = np.array([float(r[1]) for r in rows])
    masses = np.array([float(r[2]) for r in rows])
    assert ks[0] == -32 and ks[-1] == 31
    assert np.array_equal(xs, ks * 1.0)
    assert masses.sum() == pytest.approx(1.0, abs=1e-10)
    assert float(meta["alias_bound"]) < 1e-6


def test_pmf_auto_window_meets_tolerance(capsys):
    rc, out, _ = _run(capsys, ["pmf"] + SDS_FLAGS + ["--tol", "1e-4"])
    assert rc == 0
    meta, _, rows = _parse_csv(out)
    assert float(meta["alias_bound"]) < 1e-4
    assert int(meta["n"]) == len(rows)


def test_pmf_rejects_non_power_of_two(capsys):
    rc, _, err = _run(capsys, ["pmf"] + SDS_FLAGS + ["--n", "100"])
    assert rc == 2 and "power of two" in err


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_deterministic_and_thread_invariant(capsys):
    argv = ["sample", "ds", "--alpha", "0.7", "--beta", "0.5", "--sigma", "1",
            "--a", "0.1", "--size", "500", "--seed", "42"]
    _, base, _ = _run(capsys, argv)
    _, again, _ = _run(capsys, argv)
    assert base == again
    _, threaded, _ = _run(capsys, argv + ["--threads", "8"])
    assert base == threaded
    _, other_seed, _ = _run(capsys, argv[:-1] + ["43"])
    assert base != other_seed


def test_sample_values_sit_on_lattice(capsys):
    rc, out, _ = _run(capsys, ["sample", "ds", "--alpha", "0.7", "--beta",
                               "0.5", "--sigma", "1", "--a", "0.1",
                               "--size", "400", "--seed", "3"])
    assert rc == 0
    _, header, rows = _parse_csv(out)
    assert header == ["value"] and len(rows) == 400
    vals = np.array([float(r[0]) for r in rows])
    assert np.array_equal(vals, 0.1 * np.round(vals / 0.1))


def test_sample_gaussian_limit_symmetric(capsys):
    rc, out, err = _run(capsys, ["sample", "sds", "--gamma", "1", "--sigma", "1",
                                 "--a", "1", "--size", "5"])
    assert rc == 0 and err == ""
    _, header, rows = _parse_csv(out)
    assert header == ["value"] and len(rows) == 5
    assert all(float(r[0]) == round(float(r[0])) for r in rows)


def test_sample_rejects_bad_requests(capsys):
    base = ["sample"] + SDS_FLAGS
    rc, _, _ = _run(capsys, base + ["--size", "-1"])
    assert rc == 2
    rc, _, _ = _run(capsys, base + ["--size", "3", "--seed", "-1"])
    assert rc == 2
    rc, _, _ = _run(capsys, base + ["--size", "3", "--threads", "0"])
    assert rc == 2


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_tails_matches_library_report(capsys):
    rc, out, _ = _run(capsys, ["tails"] + TRUNC_FLAGS
                      + ["--x-min", "3", "--x-max", "12", "--grid-points", "10",
                         "--n-max", "4096"])
    assert rc == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["x", "scaled_tail"]
    report = tail_check(TruncatedSDS(0.4, 1.0, 1.0, 8),
                        x_grid=np.linspace(3.0, 12.0, 10), n_max=4096)
    got = np.array([float(r[1]) for r in rows])
    assert np.array_equal(got, report.scaled_tail)  # %.17g round-trips exactly
    assert meta["super_linear"] == ("true" if report.super_linear else "false")
    assert float(meta["decay_exponent"]) == report.decay_exponent
    assert meta["theoretical_constant"] == ""  # no closed form here


def test_tails_partial_grid_flags_rejected(capsys):
    rc, _, err = _run(capsys, ["tails"] + TRUNC_FLAGS + ["--x-min", "3"])
    assert rc == 2 and "together" in err


def test_tails_alias_tol_outside_unit_interval_is_domain_error(capsys):
    base = ["tails", "sds", "--gamma", "0.4", "--sigma", "1", "--a", "1", "--n-max", "4096"]
    for extra in ([], ["--x-min", "10", "--x-max", "100", "--grid-points", "5"]):
        rc, _, err = _run(capsys, base + extra + ["--alias-tol", "-1"])
        assert rc == 2 and "alias_tol" in err


def test_tails_unresolvable_window_is_precision_failure(capsys):
    rc, _, err = _run(capsys, ["tails", "sds", "--gamma", "0.25", "--sigma",
                               "1", "--a", "1", "--n-max", "4096"])
    assert rc == 3 and "window" in err


@pytest.mark.parametrize("command", [["cf", "--t-max", "1"], ["sample", "--size", "10"],
                                     ["pmf", "--n", "64"]])
@pytest.mark.parametrize("family", [
    ["polylog-ds", "--alpha", "400", "--P", "1", "--Q", "0", "--a", "0.1"],
    ["sds", "--gamma", "0.5", "--sigma", "1e300", "--a", "1e-300"],
])
def test_overflowing_intensity_is_precision_failure(capsys, command, family):
    # the jump intensity is past float64: exit 3 with a message, no traceback or NaN rows
    rc, out, err = _run(capsys, command[:1] + family + command[1:])
    assert rc == 3 and "overflows float64" in err and out == ""


def test_polylog_alpha_below_float_resolution_is_precision_failure(capsys):
    # 1 + alpha rounds to 1: a precision failure that names alpha, not an invalid request
    rc, out, err = _run(capsys, ["cf", "polylog-ds", "--alpha", "1e-17", "--P", "1", "--Q", "0",
                                 "--a", "1"])
    assert rc == 3 and "alpha = 1e-17" in err and out == ""


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_matches_library_and_decreases(capsys):
    rc, out, _ = _run(capsys, ["converge", "sds", "--gamma", "0.75",
                               "--sigma", "1", "--pitches", "0.5,0.1",
                               "--points", "201"])
    assert rc == 0
    _, header, rows = _parse_csv(out)
    assert header == ["pitch", "sup_distance"]
    dists = [float(r[1]) for r in rows]
    assert dists[0] > dists[1] > 0.0
    assert dists[0] == cf_distance(SymmetricDS(0.75, 1.0, 0.5), 10.0, points=201)
    assert dists[1] == cf_distance(SymmetricDS(0.75, 1.0, 0.1), 10.0, points=201)


def test_converge_rejects_pitch_flag_conflicts(capsys):
    rc, _, err = _run(capsys, ["converge", "sds", "--gamma", "0.75",
                               "--sigma", "1", "--a", "0.5",
                               "--pitches", "0.5"])
    assert rc == 2 and "--pitches" in err
    rc, _, err = _run(capsys, ["converge", "sds", "--gamma", "0.75",
                               "--sigma", "1", "--pitches", ","])
    assert rc == 2
    rc, _, err = _run(capsys, ["converge", "sds", "--gamma", "0.75",
                               "--sigma", "1", "--pitches", "0.5,abc"])
    assert rc == 2 and "--pitches" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# prelimit
# ---------------------------------------------------------------------------

def test_prelimit_table_and_determinism(capsys):
    argv = ["prelimit"] + TRUNC_FLAGS + ["--n-values", "2,5",
                                         "--reps", "10000", "--seed", "1"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    _, header, rows = _parse_csv(out)
    assert header == ["n", "ks_stable", "ks_gaussian", "predicted_sum_variance"]
    assert [int(r[0]) for r in rows] == [2, 5]
    for r in rows:
        assert 0.0 < float(r[1]) < 1.0 and 0.0 < float(r[2]) < 1.0
    _, again, _ = _run(capsys, argv)
    assert out == again


def test_prelimit_rejects_heavy_tailed_family(capsys):
    rc, _, err = _run(capsys, ["prelimit"] + SDS_FLAGS
                      + ["--n-values", "2", "--reps", "10000"])
    assert rc == 2 and "truncated or tempered" in err


def test_prelimit_rejects_malformed_n_values(capsys):
    for bad in ("2,x", "2,2.5"):
        rc, _, err = _run(capsys, ["prelimit"] + TRUNC_FLAGS
                          + ["--n-values", bad, "--reps", "10000"])
        assert rc == 2 and "--n-values" in err and "Traceback" not in err


def test_prelimit_rejects_zero_threads(capsys):
    rc, _, err = _run(capsys, ["prelimit"] + TRUNC_FLAGS
                      + ["--n-values", "2", "--reps", "10000", "--threads", "0"])
    assert rc == 2 and "threads must be an integer >= 1" in err


# ---------------------------------------------------------------------------
# family construction and surface behavior
# ---------------------------------------------------------------------------

def test_missing_parameter_names_the_flag(capsys):
    rc, _, err = _run(capsys, ["cf", "sds", "--gamma", "0.6", "--sigma", "1"])
    assert rc == 2 and "--a" in err


def test_foreign_parameter_names_the_flag(capsys):
    rc, _, err = _run(capsys, ["cf"] + SDS_FLAGS + ["--theta1", "0.5"])
    assert rc == 2 and "--theta1" in err


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cf", "cauchy", "--sigma", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{cf,pmf,sample,tails,converge,prelimit}" in capsys.readouterr().out


def _readme_section(heading=None):
    """README.md from its `## heading` line, or from the top, to the next `## ` heading."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return (text if heading is None else text.split(f"\n## {heading}\n")[1]).split("\n## ")[0]


def test_readme_commands_parse():
    # every command of README "Command line", continuations joined, parses as written
    block = _readme_section("Command line").split("```sh\n")[1].split("```")[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dstable ")]
    assert len(commands) == 6
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])  # SystemExit on a usage error


def test_readme_family_table_is_the_cli_family_table():
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:4]]
            for line in _readme_section().splitlines()
            if line.startswith("| `")]
    assert {cli: (name, tuple(params.split(", "))) for name, cli, params in rows} == {
        cli: (cls.__name__, flags) for cli, (cls, flags) in _FAMILIES.items()}


def _child_env():
    """The environment for a child interpreter that imports this dstable."""
    src = os.path.dirname(os.path.dirname(dstable.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def _child_stdout(script):
    """stdout of `script` run in a fresh interpreter that imports this dstable."""
    return subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True).stdout


# evaluated in the child: whether any module of the scipy package has been imported
_ANY_SCIPY = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"


# neither importing the package and its CLI nor these calls load any scipy module: the
# PolylogDS CF, through its polylog series, and the stable CDF; nor do they build a cached
# Sibuya jump table, which is built on the first draw only
@pytest.mark.parametrize("call, expected", [
    ("char_fn(PolylogDS(0.8, 1.0, 0.5, 0.1), 1.0)",
     lambda: char_fn(PolylogDS(0.8, 1.0, 0.5, 0.1), 1.0)),
    ("stable_cdf(StableParams(2.0, 0.0, 1.0), 0.3)",
     lambda: stable_cdf(StableParams(2.0, 0.0, 1.0), 0.3)),
], ids=["polylog_cf", "gaussian_cdf"])
def test_calls_load_no_scipy_and_build_no_jump_table(call, expected):
    out = _child_stdout(
        "import sys\n"
        "import dstable, dstable.cli\n"
        "from dstable import sampling\n"
        "from dstable.analysis import stable_cdf\n"
        "from dstable.families import PolylogDS, StableParams, char_fn\n"
        f"value = {call}\n"
        f"print({_ANY_SCIPY}, repr(value), sampling._sibuya_table.cache_info().currsize)\n"
    )
    assert out.split() == ["False", repr(expected()), "0"]


_POLYLOG_FLAGS = ["--alpha", "0.8", "--P", "1", "--Q", "0.5", "--a", "0.1"]
_TEMPERED_FLAGS = ["--alpha", "0.7", "--beta", "0", "--sigma", "1", "--a", "0.05",
                   "--theta1", "1e-4", "--theta2", "1e-4"]
_SAMPLE_FLAGS = {
    "sds": SDS_FLAGS[1:],
    "truncated-sds": TRUNC_FLAGS[1:],
    "ds": ["--alpha", "0.7", "--beta", "0.5", "--sigma", "1", "--a", "0.1"],
    "tempered-ds": _TEMPERED_FLAGS,
    "polylog-ds": _POLYLOG_FLAGS,
    "truncated-polylog-ds": _POLYLOG_FLAGS + ["--m", "64"],
}


# no command loads scipy: every sample run, prelimit, and the PolylogDS CF in cf,
# converge and pmf
@pytest.mark.parametrize("argv", [
    *(["sample", family, *flags, "--size", "100"]
      for family, flags in _SAMPLE_FLAGS.items()),
    ["prelimit", "tempered-ds", *_TEMPERED_FLAGS, "--n-values", "10", "--reps", "10000"],
    ["cf", "polylog-ds", *_POLYLOG_FLAGS, "--points", "5"],
    ["converge", "polylog-ds", "--alpha", "0.8", "--P", "1", "--Q", "0.5",
     "--pitches", "0.5,0.1"],
    ["pmf", "polylog-ds", *_POLYLOG_FLAGS, "--n", "1024"],
], ids=[*(f"sample_{f}" for f in _SAMPLE_FLAGS), "prelimit_tempered", "cf_polylog",
        "converge_polylog", "pmf_polylog"])
def test_cli_commands_load_no_scipy(argv):
    out = _child_stdout(
        "import contextlib, io, sys\n"
        "from dstable import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        f"print(rc, {_ANY_SCIPY})\n"
    )
    assert out.split() == ["0", "False"]


def test_closed_stdout_ends_quietly():
    # `dstable cf ... | head -1`: the reader leaves early; no traceback, exit 0
    env = _child_env()
    argv = [sys.executable, "-m", "dstable.cli", "cf"] + SDS_FLAGS + ["--points", "200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"# family=sds\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc, out, _ = _run(capsys, ["cf"] + SDS_FLAGS
                      + ["--t-max", "1", "--points", "3", "--out", str(target)])
    assert rc == 0 and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("# family=sds\n")
    assert "t,real,imag" in text


def test_domain_failure_does_not_create_out_file(tmp_path, capsys):
    target = tmp_path / "never.csv"
    rc, _, _ = _run(capsys, ["cf", "sds", "--gamma", "0.6", "--sigma", "1",
                             "--out", str(target)])
    assert rc == 2 and not target.exists()


# ---------------------------------------------------------------------------
# table serialization corners
# ---------------------------------------------------------------------------

def test_csv_serialization_of_special_values():
    buf = io.StringIO()
    _write_table(buf, "csv", {"flag": True, "none": None, "x": 0.1},
                 ("v",), ([math.inf, 1.0],))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# flag=true"
    assert lines[1] == "# none="
    assert lines[2] == "# x=0.10000000000000001"
    assert lines[4] == "inf" and lines[5] == "1"


def test_json_serialization_of_special_values():
    buf = io.StringIO()
    _write_table(buf, "json", {"flag": False, "none": None},
                 ("v", "k"), ([math.inf, math.nan], np.array([3, 4], dtype=np.int64)))
    payload = json.loads(buf.getvalue())
    assert payload["meta"] == {"flag": False, "none": None}
    assert payload["rows"] == [[None, 3], [None, 4]]


def test_columnwise_writers_match_per_value_format():
    # the writers format whole columns; the reference formats value by value,
    # over more rows than one CSV block and with every special float
    rng = np.random.default_rng(5)
    n = (1 << 16) + 3
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:6] = [math.nan, math.inf, -math.inf, -0.0, 0.1, 5e-324]
    ints = rng.integers(-(1 << 62), 1 << 62, n)
    columns = (ints, floats, [0.25] * n)
    rows = list(zip(ints, floats, [0.25] * n))
    buf = io.StringIO()
    _write_table(buf, "csv", {"x": 0.5}, ("k", "v", "w"), columns)
    want = "# x=0.5\nk,v,w\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    assert buf.getvalue() == want
    buf = io.StringIO()
    _write_table(buf, "json", {}, ("k", "v", "w"), columns)
    payload = json.loads(buf.getvalue())
    assert payload["rows"] == [[_json_value(v) for v in row] for row in rows]
