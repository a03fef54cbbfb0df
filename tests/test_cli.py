"""Command-line behavior: table formats, family construction from flags,
agreement with the library calls, determinism, and exit codes."""

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dstable
from dstable.analysis import cf_distance, tail_check
from dstable.cli import _write_table, main
from dstable.families import SymmetricDS, TruncatedSDS, char_fn

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
    rc, _, err = _run(capsys, ["cf"] + SDS_FLAGS + ["--t-max", "0"])
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

def test_sample_deterministic_and_thread_invariant(capsys, monkeypatch):
    argv = ["sample", "ds", "--alpha", "0.7", "--beta", "0.5", "--sigma", "1",
            "--a", "0.1", "--size", "500", "--seed", "42"]
    _, base, _ = _run(capsys, argv)
    _, again, _ = _run(capsys, argv)
    assert base == again
    _, threaded, _ = _run(capsys, argv + ["--threads", "8"])
    assert base == threaded
    monkeypatch.setenv("DSTABLE_THREADS", "8")
    _, via_env, _ = _run(capsys, argv)
    assert base == via_env
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


def test_sample_env_threads_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("DSTABLE_THREADS", "many")
    rc, _, err = _run(capsys, ["sample"] + SDS_FLAGS + ["--size", "3"])
    assert rc == 2 and "DSTABLE_THREADS" in err


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


def test_tails_unresolvable_window_is_precision_failure(capsys):
    rc, _, err = _run(capsys, ["tails", "sds", "--gamma", "0.25", "--sigma",
                               "1", "--a", "1", "--n-max", "4096"])
    assert rc == 3 and "window" in err


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


def test_closed_stdout_ends_quietly():
    # `dstable cf ... | head -1`: the reader leaves early; no traceback, exit 0
    src = os.path.dirname(os.path.dirname(dstable.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
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
                 ("v",), [(math.inf,), (1.0,)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# flag=true"
    assert lines[1] == "# none="
    assert lines[2] == "# x=0.10000000000000001"
    assert lines[4] == "inf" and lines[5] == "1"


def test_json_serialization_of_special_values():
    buf = io.StringIO()
    _write_table(buf, "json", {"flag": False, "none": None},
                 ("v",), [(math.inf,), (math.nan,), (np.int64(3),)])
    payload = json.loads(buf.getvalue())
    assert payload["meta"] == {"flag": False, "none": None}
    assert payload["rows"] == [[None], [None], [3]]
