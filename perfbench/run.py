"""The dstable benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {invert,sample,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src. Each
workload is a single-process closed loop: one op starts after the previous
one has finished. Sampling runs with threads=1 and DSTABLE_THREADS=1.

- invert: pmf_auto on every family, plus one case that cannot reach its tol.
- sample: sample_family on every family, with Λ from 0.9 to 7.4e3.
- cli: README commands as child processes, `python -m dstable.cli ... --out`.

With --trace 0 the result carries the end-to-end metrics: set-up time (the
median of several fresh interpreters), the wall time of one pass (median
over the passes that fit in --seconds) and the peak RSS of one pass. With
--trace 1 it carries the per-layer metrics of tracing.METRICS, from spans
recorded around the package's public functions, and the tracing overhead.
Every output is checked; a failed check counts as a failed op.
Workload-specific figures (pmf_s, verdict_s, draws_per_s.*,
high_lambda_draw_ms, rows_per_s) are printed above the result line and
kept, with the environment record, in
.perfbench/result-<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
THREAD_ENV = {"DSTABLE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Child:
    """A child process with its stdout piped, reaped by os.wait4 for its RSS."""

    def __init__(self, argv, env, stderr_path):
        self.start = time.perf_counter()
        with open(stderr_path, "ab") as err:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                         stderr=err, env=env)

    def finish(self):
        """(exit code, stdout, wall seconds, peak RSS in MB)."""
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0


def op_medians(passes) -> dict:
    """Each op's median time over the passes. Their sum is the time of one
    pass, with an op slowed by a passing disturbance counted at its median."""
    return {label: statistics.median(p[label] for p in passes) for label in passes[0]}


# ---------------------------------------------------------------------------
# invert and sample: a worker process
# ---------------------------------------------------------------------------

def run_worker(args, env, state_dir):
    import cases

    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    err_path = os.path.join(state_dir, "stderr.log")
    trace_file = os.path.join(state_dir, f"trace-{args.workload}-s{args.seed}.json")
    traced = ["--trace", "1", "--trace-file", trace_file] if args.trace else []
    child = Child(base + traced, env, err_path)
    if child.proc.stdout.readline() != b"ready\n":
        child.finish()
        raise RuntimeError(f"worker did not get ready; see {err_path}")
    setups = [time.perf_counter() - child.start]
    code, out, _, _ = child.finish()
    if code != 0:
        raise RuntimeError(f"worker exited {code}; see {err_path}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            extra = Child(base + ["--setup-only"], env, err_path)
            code, out, wall, _ = extra.finish()
            if code != 0 or out != "ready\n":
                raise RuntimeError(f"set-up run exited {code}; see {err_path}")
            setups.append(wall)

    untraced = [p["ops"] for p in result["passes"]]
    op = op_medians(untraced)
    figures = {"wall_s": sum(op.values()), "op_s": untraced}
    specs = {c.label: c for c in cases.workload_cases(args.workload, args.seed)}
    if args.workload == "invert":
        figures["pmf_s"] = sum(s for label, s in op.items() if specs[label].reachable)
        figures["verdict_s"] = sum(s for label, s in op.items()
                                   if not specs[label].reachable)
    else:
        for group in ("sibuya", "zeta"):
            labels = [c.label for c in specs.values() if c.group == group]
            figures[f"draws_per_s.{group}"] = (sum(specs[label].size for label in labels)
                                               / sum(op[label] for label in labels))
        high = next(c for c in specs.values() if c.group == "high_lambda")
        figures["high_lambda_draw_ms"] = 1e3 * op[high.label] / high.size
    outcome = {
        "attempted": result["attempted"],
        "failures": result["failures"],
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "peak_rss_mb": result["first_pass_rss_mb"],
        "figures": figures,
    }
    if args.trace:
        traced = op_medians([p["traced_ops"] for p in result["passes"]])
        outcome["overhead_frac"] = sum(traced.values()) / figures["wall_s"] - 1.0
        outcome["layers"] = result["layers"]
        outcome["trace_file"] = trace_file
    return outcome


# ---------------------------------------------------------------------------
# cli: one child process per command
# ---------------------------------------------------------------------------

def _file_digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _in_process(cli, argv):
    """(seconds, exit code) of cli.main(argv) in this interpreter."""
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return time.perf_counter() - start, code


def run_cli(args, env, state_dir):
    import cases
    import checks
    import tracing

    err_path = os.path.join(state_dir, "stderr.log")
    out_dir = os.path.join(state_dir, "cli")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    module = [sys.executable, "-m", "dstable.cli"]
    specs = cases.workload_cases("cli", args.seed)

    def path(tag, case):
        return os.path.join(out_dir, f"{tag}-{case.label}.{case.fmt}")

    setups = []
    for i in range(SETUP_REPEATS):
        code, _, wall, _ = Child(module + cases.CLI_SETUP.argv(
            os.path.join(out_dir, "setup.csv")), env, err_path).finish()
        if code != 0:
            raise RuntimeError(f"cli set-up command exited {code}; see {err_path}")
        setups.append(wall)

    passes, failures, first = [], [], {}
    attempted = 0
    begin = time.perf_counter()
    while True:
        tag = f"p{len(passes)}"
        ops = {}
        for case in specs:
            code, _, wall, rss = Child(module + case.argv(path(tag, case)),
                                       env, err_path).finish()
            ops[case.label] = {"s": wall, "exit": code, "rss_mb": rss}
            attempted += 1
        passes.append(ops)
        walls = [sum(op["s"] for op in p.values()) for p in passes]
        if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break

    # Checks, after the timed passes: the first pass against in-process
    # library calls, later passes against the first byte for byte. dstable is
    # imported only now, because a child keeps its parent's peak RSS as its
    # own starting peak across exec, so this process must stay small while
    # the children whose RSS is measured run.
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from types import SimpleNamespace

    from dstable import analysis, cli, families, inversion, sampling
    dst = SimpleNamespace(analysis=analysis, families=families,
                          inversion=inversion, sampling=sampling)
    rows = {}
    for case in specs:
        p0 = path("p0", case)
        expected = checks.cli_expected(case, dst) if case.exit_code == 0 else None
        why = checks.check_cli(case, p0, passes[0][case.label]["exit"], expected)
        if why is not None:
            failures.append(f"{case.label} pass 0: {why}")
        first[case.label] = _file_digest(p0)
        rows[case.label] = (checks.count_rows(p0, case.fmt)
                            if why is None and case.exit_code == 0 else 0)
        for i, ops in enumerate(passes[1:], start=1):
            if (ops[case.label]["exit"] != passes[0][case.label]["exit"]
                    or _file_digest(path(f"p{i}", case)) != first[case.label]):
                failures.append(f"{case.label} pass {i}: output differs from pass 0")

    times = [{label: op["s"] for label, op in p.items()} for p in passes]
    op = op_medians(times)
    delivered = [c.label for c in specs
                 if c.command in ("sample", "pmf") and c.exit_code == 0]
    figures = {
        "wall_s": sum(op.values()),
        "op_s": times,
        "rows_per_s": sum(rows[label] for label in delivered)
        / sum(op[label] for label in delivered),
    }
    outcome = {
        "attempted": attempted,
        "failures": failures,
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "peak_rss_mb": statistics.median(
            max(op["rss_mb"] for op in p.values()) for p in passes),
        "figures": figures,
    }
    if args.trace:
        child_exit = {label: op["exit"] for label, op in passes[0].items()}
        outcome.update(_trace_cli(cli, specs, path, op, child_exit, first, rows,
                                  failures, tracing, args.seed, state_dir))
        outcome["attempted"] += 2 * len(specs)
    return outcome


def _trace_cli(cli, specs, path, child_s, child_exit, first, rows, failures,
               tracing, seed, state_dir):
    """cli.main in-process with the same argv, untraced and traced back to
    back for each command, in alternating order."""
    runs = {"plain": {}, "traced": {}}
    tracer = tracing.Tracer(f"cli-{seed}-traced")
    for i, case in enumerate(specs):
        for tag in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            saved = tracer.install() if tag == "traced" else []
            try:
                runs[tag][case.label] = _in_process(cli, case.argv(path(tag, case)))
            finally:
                tracing.restore(saved)
            if (runs[tag][case.label][1] != child_exit[case.label]
                    or _file_digest(path(tag, case)) != first[case.label]):
                failures.append(f"{case.label} in-process {tag}: output differs "
                                "from the child process")
    plain = {label: s for label, (s, _) in runs["plain"].items()}
    values = tracing.layer_values(tracer.spans)
    values["cli.process_s"] = sum(child_s[label] - plain[label] for label in plain)
    values["cli.rows"] = sum(rows.values())
    values["cli.bytes"] = sum(os.path.getsize(path("p0", c)) for c in specs
                              if os.path.exists(path("p0", c)))
    trace_file = os.path.join(state_dir, f"trace-cli-s{seed}.json")
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return {
        "overhead_frac": (sum(s for s, _ in runs["traced"].values())
                          / sum(plain.values()) - 1.0),
        "layers": [{"values": values,
                    "counts": dict(tracing.call_counts(tracer.spans)),
                    "missing": tracer.missing}],
        "trace_file": trace_file,
    }


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed):
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    commit = None
    if os.path.isdir(".git"):
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **caches,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dstable benchmark: one workload, one run")
    parser.add_argument("--workload", choices=("invert", "sample", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dstable", "__init__.py")):
        print(f"perfbench: no dstable package under {src}; run from the root "
              "of a dstable checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    state_dir = os.path.join(root, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)

    run = run_cli if args.workload == "cli" else run_worker
    outcome = run(args, env, state_dir)
    if args.workload == "cli":
        shutil.rmtree(os.path.join(state_dir, "cli"), ignore_errors=True)

    # imported only now, as in run_worker and run_cli: numpy must be loaded
    # after THREAD_ENV is set, so that its BLAS starts single-threaded
    import cases
    import tracing

    failed = len(outcome["failures"])
    attempted = outcome["attempted"]
    figures = outcome["figures"] | {"failed_frac": failed / attempted}
    if args.trace:
        expected = cases.EXPECTED[args.workload]
        runs = outcome["layers"]
        values = {}
        for name, *_ in tracing.METRICS:
            got = [r["values"].get(name) for r in runs]
            values[name] = None if None in got else statistics.median(got)
        values["trace.overhead_frac"] = outcome["overhead_frac"]
        counts = runs[0]["counts"]
        missing = runs[0]["missing"]
        metrics, notes = tracing.report(values, counts, missing, expected)
    else:
        metrics = {
            "setup_s": {"value": outcome["setup_s"], "unit": "s"},
            "wall_s": {"value": figures["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": outcome["peak_rss_mb"], "unit": "MB"},
        }
        notes = {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "figures": figures, "setup_samples": outcome["setup_samples"],
        "failures": outcome["failures"], "notes": notes, "metrics": metrics,
    }
    if "trace_file" in outcome:
        record["trace_file"] = os.path.relpath(outcome["trace_file"], root)
    result_path = os.path.join(
        state_dir, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print("environment: " + json.dumps(record["environment"]))
    for name, value in figures.items():
        if not name.startswith("op_"):
            print(f"{args.workload} {name}: {value}")
    for failure in outcome["failures"]:
        print(f"FAILED {failure}")
    for name, note in notes.items():
        print(f"note {name}: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
