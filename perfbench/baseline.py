"""One-shot baseline: reproduces the rows of the ROADMAP *Baseline* that fit
a 2-CPU box, and prints each row's ratio to the ROADMAP figure.

    python3 perfbench/baseline.py      # from the root of a checkout

Not a workload and not gated. Takes about 4 minutes and up to 1.7 GB (the
README `pmf ds` example). Skips the 373 s `pmf polylog-ds` run and the
4-thread rows, and says so. Writes .perfbench/baseline.json.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

from run import THREAD_ENV, Child, environment

# (row, ROADMAP seconds or None)
ROADMAP = {
    "char_fn 2^22 SymmetricDS": 0.27,
    "char_fn 2^22 TruncatedSDS": 1.3,
    "char_fn 2^22 DiscreteStable": 2.0,
    "char_fn 2^22 TemperedDS": 2.2,
    "char_fn 2^22 PolylogDS": 45.0,
    "char_fn 2^22 TruncatedPolylogDS": 15.0,
    "pmf_from_cf self time 2^22": 2.05,
    "numpy.fft.fft 2^22": 0.29,
    "sample 10^6 SymmetricDS(a=0.1, Λ=24)": 24.6,
    "sample 10^6 DiscreteStable": 7.6,
    "sample 10^6 TemperedDS": 7.2,
    "sample 10^6 TruncatedSDS": 3.0,
    "sample 10^6 PolylogDS": 2.4,
    "sample 10^6 TruncatedPolylogDS": 2.6,
    "sample per draw SymmetricDS(0.9, 1, a=0.001)": 0.26,
    "cli sample ds --size 1000000 (csv)": 11.6,
    "cli sample ds --size 1000000 --format json": None,
    "cli pmf ds --tol 1e-6 (exit 3)": 28.0,
    "cli tails sds --gamma 0.4": 4.2,
}
SKIPPED = (
    "cli pmf polylog-ds --tol 1e-6: 373 s to exit 3, too long for a one-shot run",
    "4-thread sampling rows: 4 threads is more than nproc = 2",
)
N = 1 << 22


def main() -> int:
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    import numpy as np

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from dstable import families, inversion, sampling

    rows = []

    def row(name, seconds, extra=""):
        ref = ROADMAP[name]
        ratio = f"{seconds / ref:6.2f}x" if ref else "      —"
        shown = f"{ref:8.2f}" if ref else "       —"
        rows.append({"row": name, "s": seconds, "roadmap_s": ref, "note": extra})
        print(f"{name:48s} {seconds:9.3f} s  roadmap {shown} s  ratio {ratio} {extra}",
              flush=True)

    def timed(fn):
        start = time.perf_counter()
        out = fn()
        return time.perf_counter() - start, out

    # The CLI rows run first: a child keeps its parent's peak RSS as its own
    # starting peak across exec, so the parent must still be small.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    state_dir = os.path.join(root, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    out = os.path.join(state_dir, "baseline-out")
    ds = ["--alpha", "0.7", "--beta", "0.5", "--sigma", "1", "--a", "0.1"]
    commands = [
        ("cli sample ds --size 1000000 (csv)",
         ["sample", "ds", *ds, "--size", "1000000", "--seed", "42"]),
        ("cli sample ds --size 1000000 --format json",
         ["sample", "ds", *ds, "--size", "1000000", "--seed", "42", "--format", "json"]),
        ("cli pmf ds --tol 1e-6 (exit 3)", ["pmf", "ds", *ds, "--tol", "1e-6"]),
        ("cli tails sds --gamma 0.4",
         ["tails", "sds", "--gamma", "0.4", "--sigma", "1", "--a", "1"]),
    ]
    for name, argv in commands:
        code, _, wall, rss = Child([sys.executable, "-m", "dstable.cli", *argv,
                                    "--out", out], env,
                                   os.path.join(state_dir, "stderr.log")).finish()
        row(name, wall, f"exit {code}, peak RSS {rss:.0f} MB")
    if os.path.exists(out):
        os.remove(out)

    grid = [
        families.SymmetricDS(0.6, 1.0, 0.1),
        families.TruncatedSDS(0.6, 1.0, 0.1, 64),
        families.DiscreteStable(0.7, 0.5, 1.0, 0.1),
        families.TemperedDS(0.7, 0.0, 1.0, 0.1, 0.5, 0.5),
        families.PolylogDS(0.8, 1.0, 0.5, 0.1),
        families.TruncatedPolylogDS(0.8, 1.0, 0.5, 0.1, 64),
    ]
    t = 2.0 * math.pi / (N * 0.1) * np.arange(N, dtype=float)
    values = None
    for p in grid:
        seconds, values = timed(lambda: families.char_fn(p, t))
        row(f"char_fn 2^22 {type(p).__name__}", seconds)
    # the CF is precomputed, so the time is pmf_from_cf's own
    seconds, _ = timed(lambda: inversion.pmf_from_cf(lambda _t: values, 0.1, N))
    row("pmf_from_cf self time 2^22", seconds)
    seconds, _ = timed(lambda: np.fft.fft(values))
    row("numpy.fft.fft 2^22", seconds)
    del t, values

    draws = [
        ("SymmetricDS(a=0.1, Λ=24)", families.SymmetricDS(0.6, 1.0, 0.1)),
        ("DiscreteStable", families.DiscreteStable(0.7, 0.5, 1.0, 0.1)),
        ("TemperedDS", families.TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5)),
        ("TruncatedSDS", families.TruncatedSDS(0.4, 1.0, 1.0, 8)),
        ("PolylogDS", families.PolylogDS(0.8, 1.0, 0.5, 0.1)),
        ("TruncatedPolylogDS", families.TruncatedPolylogDS(0.8, 1.0, 0.5, 0.1, 64)),
    ]
    for name, p in draws:
        seconds, _ = timed(lambda: sampling.sample_family(
            p, sampling.RngState(1), 10**6, threads=1))
        row(f"sample 10^6 {name}", seconds)
    size = 4
    seconds, _ = timed(lambda: sampling.sample_family(
        families.SymmetricDS(0.9, 1.0, 0.001), sampling.RngState(1), size, threads=1))
    row("sample per draw SymmetricDS(0.9, 1, a=0.001)", seconds / size,
        f"({size} draws)")

    for skipped in SKIPPED:
        print(f"skipped: {skipped}")
    with open(os.path.join(state_dir, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(None), "rows": rows,
                   "skipped": list(SKIPPED)}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
