"""Writes reference.json: the masses each reachable `invert` case is checked
against.

For each case, pmf_auto gives the window n it stops at; the reference is the
PMF at a window of 4 n, from char_fn on that DFT grid and numpy.fft, kept at
the central lattice points and at points spread out to the window edges.
Run from the root of a checkout after changing an `invert` case:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WIDEN = 4
CHUNK = 1 << 20


def reference_masses(families, p, n: int, k: np.ndarray) -> np.ndarray:
    big = WIDEN * n
    values = np.empty(big, dtype=complex)
    step = 2.0 * math.pi / (big * p.a)
    for lo in range(0, big, CHUNK):
        values[lo:lo + CHUNK] = families.char_fn(
            p, step * np.arange(lo, min(lo + CHUNK, big), dtype=float))
    spectrum = np.fft.fft(values)
    return spectrum[k % big].real / big


def check_points(n: int) -> np.ndarray:
    half = n // 2
    spread = np.unique(np.geomspace(1, half - 1, 96).astype(np.int64))
    return np.unique(np.concatenate([np.arange(-256, 257), spread, -spread, [-half]]))


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from dstable import families, inversion

    import cases

    refs = {}
    for case in cases.INVERT:
        if not case.reachable:
            continue
        p = cases.build_family(families, case.family, case.params)
        n = inversion.pmf_auto(lambda t: families.char_fn(p, t), p.a,
                               tol=case.tol, n_max=case.n_max).masses.size
        k = check_points(n)
        refs[case.label] = {"n": n, "n_ref": WIDEN * n, "k": k.tolist(),
                            "mass": reference_masses(families, p, n, k).tolist()}
        print(f"{case.label}: n = {n}, reference at {WIDEN * n}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
