"""The cases each workload runs, and the order a seed puts them in.

Family parameters are fixed, so that `reference.json` can hold the masses the
`invert` cases are checked against. The seed sets the RNG seeds of the
sampling cases and CLI commands, and the order of the CLI commands. The
in-process workloads keep one order: glibc's allocator carries its state
from op to op, so their peak RSS would move by 10% with the order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# constructor argument order of each family, as the CLI flags name them
CTOR_FLAGS = {
    "sds": ("gamma", "sigma", "a"),
    "truncated-sds": ("gamma", "sigma", "a", "m"),
    "ds": ("alpha", "beta", "sigma", "a"),
    "tempered-ds": ("alpha", "beta", "sigma", "a", "theta1", "theta2"),
    "polylog-ds": ("alpha", "P", "Q", "a"),
    "truncated-polylog-ds": ("alpha", "P", "Q", "a", "m"),
}
CLASS_NAME = {
    "sds": "SymmetricDS",
    "truncated-sds": "TruncatedSDS",
    "ds": "DiscreteStable",
    "tempered-ds": "TemperedDS",
    "polylog-ds": "PolylogDS",
    "truncated-polylog-ds": "TruncatedPolylogDS",
}


def build_family(families, family: str, params: tuple):
    """The dstable parameter object for CLI family name `family`."""
    return getattr(families, CLASS_NAME[family])(*params)


@dataclass(frozen=True)
class InvertCase:
    label: str
    family: str
    params: tuple
    tol: float
    n_max: int
    reachable: bool = True


# The windows are kept small enough for one pass to take about 5 s on a
# 2-CPU Xeon, so that several passes fit in a run: DS stops at 2^20 rather
# than 2^22, PolylogDS at 2^16 rather than 2^18, and TruncatedPolylogDS has
# m = 1024 rather than 2048.
INVERT = (
    # closed-form CF, window 2^17
    InvertCase("sds", "sds", (0.6, 1.0, 0.1), 1e-5, 1 << 24),
    # doubles up to 2^20: the transform and memory dominate
    InvertCase("ds", "ds", (0.7, 0.5, 1.0, 0.1), 3e-4, 1 << 24),
    # polylog_unit on a 2^16 grid
    InvertCase("polylog", "polylog-ds", (0.8, 1.0, 0.5, 0.1), 2.5e-3, 1 << 24),
    # O(N m) finite sum, window 2^13
    InvertCase("tpolylog", "truncated-polylog-ds", (0.8, 1.0, 0.5, 0.1, 1024),
               1e-9, 1 << 24),
    # light tails reach tol at n <= 4096: the fixed cost of a call
    InvertCase("tempered", "tempered-ds", (0.7, 0.0, 1.0, 0.05, 0.5, 0.5),
               1e-9, 1 << 24),
    InvertCase("tsds", "truncated-sds", (0.4, 1.0, 1.0, 8), 1e-9, 1 << 24),
    # unreachable: about 1.4 s of doublings before PrecisionError
    InvertCase("ds_unreachable", "ds", (0.7, 0.5, 1.0, 0.1), 1e-6, 1 << 20,
               reachable=False),
)


@dataclass(frozen=True)
class SampleCase:
    label: str
    family: str
    params: tuple
    size: int
    group: str  # "sibuya", "zeta" or "high_lambda"
    rng_seed: int = 0


# Λ spans four decades. The sizes give a pass of about 4.5 s at 1 thread on
# a 2-CPU Xeon, so that several passes fit in a run.
SAMPLE = (
    SampleCase("sds_lam24", "sds", (0.6, 1.0, 0.1), 65536, "sibuya"),
    SampleCase("sds_lam1.5", "sds", (0.6, 1.0, 1.0), 262144, "sibuya"),
    SampleCase("tsds", "truncated-sds", (0.4, 1.0, 1.0, 8), 262144, "sibuya"),
    SampleCase("ds", "ds", (0.7, 0.5, 1.0, 0.1), 65536, "sibuya"),
    SampleCase("tempered", "tempered-ds", (0.7, 0.0, 1.0, 0.05, 0.5, 0.5),
               65536, "sibuya"),
    SampleCase("polylog", "polylog-ds", (0.8, 1.0, 0.5, 0.1), 131072, "zeta"),
    SampleCase("tpolylog", "truncated-polylog-ds", (0.8, 1.0, 0.5, 0.1, 64),
               131072, "zeta"),
    # Λ ≈ 7.4e3, 2.5-4 ms per draw
    SampleCase("sds_high_lambda", "sds", (0.9, 1.0, 0.01), 300, "high_lambda"),
)


@dataclass(frozen=True)
class CliCase:
    label: str
    command: str
    family: str
    flags: tuple      # ((flag, value), ...) family parameters given
    options: tuple    # further argv after the family flags
    exit_code: int = 0
    fmt: str = "csv"

    def argv(self, out_path: str) -> list:
        argv = [self.command, self.family]
        for flag, value in self.flags:
            argv += [f"--{flag}", str(value)]
        argv += list(self.options)
        if self.fmt != "csv":
            argv += ["--format", self.fmt]
        return argv + ["--out", out_path]

    def option(self, name: str) -> str:
        return self.options[self.options.index(name) + 1]


def _cli(seed: int) -> tuple:
    rnd = random.Random(f"cli-{seed}")
    sample_seed, prelimit_seed = rnd.randrange(1 << 31), rnd.randrange(1 << 31)
    sds = (("gamma", 0.6), ("sigma", 1.0))
    ds = (("alpha", 0.7), ("beta", 0.5), ("sigma", 1.0), ("a", 0.1))
    return (
        CliCase("cf_sds", "cf", "sds", sds + (("a", 0.5),), ("--t-max", "10")),
        CliCase("pmf_sds", "pmf", "sds", sds + (("a", 0.1),), ("--tol", "1e-5")),
        CliCase("sample_ds_csv", "sample", "ds", ds,
                ("--size", "65536", "--seed", str(sample_seed))),
        CliCase("sample_ds_json", "sample", "ds", ds,
                ("--size", "65536", "--seed", str(sample_seed)), fmt="json"),
        # a single fixed-window inversion, 2^21 rather than the default 2^22
        CliCase("tails_sds", "tails", "sds",
                (("gamma", 0.4), ("sigma", 1.0), ("a", 1.0)),
                ("--n-max", "2097152")),
        # the CF at arbitrary t, off the DFT grid
        CliCase("converge_sds", "converge", "sds",
                (("gamma", 0.75), ("sigma", 1.0)), ("--pitches", "0.5,0.1,0.02")),
        CliCase("converge_polylog", "converge", "polylog-ds",
                (("alpha", 0.8), ("P", 1.0), ("Q", 0.5)),
                ("--pitches", "0.5,0.1,0.02")),
        # the skewed target sends stable_cdf down the Gil-Pelaez branch
        CliCase("prelimit_tempered", "prelimit", "tempered-ds",
                (("alpha", 0.7), ("beta", 0.0), ("sigma", 1.0), ("a", 0.05),
                 ("theta1", 1e-4), ("theta2", 1e-4)),
                ("--n-values", "10", "--reps", "10000",
                 "--seed", str(prelimit_seed))),
        # the README example, bounded by --n-max: must exit 3
        CliCase("pmf_ds_unreachable", "pmf", "ds", ds,
                ("--tol", "1e-6", "--n-max", "524288"), exit_code=3),
    )


# the per-call fixed cost that `setup_s` times on the cli workload
CLI_SETUP = CliCase("setup", "cf", "sds",
                    (("gamma", 0.6), ("sigma", 1.0), ("a", 0.5)),
                    ("--points", "11"))


def workload_cases(workload: str, seed: int) -> list:
    """The workload's cases, with their seeds, in the order they run."""
    if workload == "invert":
        return list(INVERT)
    if workload == "sample":
        rnd = random.Random(f"sample-{seed}")
        return [SampleCase(c.label, c.family, c.params, c.size, c.group,
                           rnd.randrange(1 << 63)) for c in SAMPLE]
    cases = list(_cli(seed))
    random.Random(f"order-cli-{seed}").shuffle(cases)
    return cases


# Wrapped public functions that each workload is expected to call. A layer
# metric whose function is expected here and recorded no call is reported
# as unmeasured rather than as zero.
EXPECTED = {
    "invert": {"families.char_fn", "special.polylog_unit",
               "inversion.pmf_from_cf", "inversion.pmf_auto"},
    "sample": {"sampling.sample_family", "sampling.sample_poisson",
               "sampling.sample_sibuya", "sampling.sample_tempered_sibuya",
               "sampling.sample_zeta"},
    "cli": {"families.char_fn", "special.polylog_unit",
            "inversion.pmf_from_cf", "inversion.pmf_auto",
            "sampling.sample_family", "sampling.sample_poisson",
            "sampling.sample_sibuya", "sampling.sample_tempered_sibuya",
            "analysis.tail_check", "analysis.cf_distance",
            "analysis.prelimit_experiment", "analysis.stable_cdf",
            "analysis.ks_statistic", "quadrature.tanh_sinh", "cli.main"},
}
