"""Lattice-valued heavy-tailed distributions: exact characteristic functions,
compound-Poisson samplers, Fourier-inversion PMFs, and convergence diagnostics.

Six families live on the lattice aZ: a symmetric power-tail family, its
jump-truncated variant, a skewed discrete-stable family, its exponentially
tempered variant, and a polylogarithmic pair. Each exposes an exact CF, a
jump decomposition, exact samplers, and inversion-based PMFs, plus the
verification experiments that tie them to their continuous stable limits.
"""

from .analysis import (
    PrelimitReport,
    TailReport,
    binned_tv,
    cf_distance,
    ks_statistic,
    prelimit_experiment,
    sample_moments,
    stable_cdf,
    tail_check,
    tail_constant_theoretical,
)
from .errors import DomainError, InversionError, PrecisionError
from .families import (
    AttractionTarget,
    CompoundPoissonView,
    DiscreteStable,
    FamilyParams,
    PolylogDS,
    StableParams,
    SymmetricDS,
    TemperedDS,
    TruncatedPolylogDS,
    TruncatedSDS,
    char_fn,
    compound_poisson_view,
    derived_intensities,
    levy_weight,
    stable_cf,
    target_stable,
)
from .inversion import LatticePMF, cdf_from_pmf, pmf_auto, pmf_from_cf, tail_prob
from .sampling import (
    RngState,
    sample_family,
    sample_poisson,
    sample_sibuya,
    sample_tempered_sibuya,
    sample_zeta,
)
from .special import (
    polylog_unit,
    riemann_zeta,
    sibuya_pmf,
    sibuya_survival,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "InversionError",
    "PrecisionError",
    # families
    "AttractionTarget",
    "CompoundPoissonView",
    "DiscreteStable",
    "FamilyParams",
    "PolylogDS",
    "StableParams",
    "SymmetricDS",
    "TemperedDS",
    "TruncatedPolylogDS",
    "TruncatedSDS",
    "char_fn",
    "compound_poisson_view",
    "derived_intensities",
    "levy_weight",
    "stable_cf",
    "target_stable",
    # special functions
    "polylog_unit",
    "riemann_zeta",
    "sibuya_pmf",
    "sibuya_survival",
    # inversion
    "LatticePMF",
    "cdf_from_pmf",
    "pmf_auto",
    "pmf_from_cf",
    "tail_prob",
    # sampling
    "RngState",
    "sample_family",
    "sample_poisson",
    "sample_sibuya",
    "sample_tempered_sibuya",
    "sample_zeta",
    # analysis
    "PrelimitReport",
    "TailReport",
    "binned_tv",
    "cf_distance",
    "ks_statistic",
    "prelimit_experiment",
    "sample_moments",
    "stable_cdf",
    "tail_check",
    "tail_constant_theoretical",
]
