"""Rate distortion functions of sampled Gaussian sources.

The package computes the best achievable rate for reconstructing a jointly
Gaussian vector (or a stationary Gaussian field on [0, 1]) under sum MSE when
the encoder only sees a fixed subset of components, covering the known-law
curve, its universal counterparts for parametric families, sampling-set
optimization, and Monte Carlo checks of the matching two-step code.

Importing the package loads the spectral core, ``errors``, ``model`` and
``srdf``, which every front end imports.  ``srdf`` has to load here in any
case: the package's ``srdf`` is the function, and importing the submodule
later would bind the name to the module.  The names of the four front ends
(``field``, ``universal``, ``setopt``, ``simulate``) resolve on first access
(PEP 562), so a process compiles only the front ends it uses.
"""

from importlib import import_module as _import_module

# every exported name, under the module that defines it
_EXPORTS = {
    "errors": (
        "BudgetOutOfRange", "CodebookTooLarge", "ConfigParse", "DimensionMismatch", "DomainError", "EigenFailure",
        "EmptyGrid", "GridTooLarge", "IndexOutOfRange", "InfeasibleDistortion", "NoPrior", "NotPositiveDefinite",
        "NotSquare", "NotSymmetric", "NumericalError", "SingularSigmaA", "SrdfKitError", "TooManySubsets",
        "TrainingDiverged", "UnboundedBox", "UnsupportedFamily", "ValidationError",
    ),
    "model": ("CovarianceModel", "SamplingSet", "as_sampling_set", "validate_covariance"),
    "srdf": (
        "RateCurve", "Spectrum", "WaterfillSolution", "correlation_model", "distortion_rate", "max_distortion",
        "min_distortion", "single_site_min_distortion", "single_site_srdf", "srdf", "srdf_spectrum", "waterfill",
        "waterfill_inverse",
    ),
    "field": (
        "FieldModel", "FieldSamplingSet", "GaussMarkovKernel", "PlacementResult", "TabulatedKernel", "field_gram",
        "field_max_distortion", "field_min_distortion", "field_srdf", "field_srdf_spectrum",
        "gm_min_distortion_pinned", "gm_min_distortion_single", "gm_segment_explained", "optimize_placement",
    ),
    "setopt": ("SetSearchResult", "best_fixed_set"),
    "simulate": (
        "MeanCI", "SimConfig", "SimReport", "TrainedCode", "build_code", "ml_cov_estimate", "sample_gmms",
        "two_step_code", "universal_two_step",
    ),
    "universal": (
        "AmbiguityPartition", "ParamFamily", "affine_family", "atom_spectra", "bayes_usrdf", "fixed_var_corr_family",
        "nonbayes_usrdf", "project_family",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

for _module in ("errors", "model", "srdf"):
    globals().update({name: getattr(_import_module(f".{_module}", __name__), name) for name in _EXPORTS[_module]})
del _module

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A front-end module, or a name it exports, imported on first access; a name is kept here after that."""
    if name in _EXPORTS:   # importing a submodule binds it here
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
