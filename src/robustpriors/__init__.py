"""Heavy-tailed coefficient priors for conflict-robust Bayesian regression.

The package provides the prior families (standard normal, Student,
log-Pareto-tailed normal, constant-tailed normal), the joint posterior of a
linear model in unconstrained ``(beta, log sigma)`` coordinates with exact
gradients, a Hamiltonian Monte Carlo sampler, closed-form and quadrature
oracles for the reduced two-parameter study target, and numerical checks of
the prior-data conflict-resolution limits.
"""

__version__ = "0.1.0"

from .priors import CTN, LPTN, CoefficientPrior, Normal, Student
from .model import (DataError, PosteriorTarget, RegressionData, SigmaPrior,
                    load_csv, ols_fit, reduced_target, standardize)
from .oracle import (ConjugateResult, NumericalError, QuadratureResult,
                     conjugate_posterior, jeffreys_benchmark,
                     quadrature_moments)
from .sampler import (Chain, DivergenceError, HmcConfig, PosteriorSummary,
                      ess_imse, leapfrog, sample, save_chains, summarize)
from .asymptotics import (ConflictPath, RatioSeries, ScalingTrace,
                          lptn_scaling_trace, marginal_ratio_convergence,
                          posterior_limit_convergence, prior_ratio)

__all__ = [
    "__version__",
    "Normal", "Student", "LPTN", "CTN", "CoefficientPrior",
    "RegressionData", "standardize", "ols_fit", "load_csv", "DataError",
    "SigmaPrior", "PosteriorTarget", "reduced_target",
    "HmcConfig", "Chain", "PosteriorSummary", "DivergenceError",
    "leapfrog", "sample", "summarize", "ess_imse", "save_chains",
    "ConjugateResult", "QuadratureResult", "NumericalError",
    "conjugate_posterior", "jeffreys_benchmark", "quadrature_moments",
    "ConflictPath", "RatioSeries", "ScalingTrace", "prior_ratio",
    "lptn_scaling_trace", "marginal_ratio_convergence",
    "posterior_limit_convergence",
]
