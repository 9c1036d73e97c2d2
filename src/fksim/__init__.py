"""Simulation and verification suite for random Schrodinger operators
H = -H_X + V + xi on graphs: Monte Carlo Feynman-Kac estimators, exact
finite truncations, variance scaling laws, and a number-rigidity predictor.

The command-line driver is ``fksim.cli`` (``python -m fksim``); it is not
imported here, so that ``python -m fksim.cli`` runs it without a warning.
"""

from .errors import ConfigError, DomainError, InputError, NumericalError
from .lattice import GraphModel
from .noise import (NoiseModel, constant_gaussian, covariance, iid_gaussian,
                    moment_bound_probe, power_decay_gaussian, sample_field,
                    taylor_bound_check, variance_at_origin)
from .operators import (PotentialSpec, assemble, expm_neg,
                        multiplicity_pushforward, spectrum,
                        trace_identity_residual)
from .walker import (MarkovSpec, PathRecord, chernoff_jump_bound,
                     sample_jump_counts, sample_path, symmetric_walk,
                     validate_markov_spec)
from .feynman_kac import (TraceEstimate, VarianceEstimate, ensemble_variance,
                          exact_dirichlet_trace, frozen_variance_sum,
                          lower_bound_sum, mc_dirichlet_trace,
                          paired_walker_variance, radius_for, riemann_tail_sum)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.2.0"
