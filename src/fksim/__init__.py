"""Simulation and verification suite for random Schrodinger operators
H = -H_X + V + xi on graphs: Monte Carlo Feynman-Kac estimators, exact
finite truncations, variance scaling laws, and a number-rigidity predictor.

The command-line driver is ``fksim.cli`` (``python -m fksim``); it is not
imported here, so that ``python -m fksim.cli`` runs it without a warning.
"""

from .errors import ConfigError, DomainError, InputError, NumericalError
from .lattice import GraphModel
from .noise import (FieldSample, NoiseModel, constant_gaussian, covariance,
                    covariance_series, exp_cov_gaussian, gaussian_moment,
                    iid_gaussian, moment_bound_probe, power_decay_gaussian,
                    sample_field, taylor_bound_check, variance_at_origin)
from .operators import (OperatorAssembly, PotentialSpec, SpectrumResult,
                        assemble, dump_matrix, expm_neg, load_matrix,
                        multiplicity_pushforward, omega0, spectrum,
                        trace_identity_residual)
from .walker import (MarkovSpec, PathRecord, chernoff_jump_bound,
                     sample_jump_counts, sample_path, stay_probability,
                     symmetric_walk, validate_markov_spec)
from .feynman_kac import (PairedSample, TraceEstimate, VarianceEstimate,
                          ensemble_variance, exact_dirichlet_trace,
                          frozen_variance_sum, lower_bound_sum, mc_kernel,
                          mc_dirichlet_trace, min_range_distance,
                          paired_sample, paired_walker_variance, radius_for,
                          riemann_tail_sum)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.2.0"
