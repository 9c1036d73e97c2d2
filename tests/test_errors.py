import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import fksim
from fksim import operators, walker
from fksim.errors import ConfigError, DomainError, check_nonnegative
from fksim.lattice import GraphModel
from fksim.noise import iid_gaussian
from fksim.operators import PotentialSpec, Truncation

G1 = GraphModel.zd_l1(1)
SPEC = fksim.symmetric_walk(G1, 1.0)
POT = PotentialSpec()
TRUNC = Truncation.build(G1, SPEC, POT, 2)


@pytest.mark.parametrize("value, positive", [
    (0.0, False), (-0.0, False), (2.5, False), (3, False), (1e-300, True),
    (np.float64(0.5), True)])
def test_check_time_returns_an_admissible_time(value, positive):
    assert check_nonnegative(value, positive=positive) is value


@pytest.mark.parametrize("value, positive, named", [
    (math.nan, False, "t = nan is not finite"),
    (math.inf, True, "t = inf is not finite"),
    (-math.inf, False, "t = -inf is not finite"),
    (-0.5, False, "t must be >= 0, got -0.5"),
    (-0.5, True, "t must be positive, got -0.5"),
    (0.0, True, "t must be positive, got 0.0"),
    (-0.0, True, "t must be positive, got -0.0")])
def test_check_time_refuses_by_name(value, positive, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        check_nonnegative(value, positive=positive)
    with pytest.raises(DomainError, match=re.escape(named.replace(
            "t", "horizon", 1))):
        check_nonnegative(value, "horizon", positive=positive)


# One call per entry point that takes a time, with that time as t and every
# other argument valid.
_CALLS = {
    "chernoff_jump_bound": lambda t: fksim.chernoff_jump_bound(1.0, t, 3),
    "ensemble_variance": lambda t: fksim.ensemble_variance(
        G1, SPEC, POT, iid_gaussian(1.0), 2, [t], 3, 0),
    "expm_neg": lambda t: fksim.expm_neg(np.eye(2), t),
    "frozen_variance_sum": lambda t: fksim.frozen_variance_sum(
        t, G1, POT, iid_gaussian(1.0)),
    "lower_bound_sum": lambda t: fksim.lower_bound_sum(
        t, 2.0, iid_gaussian(1.0), G1),
    "mc_dirichlet_trace": lambda t: fksim.mc_dirichlet_trace(
        TRUNC, np.zeros(5), t, 10, 1),
    "multiplicity_pushforward": lambda t: fksim.multiplicity_pushforward(
        np.eye(2), t),
    "paired_walker_variance": lambda t: fksim.paired_walker_variance(
        G1, SPEC, POT, iid_gaussian(1.0), t, 10, 2, 0),
    "radius_for": lambda t: fksim.radius_for(t),
    "riemann_tail_sum": lambda t: fksim.riemann_tail_sum(t, 1.0, 2.0, G1),
    "sample_jump_counts": lambda t: fksim.sample_jump_counts(1.0, t, 10, 0),
    "sample_path": lambda t: fksim.sample_path(G1, SPEC, (0,), t, 0),
    "stay_bound": lambda t: fksim.stay_bound(1.0, 1.0, t),
    "Truncation.traces": lambda t: TRUNC.traces(np.zeros((1, 5)), [t]),
    "expm_traces": lambda t: operators.expm_traces(np.eye(2), [t]),
    "sample_walks": lambda t: walker.sample_walks(
        TRUNC, [0], t, np.random.default_rng(0))}
_TIME_PARAMS = {"t", "ts", "t_grid", "horizon"}


def _timed_entry_points():
    """Names of the public callables of ``fksim.__all__`` (and the public
    methods of its classes), ``Truncation.traces``, ``expm_traces`` and
    ``sample_walks`` that have a parameter named as a time."""
    found = {"Truncation.traces": Truncation.traces,
             "expm_traces": operators.expm_traces,
             "sample_walks": walker.sample_walks}
    for name in fksim.__all__:
        obj = getattr(fksim, name)
        if inspect.ismodule(obj) or (isinstance(obj, type)
                                     and issubclass(obj, Exception)):
            continue
        found[name] = obj
        if inspect.isclass(obj):
            found.update((f"{name}.{key}", fn) for key, fn in vars(obj).items()
                         if callable(fn) and not key.startswith("_"))
    return sorted(name for name, fn in found.items()
                  if _TIME_PARAMS & set(inspect.signature(fn).parameters))


def test_the_guard_finds_every_entry_point_that_takes_a_time():
    # A new entry point with a time parameter needs a row in _CALLS, so
    # the next test holds it to the rule.
    assert _timed_entry_points() == sorted(_CALLS)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_every_entry_point_refuses_a_nan_time(name):
    with pytest.raises(DomainError, match="nan is not finite"):
        _CALLS[name](math.nan)


# One call per public function that takes a sample count: the name of its
# count, and a call with that count as n and every other argument valid.
_COUNT_CALLS = {
    "ensemble_variance": ("m_draws", lambda n: fksim.ensemble_variance(
        G1, SPEC, POT, iid_gaussian(1.0), 2, [0.5], n, 0)),
    "mc_dirichlet_trace": ("n_paths", lambda n: fksim.mc_dirichlet_trace(
        TRUNC, np.zeros(5), 0.5, n, 1)),
    "moment_bound_probe": ("n_samples", lambda n: fksim.moment_bound_probe(
        iid_gaussian(1.0), G1, 8, n, 0)),
    "paired_walker_variance": ("n_rep", lambda n: fksim.paired_walker_variance(
        G1, SPEC, POT, iid_gaussian(1.0), 0.5, n, 2, 0)),
    "sample_jump_counts": ("n_paths", lambda n: fksim.sample_jump_counts(
        1.0, 0.5, n, 0)),
    "taylor_bound_check": ("n_samples", lambda n: fksim.taylor_bound_check(
        {(0,): 0.25}, iid_gaussian(1.0), G1, n, 0))}
_COUNT_PARAMS = {"n_paths", "n_rep", "m_draws", "n_samples"}


def _counted_functions():
    """Names of the public functions of every fksim module that have a
    parameter named as a sample count.  Classes are records and are left
    out: ``VarianceEstimate``'s ``n_samples`` is a result, not a request."""
    found = set()
    for info in pkgutil.iter_modules(fksim.__path__):
        module = importlib.import_module(f"fksim.{info.name}")
        found.update(
            name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")
            and _COUNT_PARAMS & set(inspect.signature(fn).parameters))
    return sorted(found)


def test_the_guard_finds_every_function_that_takes_a_sample_count():
    # A new function with a count parameter needs a row in _COUNT_CALLS, so
    # the next test holds it to the rule.
    assert _counted_functions() == sorted(_COUNT_CALLS)


@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_every_function_refuses_a_sample_count_of_zero_by_name(name):
    # No draw gives no evidence: mc_dirichlet_trace returned a trace with a
    # NaN SE, and moment_bound_probe a ratio of 0.0 that passes any bound.
    count, call = _COUNT_CALLS[name]
    with pytest.raises((ConfigError, DomainError), match=rf"\b{count}\b"):
        call(0)


# One call per public callable of every fksim module (a class by its
# constructor) that takes a jump rate, an exponent, a scale or a variance:
# (callable, parameter) -> a call with that parameter as x and every other
# argument valid.
_PARAM_CALLS = {
    ("NoiseModel", "beta"): lambda x: fksim.NoiseModel("power_decay", beta=x),
    ("NoiseModel", "gamma0"): lambda x: fksim.NoiseModel("iid", gamma0=x),
    ("PotentialSpec", "alpha"): lambda x: PotentialSpec(alpha=x),
    ("PotentialSpec", "kappa"): lambda x: PotentialSpec(kappa=x),
    ("chernoff_jump_bound", "q_sup"): lambda x: fksim.chernoff_jump_bound(
        x, 0.5, 3),
    ("constant_gaussian", "gamma0"): lambda x: fksim.constant_gaussian(x),
    ("iid_gaussian", "gamma0"): lambda x: fksim.iid_gaussian(x),
    ("lower_bound_sum", "delta"): lambda x: fksim.lower_bound_sum(
        0.5, x, iid_gaussian(1.0), G1),
    ("power_decay_gaussian", "beta"): lambda x: fksim.power_decay_gaussian(x),
    ("power_decay_gaussian", "gamma0"): lambda x: fksim.power_decay_gaussian(
        1.0, x),
    ("radius_for", "alpha"): lambda x: fksim.radius_for(0.5, alpha=x),
    ("radius_for", "kappa"): lambda x: fksim.radius_for(0.5, kappa=x),
    ("riemann_tail_sum", "alpha"): lambda x: fksim.riemann_tail_sum(
        0.5, 1.0, x, G1),
    ("riemann_tail_sum", "kappa"): lambda x: fksim.riemann_tail_sum(
        0.5, x, 2.0, G1),
    ("sample_jump_counts", "q"): lambda x: fksim.sample_jump_counts(
        x, 0.5, 10, 0),
    ("stay_bound", "q"): lambda x: fksim.stay_bound(1.0, x, 0.5),
    ("symmetric_walk", "q"): lambda x: fksim.symmetric_walk(G1, x)}
_RATE_PARAMS = {"q", "q_sup", "alpha", "kappa", "delta", "gamma0", "beta"}


def _rated_callables():
    """(name, parameter) for each public function and class of every fksim
    module, and each public method of those classes, that has a parameter
    named as a rate, an exponent, a scale or a variance; a class is read
    through its constructor."""
    found = {}
    for info in pkgutil.iter_modules(fksim.__path__):
        module = importlib.import_module(f"fksim.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__
                    or isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                found[name] = obj
            if inspect.isclass(obj):
                found.update((f"{name}.{key}", getattr(obj, key))
                             for key in vars(obj) if not key.startswith("_")
                             and callable(getattr(obj, key)))
    return sorted((name, param) for name, fn in found.items()
                  for param in inspect.signature(fn).parameters
                  if param in _RATE_PARAMS)


def test_the_guard_finds_every_callable_that_takes_a_rate_or_exponent():
    # A new callable with such a parameter needs a row in _PARAM_CALLS, so
    # the next test holds it to the rule.
    assert _rated_callables() == sorted(_PARAM_CALLS)


@pytest.mark.parametrize("key", sorted(_PARAM_CALLS),
                         ids=[f"{name}-{param}"
                              for name, param in sorted(_PARAM_CALLS)])
def test_every_rate_and_exponent_refuses_nan_by_name(key):
    # stay_bound returned nan, and riemann_tail_sum died on a bare "cannot
    # convert float NaN to integer".
    with pytest.raises(DomainError, match=rf"\b{key[1]} = nan is not finite"):
        _PARAM_CALLS[key](math.nan)


def test_truncation_refuses_a_nan_vertex_rate():
    # A NaN rate passed the build's "rate < 0" test into the matrices.
    spec = walker.MarkovSpec(rate=lambda v: math.nan if v == (1,) else 1.0,
                             kernel=SPEC.kernel)
    with pytest.raises(DomainError, match=re.escape(
            "rate at vertex (1,) = nan is not finite")):
        Truncation.build(G1, spec, POT, 2)


@pytest.mark.parametrize("at", [(0,), (1,)], ids=["start", "visited"])
def test_sample_path_refuses_a_nan_rate_where_it_reads_it(at):
    # Every hold at a NaN rate is NaN, so the walk never reached its horizon
    # and sample_path never returned.  The walk steps right, so it reaches
    # (1,) within the horizon at this seed.
    spec = walker.MarkovSpec(rate=lambda v: math.nan if v == at else 1.0,
                             kernel=lambda v: ([(v[0] + 1,)], [1.0]))
    with pytest.raises(DomainError, match=re.escape(
            f"rate at vertex {at} = nan is not finite")):
        fksim.sample_path(G1, spec, (0,), 50.0, 0)
