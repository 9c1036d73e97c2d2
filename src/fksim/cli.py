"""Command-line driver: config parsing, variance sweeps with exponent fits,
the rigidity-predictor demonstration, jump-tail checks, and spectral checks.

Configs are flat key=value text files ('#' starts a comment).  Each
subcommand declares the keys it reads once, with their types and defaults
(``_COMMANDS``).  Every CSV begins with a '# config_hash=...' line: a hash of
the effective configuration (defaults included, values typed) and the
package version, so outputs are traceable to their inputs.  Usage:
``fksim COMMAND --config PATH [--seed N] [--out PATH]``, where only a
subcommand that writes a CSV takes ``--out``; a time key (``t``,
``t_grid``) must be finite and positive.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from math import isfinite, ldexp, nan, sqrt

import numpy as np

from .errors import ConfigError, DomainError, check_nonnegative
from .lattice import GraphModel
from .noise import NoiseModel, sample_field, sample_fields
from .operators import PotentialSpec, Truncation, expm_traces
from .feynman_kac import (ensemble_variance, frozen_variance_sum,
                          mc_dirichlet_trace, radius_for, stay_bound)
from .walker import chernoff_jump_bound, sample_jump_counts, symmetric_walk


def parse_config(path):
    """Flat key=value file.  A key set twice is refused, naming the line
    that sets it again: no later value overrides an earlier one."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, "
                                  f"got {raw.strip()!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key in "
                                  f"{raw.strip()!r}")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} is "
                                  f"set twice")
            out[key] = val.strip()
    return out


def effective_config(command, cfg):
    """The typed values ``command`` runs with: each key it declares, read
    from ``cfg`` or else its default (a key with neither is left out).  The
    one gate of a config: it refuses an undeclared key, a value that its
    type refuses (it does not parse, a float is not finite, or a time is
    not positive and finite) or below its least value, and an inert key
    (``_INERT``).
    Applied to its own output it changes nothing."""
    keys = _COMMANDS[command][3]
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {command}: "
                          + ", ".join(map(repr, unknown)))
    out = {}
    for key, (cast, default, *least) in keys.items():
        if key not in cfg:
            if default is not None:
                out[key] = default
            continue
        try:
            out[key] = cast(cfg[key])
        except ValueError as err:
            raise ConfigError(f"config key {key!r} = {cfg[key]!r}: "
                              f"{err}") from None
        if least and out[key] < least[0]:
            raise ConfigError(f"config key {key!r} must be >= {least[0]}")
    for key, partner, inert in _INERT:
        if key in out and out[key] != keys[key][1] and inert(out.get(partner)):
            raise ConfigError(f"config key {key!r} changes nothing with "
                              f"{partner} = {out.get(partner)!r}")
    return out


def config_hash(cfg):
    """Hash of a config and the package version.  Given the effective
    config, a default written out or left out hashes alike."""
    from . import __version__
    canon = "\n".join([f"version={__version__}"]
                      + [f"{k}={cfg[k]!r}" for k in sorted(cfg)])
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _graph_from(cfg):
    kind = cfg["graph"]
    if kind == "edge_list":
        if "graph_file" not in cfg:
            raise ConfigError("missing config key 'graph_file'")
        return GraphModel.from_edge_list(cfg["graph_file"])
    if kind == "zd_l1":
        return GraphModel.zd_l1(cfg["d"])
    if kind == "zd_linf":
        return GraphModel.zd_linf(cfg["d"])
    raise ConfigError(f"unknown graph kind {kind!r}")


def _model_from(cfg):
    """The graph, noise model, potential and walk a config describes.  The
    model types refuse a bad value, and a beta on noise that has none."""
    graph = _graph_from(cfg)
    return (graph, NoiseModel(cfg["noise"], cfg["gamma0"], cfg.get("beta")),
            PotentialSpec(alpha=cfg["alpha"], kappa=cfg["kappa"],
                          mu=cfg["mu"]),
            symmetric_walk(graph, cfg["q"]))


def _finite(value):
    """A float key's value: NaN and infinities are refused."""
    out = float(value)
    if not isfinite(out):
        raise ValueError(f"{out!r} is not finite")
    return out


def _time(value):
    """A positive time (at t = 0 a trace identity reads n = n and a jump
    tail has no row)."""
    return check_nonnegative(float(value), positive=True)


def _times(value):
    """A nonempty whitespace-separated list of times, or a parsed one."""
    out = tuple(map(_time, value.split() if isinstance(value, str)
                    else value))
    if not out:
        raise ValueError("empty list")
    return out


def _fmt(x):
    return "" if x is None else repr(float(x))


# -- exponent fitting -----------------------------------------------------------


def fit_exponent(rows):
    """OLS fit of log value against log t: (slope, 95% CI half-width, R^2).

    A non-finite or non-positive t or value is refused, naming its row, and
    so are rows that share one log t (sxx = 0): no fit is NaN.
    """
    if len(rows) < 4:
        raise DomainError(f"exponent fit needs >= 4 rows, got {len(rows)}")
    for i, (t, v) in enumerate(rows):
        check_nonnegative(v, f"row {i}: value", positive=True)
        check_nonnegative(t, f"row {i}: t", positive=True)
    x = np.log([t for t, _ in rows])
    y = np.log([v for _, v in rows])
    if x.min() == x.max():
        raise DomainError(f"every row has log t = {float(x[0])!r}: the "
                          "slope is undefined (sxx = 0)")
    n = len(rows)
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    se = sqrt(ss_res / (n - 2) / sxx)
    # stdtrit is the t quantile that scipy.stats.t.ppf evaluates.  It is
    # imported here, so that scipy.special loads only when a slope is fitted
    # (sweep-variance) and the other subcommands start on numpy alone.
    from scipy.special import stdtrit
    ci = float(stdtrit(n - 2, 0.975)) * se
    return slope, ci, r2


# -- sweep-variance --------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    rows: tuple        # (t, frozen, ens_var, ens_se, lower, radius)
    slope: float
    slope_ci: float
    r_squared: float
    passed: bool


def sweep_variance(cfg):
    """Frozen sums, their fitted exponent and ensemble variances on the grid.
    A grid t whose t or radius leaves the floats, whose sum
    ``frozen_variance_sum`` refuses (a term, FFT or pair cap, a sum outside
    the normal floats), or whose lower bound ``stay_bound`` refuses, is
    refused as ``t_exp_min`` for the first t, else ``t_exp_max``."""
    cfg = effective_config("sweep-variance", cfg)
    k_min, k_max = cfg["t_exp_min"], cfg["t_exp_max"]
    if k_max - k_min < 3:   # refused before any sum or ensemble runs
        raise ConfigError(f"t_exp_min = {k_min} and t_exp_max = {k_max} give "
                          "fewer than the 4 t values the exponent fit needs")
    graph, model, pot, spec = _model_from(cfg)
    m_draws = cfg["ensemble"]
    if m_draws != 0 and m_draws < 3:
        raise ConfigError("ensemble must be 0 (off) or at least 3 (the "
                          "jackknife SE divides by ensemble - 2)")
    if model.gamma0 == 0.0:
        raise ConfigError("gamma0 = 0 makes every frozen sum 0, so there is "
                          "no exponent to fit")

    def refuse(k, why):
        key = "t_exp_min" if k == k_min else "t_exp_max"
        return ConfigError(f"{key} = {cfg[key]} reaches t = 2^{-k}: {why}")

    # t = 2^-k.  Every cap grows with the box and radius_for is convex in t,
    # so the widest box is at a grid end: the ends are summed first, and an
    # oversized grid is refused after at most two sums.
    done = {}
    for k in (k_min, k_max, *range(k_min + 1, k_max)):
        try:
            t = ldexp(1.0, -k)
            radius = radius_for(t, pot.alpha, pot.kappa)
            frozen = frozen_variance_sum(t, graph, pot, model)
        except OverflowError:
            why = "t or its certified radius leaves the floats"
        except DomainError as err:
            why = err
        else:
            done[k] = (t, frozen, radius)
            continue
        raise refuse(k, why)
    # The lower column is checked once every sum is taken, the ends first.
    for k, (t, frozen, radius) in done.items():
        try:
            done[k] = (t, frozen, stay_bound(frozen, cfg["q"], t), radius)
        except DomainError as err:
            raise refuse(k, err) from None
    ts, frozen, lower, certified = zip(*(done[k] for k in sorted(done)))
    radii, ens = certified, [(None, None)] * len(ts)
    if m_draws:
        # One ball and one draw of members serve every t: the radius key,
        # or else the largest certified radius of the grid (radius_for is
        # not monotone in t: its walker allowance grows with t).
        radius = cfg.get("radius", max(certified))
        radii = [radius] * len(ts)
        ens = [(e.value, e.stderr) for e in ensemble_variance(
            graph, spec, pot, model, radius, ts, m_draws, cfg["seed"])]
        below = [t for t, c in zip(ts, certified) if radius < c]
        if below:
            print(f"warning: radius {radius} is below radius_for(t) at "
                  f"t = {', '.join(map(_fmt, below))}; frozen and lower are "
                  f"summed over the certified box and need not bound those "
                  f"rows' ens_var", file=sys.stderr)
    rows = [(t, f, var, se, lo, r)
            for t, f, lo, (var, se), r in zip(ts, frozen, lower, ens, radii)]

    slope, ci, r2 = fit_exponent([(t, f) for t, f, *_ in rows])
    expect = cfg.get("expect_slope")
    passed = expect is None or abs(slope - expect) <= 0.1
    return SweepResult(rows=tuple(rows), slope=slope, slope_ci=ci,
                       r_squared=r2, passed=passed)


def _write_sweep_csv(result, cfg, out):
    out.write(f"# config_hash={config_hash(cfg)}\n")
    out.write("t,frozen,ens_var,ens_se,lower,radius\n")
    for t, frozen, ens_var, ens_se, lower, radius in result.rows:
        out.write(f"{_fmt(t)},{_fmt(frozen)},{_fmt(ens_var)},"
                  f"{_fmt(ens_se)},{_fmt(lower)},{radius}\n")


# -- rigidity-demo ----------------------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    t_grid: tuple
    mean_statistic: tuple   # ensemble mean of sum m e^{-t lambda}, per t
    mae: tuple              # mean |rounded predictor - true inside count|
    cut: float
    empty_b: bool
    passed: bool


def rigidity_demo(cfg):
    """Predict the inside-B eigenvalue count from outside data only.

    The predictor is (plug-in ensemble mean of the full exponential linear
    statistic) minus the member's outside-of-B statistic; B is the
    half-plane {Re lambda <= cut}, and a spectrum with imaginary parts above
    roundoff is refused.  The exact expectation is unavailable, so
    the ensemble mean stands in for it.  An eigenvalue within roundoff,
    1e-12 (1 + max |lambda|), of the cut counts as outside B: a cut at an
    eigenvalue that every member shares (the mean of equal values may round
    one ulp off) then puts that eigenvalue on the same side in every member.
    """
    cfg = effective_config("rigidity-demo", cfg)
    graph, model, pot, spec = _model_from(cfg)
    trunc = Truncation.build(graph, spec, pot, cfg["radius"])
    dim = len(trunc.vertices)
    if dim > 400:
        raise DomainError(f"spectrum dimension {dim} exceeds the 400 cap")
    cut, idx = cfg.get("cut_value"), cfg["cut_index"]
    if cut is None and not 1 <= idx <= dim:
        raise ConfigError(f"cut_index {idx} outside 1..{dim}")
    # members x dim, ascending real parts
    eigs = trunc.eigenvalues(sample_fields(model, graph, trunc.vertices,
                                           cfg["members"], cfg["seed"]))
    # B is a half-plane of real eigenvalues until B in C is supported:
    # taking Re would turn sum e^{-t lambda} into sum e^{-t Re lambda}.
    imag = np.abs(eigs.imag).max()
    if imag > 1e-9 * (1.0 + np.abs(eigs).max()):
        raise DomainError(f"rigidity-demo needs a real spectrum; eigenvalues "
                          f"have imaginary parts up to {imag:.3e}")
    spectra = eigs.real

    if cut is None:
        cut = float(spectra.mean(axis=0)[idx - 1])
    outside = spectra > cut - 1e-12 * (1.0 + np.abs(spectra).max())
    inside = (~outside).sum(axis=1)
    empty_b = bool(outside.all())
    if empty_b:
        print("warning: cut below the spectral range; B is empty",
              file=sys.stderr)

    mean_stats, maes = [], []
    for t in cfg["t_grid"]:
        weight = np.exp(-t * spectra)
        mean_stat = float(weight.sum(axis=1).mean())
        predictor = mean_stat - np.where(outside, weight, 0.0).sum(axis=1)
        maes.append(float(np.abs(np.rint(predictor) - inside).mean()))
        mean_stats.append(mean_stat)
    inversions = sum(1 for a, b in zip(maes, maes[1:]) if b > a + 1e-12)
    passed = not empty_b and inversions <= 1 and maes[-1] < 0.25
    return RigidityReport(t_grid=cfg["t_grid"], mean_statistic=tuple(mean_stats),
                          mae=tuple(maes), cut=cut, empty_b=empty_b,
                          passed=passed)


def _write_rigidity_csv(report, cfg, out):
    out.write(f"# config_hash={config_hash(cfg)}\n")
    out.write("# expectation column is the plug-in ensemble mean of the "
              "exponential linear statistic\n")
    out.write("t,mean_statistic,mae\n")
    for t, ms, mae in zip(report.t_grid, report.mean_statistic, report.mae):
        out.write(f"{_fmt(t)},{_fmt(ms)},{_fmt(mae)}\n")


# -- tail-check --------------------------------------------------------------------


@dataclass(frozen=True)
class TailReport:
    """``passed``: there is at least one row and no row breaks the bound;
    a check without rows has no evidence and fails."""

    rows: tuple          # (x, empirical, bound, se)
    passed: bool


def tail_check(cfg):
    """Empirical jump-count tail versus the analytic Chernoff bound."""
    cfg = effective_config("tail-check", cfg)
    q, t, n_paths, x_max = cfg["q"], cfg["t"], cfg["n_paths"], cfg["x_max"]
    hist = sample_jump_counts(q, t, n_paths, cfg["seed"])
    # at_least[x]: the number of paths with x or more jumps; none reaches
    # the end of the histogram (the sampler's cap).
    at_least = np.concatenate([hist[::-1].cumsum()[::-1],
                               np.zeros(x_max + 1, dtype=np.int64)])
    rows = []
    ok = True
    for x in range(1, x_max + 1):
        if x <= q * t:   # bound undefined at or below the mean regime
            continue
        emp = float(at_least[x] / n_paths)
        se = sqrt(emp * (1.0 - emp) / n_paths)
        bound = chernoff_jump_bound(q, t, x)
        ok = ok and emp <= bound + 3.0 * se
        rows.append((x, emp, bound, se))
    return TailReport(rows=tuple(rows), passed=ok and bool(rows))


def _write_tail_csv(report, cfg, out):
    out.write(f"# config_hash={config_hash(cfg)}\n")
    out.write("x,empirical,bound,se\n")
    for x, emp, bound, se in report.rows:
        out.write(f"{x},{_fmt(emp)},{_fmt(bound)},{_fmt(se)}\n")


# -- spectral-check ------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralReport:
    max_residual: float
    n_trials: int
    passed: bool


def spectral_check(cfg):
    """Trace of the matrix exponential vs the exponential linear statistic
    over random assemblies.  Each trial's matrix is filled once, in
    ``Truncation.blocks``; its eigenvalues serve every t, and so does its
    one matrix exponential where the grid doubles t.  A NaN residual (0/0,
    once every e^{-t lambda} underflows) reaches ``max_residual`` and fails."""
    cfg = effective_config("spectral-check", cfg)
    graph, model, pot, spec = _model_from(cfg)
    n_trials, t_grid = cfg["trials"], cfg["t_grid"]
    trunc = Truncation.build(graph, spec, pot, cfg["radius"])
    fields = sample_fields(model, graph, trunc.vertices, n_trials,
                           cfg["seed"])
    residuals = []
    for mats, block_eigs in trunc.blocks(fields):
        for mat, eigs in zip(mats, block_eigs):
            traces = expm_traces(mat, t_grid)
            with np.errstate(invalid="ignore", divide="ignore"):
                residuals += [abs(tr - np.exp(-t * eigs).sum()) / abs(tr)
                              for t, tr in zip(t_grid, traces)]
    worst = float(np.max(residuals))   # unlike max(), np.max keeps a NaN
    return SpectralReport(max_residual=worst, n_trials=n_trials,
                          passed=worst < 1e-8)


# -- fk-compare ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    mc_mean: float
    mc_se: float
    exact: float
    z: float
    passed: bool


def fk_compare(cfg):
    """Monte Carlo Dirichlet trace against the exact trace."""
    cfg = effective_config("fk-compare", cfg)
    graph, model, pot, spec = _model_from(cfg)
    radius, t, n_paths = cfg["radius"], cfg["t"], cfg["n_paths"]
    # Killed walkers stop at their exit, so the field is needed on the
    # truncation ball alone.  Both estimators share the one truncation.
    trunc = Truncation.build(graph, spec, pot, radius)
    field = sample_field(model, graph, trunc.vertices, cfg["seed"])
    est = mc_dirichlet_trace(trunc, field, t, n_paths, cfg["seed"] + 1)
    exact = float(trunc.traces([field], [t])[0, 0])
    # Without a finite positive SE (a stratum with one path, or every weight
    # zero) there is no evidence either way: z is NaN and the check fails.
    evidence = isfinite(est.stderr) and est.stderr > 0
    z = (est.mean - exact) / est.stderr if evidence else nan
    return CompareReport(mc_mean=est.mean, mc_se=est.stderr, exact=exact,
                         z=z, passed=evidence and abs(z) <= 4.0)


# -- entry point ------------------------------------------------------------------------


# The keys of the graph, noise, potential, walk and seed, then per subcommand
# its run, CSV writer, summary before "pass=" and keys.  A key maps to its
# type, its default (None: no default, so optional or required where the run
# needs it) and, for some, the least value it takes.
_MODEL_KEYS = {
    "graph": (str, "zd_l1"), "d": (int, 1), "graph_file": (str, None),
    "noise": (str, "iid"), "gamma0": (_finite, 1.0),
    "beta": (_finite, None), "alpha": (_finite, 2.0),
    "kappa": (_finite, 1.0), "mu": (_finite, 0.0), "q": (_finite, 1.0),
    "seed": (int, 0, 0)}
_COMMANDS = {
    "sweep-variance": (
        sweep_variance, _write_sweep_csv,
        lambda r: f"slope={r.slope:.6f} ci95={r.slope_ci:.6f} "
                  f"r2={r.r_squared:.6f}",
        {**_MODEL_KEYS, "t_exp_min": (int, 6), "t_exp_max": (int, 12),
         "ensemble": (int, 0), "radius": (int, None, 0),
         "expect_slope": (_finite, None)}),
    "rigidity-demo": (
        rigidity_demo, _write_rigidity_csv,
        lambda r: f"cut={r.cut:.6f} mae={['%.4f' % m for m in r.mae]}",
        {**_MODEL_KEYS, "radius": (int, 12, 0), "members": (int, 500, 1),
         "t_grid": (_times, (1.0, 0.5, 0.25, 0.125)),
         "cut_value": (_finite, None), "cut_index": (int, 1)}),
    "tail-check": (
        tail_check, _write_tail_csv, lambda r: f"points={len(r.rows)}",
        {"q": (_finite, 1.0), "t": (_time, 0.5),
         "n_paths": (int, 10 ** 6, 1),
         "x_max": (int, 10, 1), "seed": (int, 0, 0)}),
    "spectral-check": (
        spectral_check, None,
        lambda r: f"max_residual={r.max_residual:.3e} trials={r.n_trials}",
        {**_MODEL_KEYS, "radius": (int, 8, 0), "trials": (int, 50, 1),
         "t_grid": (_times, (0.5, 1.0))}),
    "fk-compare": (
        fk_compare, None,
        lambda r: f"mc={r.mc_mean:.6f} se={r.mc_se:.6f} "
                  f"exact={r.exact:.6f} z={r.z:.3f}",
        {**_MODEL_KEYS, "radius": (int, 10, 0), "t": (_time, 0.25),
         "n_paths": (int, 200_000, 1)}),
}
# Keys that change nothing given a partner's value: (key, partner, test of
# that value).  Refused only away from the default, which hashes as left out.
_INERT = (("d", "graph", lambda g: g == "edge_list"),
          ("graph_file", "graph", lambda g: g != "edge_list"),
          ("cut_index", "cut_value", lambda c: c is not None),
          ("radius", "ensemble", lambda m: m == 0))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fksim",
        description="Simulation and verification suite for random "
                    "Schrodinger operators on graphs")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
        run, write, summary, _ = _COMMANDS[args.command]
        if write is None and args.out is not None:
            parser.error(f"--out: {args.command} writes no CSV, so "
                         f"{args.out!r} would be ignored")
    except SystemExit as err:   # a usage error is an input error: exit 1
        return 1 if err.code else 0

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        cfg = effective_config(args.command, cfg)
        res = run(cfg)
        if write is not None and args.out:
            with open(args.out, "w") as out:
                write(res, cfg, out)
        elif write is not None:
            write(res, cfg, sys.stdout)
        print(f"{summary(res)} pass={res.passed}")
        return 0 if res.passed else 2
    except Exception as err:   # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
