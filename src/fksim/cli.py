"""Command-line driver: config parsing, variance sweeps with exponent fits,
the rigidity-predictor demonstration, jump-tail checks, and spectral checks.

Configs are flat key=value text files ('#' starts a comment).  Each
subcommand declares the keys it reads once, with their types and defaults
(``_COMMANDS``).  Every CSV begins with a '# config_hash=...' line: a hash of
the effective configuration (defaults included, values typed) and the
package version, so outputs are traceable to their inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from math import exp, isfinite, nan, sqrt

import numpy as np
from scipy.special import stdtrit

from .errors import ConfigError, DomainError
from .lattice import GraphModel
from .noise import (constant_gaussian, iid_gaussian, power_decay_gaussian,
                    sample_field)
from .operators import PotentialSpec, Truncation, _expm_traces
from .feynman_kac import (ensemble_variance, exact_dirichlet_trace,
                          frozen_variance_sum, mc_dirichlet_trace,
                          member_fields, radius_for)
from .walker import chernoff_jump_bound, sample_jump_counts, symmetric_walk


def parse_config(path):
    """Flat key=value file; later keys override earlier ones."""
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
                raise ConfigError(f"{path}:{lineno}: empty key")
            out[key] = val.strip()
    return out


def effective_config(command, cfg):
    """The typed values ``command`` runs with: each key it declares, read
    from ``cfg`` or else its default (a key with neither is left out).
    Applied to its own output it changes nothing."""
    out = {}
    for key, (cast, default) in _COMMANDS[command][3].items():
        if key not in cfg:
            if default is not None:
                out[key] = default
            continue
        try:
            out[key] = cast(cfg[key])
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse "
                              f"{cfg[key]!r}") from None
    return out


def config_hash(cfg):
    """Hash of a config and the package version.  Given the effective
    config, a default written out or left out hashes alike."""
    from . import __version__
    canon = "\n".join([f"version={__version__}"]
                      + [f"{k}={cfg[k]!r}" for k in sorted(cfg)])
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _required(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _graph_from(cfg):
    kind, d = cfg["graph"], cfg["d"]
    if kind == "zd_l1":
        return GraphModel.zd_l1(d)
    if kind == "zd_linf":
        return GraphModel.zd_linf(d)
    if kind == "edge_list":
        return GraphModel.from_edge_list(_required(cfg, "graph_file"), d=d)
    raise ConfigError(f"unknown graph kind {kind!r}")


def _noise_from(cfg):
    kind, gamma0, moment = cfg["noise"], cfg["gamma0"], cfg["moment_constant"]
    if kind == "iid":
        return iid_gaussian(gamma0, moment)
    if kind == "constant":
        return constant_gaussian(gamma0, moment)
    if kind == "power_decay":
        return power_decay_gaussian(_required(cfg, "beta"),
                                    cfg["decay_scale"], moment)
    raise ConfigError(f"unknown noise kind {kind!r}")


def _model_from(cfg):
    """The graph, noise model, potential and walk a config describes."""
    graph = _graph_from(cfg)
    return (graph, _noise_from(cfg),
            PotentialSpec(alpha=cfg["alpha"], kappa=cfg["kappa"],
                          mu=cfg["mu"]),
            symmetric_walk(graph, cfg["q"]))


def _floats(value):
    """A whitespace-separated list of numbers (or an already parsed one)."""
    return tuple(map(float, value.split() if isinstance(value, str)
                     else value))


def _fmt(x):
    return "" if x is None else repr(float(x))


# -- exponent fitting -----------------------------------------------------------


def fit_exponent(rows):
    """OLS fit of log value against log t: (slope, 95% CI half-width, R^2)."""
    if len(rows) < 4:
        raise DomainError(f"exponent fit needs >= 4 rows, got {len(rows)}")
    for i, (t, v) in enumerate(rows):
        if v <= 0:
            raise DomainError(f"row {i}: value {v} is not positive")
        if t <= 0:
            raise DomainError(f"row {i}: t {t} is not positive")
    x = np.log([t for t, _ in rows])
    y = np.log([v for _, v in rows])
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
    # stdtrit is the t quantile that scipy.stats.t.ppf evaluates, without
    # the import cost of scipy.stats.
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


def sweep_variance(cfg, seed=None):
    cfg = effective_config("sweep-variance", cfg)
    graph, model, pot, spec = _model_from(cfg)
    k_min, k_max = cfg["t_exp_min"], cfg["t_exp_max"]
    if k_max < k_min:
        raise ConfigError("t_exp_max must be >= t_exp_min")
    m_draws = cfg["ensemble"]
    if m_draws != 0 and m_draws < 3:
        raise ConfigError("ensemble must be 0 (off) or at least 3 (the "
                          "jackknife SE divides by ensemble - 2)")
    fixed_radius = cfg.get("radius")
    seed = seed if seed is not None else cfg["seed"]
    # With a nonnegative covariance no path pair lowers the variance, and
    # each walker stays put with probability >= e^{-q t}: the pairs in which
    # neither jumps give lower = e^{-2qt} frozen for any radial potential.
    do_lower = model.gamma0 >= 0

    rows, below = [], []
    for k in range(k_min, k_max + 1):
        t = 2.0 ** (-k)
        certified = radius_for(t, pot.alpha, pot.kappa)
        radius = certified if fixed_radius is None else fixed_radius
        if m_draws and radius < certified:
            below.append(t)
        # The frozen-sum column always uses its certified radius; a fixed
        # radius only constrains the matrix-exponential ensemble.
        frozen = frozen_variance_sum(t, graph, pot, model)
        lower = exp(-2.0 * spec.sup_rate * t) * frozen if do_lower else None
        ens_var = ens_se = None
        if m_draws:
            est = ensemble_variance(graph, spec, pot, model, radius, t,
                                    m_draws, seed + k)
            ens_var, ens_se = est.value, est.stderr
        rows.append((t, frozen, ens_var, ens_se, lower, radius))
    if below:
        print(f"warning: radius {fixed_radius} is below radius_for(t) at "
              f"t = {', '.join(map(_fmt, below))}; frozen and lower are "
              f"summed over the certified box and need not bound those rows' "
              f"ens_var", file=sys.stderr)

    slope, ci, r2 = fit_exponent([(t, f) for t, f, *_ in rows])
    expect = cfg.get("expect_slope")
    passed = expect is None or abs(slope - expect) <= cfg["slope_tol"]
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


def rigidity_demo(cfg, seed=None):
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
    radius, members, t_grid = cfg["radius"], cfg["members"], cfg["t_grid"]
    if not t_grid:
        raise ConfigError("empty t grid")
    if members < 1:
        raise ConfigError("members must be >= 1")
    seed = seed if seed is not None else cfg["seed"]
    trunc = Truncation.build(graph, spec, pot, radius)
    dim = len(trunc.region.vertices)
    if dim > 400:
        raise DomainError(f"spectrum dimension {dim} exceeds the 400 cap")
    # members x dim, ascending real parts
    eigs = trunc.eigenvalues(member_fields(trunc, graph, model, seed, members))
    # B is a half-plane of real eigenvalues until B in C is supported:
    # taking Re would turn sum e^{-t lambda} into sum e^{-t Re lambda}.
    imag = np.abs(eigs.imag).max()
    if imag > 1e-9 * (1.0 + np.abs(eigs).max()):
        raise DomainError(f"rigidity-demo needs a real spectrum; eigenvalues "
                          f"have imaginary parts up to {imag:.3e}")
    spectra = eigs.real

    cut = cfg.get("cut_value")
    if cut is None:
        idx = cfg["cut_index"]
        if not 1 <= idx <= spectra.shape[1]:
            raise ConfigError(f"cut_index {idx} outside 1..{spectra.shape[1]}")
        cut = float(spectra.mean(axis=0)[idx - 1])
    outside = spectra > cut - 1e-12 * (1.0 + np.abs(spectra).max())
    inside = (~outside).sum(axis=1)
    empty_b = bool(outside.all())
    if empty_b:
        print("warning: cut below the spectral range; B is empty",
              file=sys.stderr)

    mean_stats, maes = [], []
    for t in t_grid:
        weight = np.exp(-t * spectra)
        mean_stat = float(weight.sum(axis=1).mean())
        predictor = mean_stat - np.where(outside, weight, 0.0).sum(axis=1)
        maes.append(float(np.abs(np.rint(predictor) - inside).mean()))
        mean_stats.append(mean_stat)
    inversions = sum(1 for a, b in zip(maes, maes[1:]) if b > a + 1e-12)
    passed = inversions <= 1 and maes[-1] < cfg["mae_threshold"]
    return RigidityReport(t_grid=t_grid, mean_statistic=tuple(mean_stats),
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


def tail_check(cfg, seed=None):
    """Empirical jump-count tail versus the analytic Chernoff bound."""
    cfg = effective_config("tail-check", cfg)
    q, t, n_paths, x_max = cfg["q"], cfg["t"], cfg["n_paths"], cfg["x_max"]
    seed = seed if seed is not None else cfg["seed"]
    if t == 0.0:
        return TailReport(rows=(), passed=False)
    counts = sample_jump_counts(q, t, n_paths, seed)
    # at_least[x]: the number of paths with x or more jumps.
    at_least = np.bincount(counts, minlength=x_max + 2)[::-1].cumsum()[::-1]
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


def spectral_check(cfg, seed=None):
    """Trace of the matrix exponential vs the exponential linear statistic
    over random assemblies.  Each trial's eigenvalues serve every t, and so
    does its one matrix exponential where the grid doubles t."""
    cfg = effective_config("spectral-check", cfg)
    graph, model, pot, spec = _model_from(cfg)
    n_trials, t_grid = cfg["trials"], cfg["t_grid"]
    if n_trials < 1:
        raise ConfigError("trials must be >= 1")
    if not t_grid:
        raise ConfigError("empty t grid")
    seed = seed if seed is not None else cfg["seed"]
    trunc = Truncation.build(graph, spec, pot, cfg["radius"])
    fields = member_fields(trunc, graph, model, seed, n_trials)
    worst = 0.0
    for field, eigs in zip(fields, trunc.eigenvalues(fields)):
        traces = _expm_traces(trunc.matrices(field[None])[0], t_grid)
        for t, tr in zip(t_grid, traces):
            worst = max(worst, abs(tr - np.exp(-t * eigs).sum()) / abs(tr))
    return SpectralReport(max_residual=worst, n_trials=n_trials,
                          passed=worst < cfg["residual_tol"])


# -- fk-compare ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    mc_mean: float
    mc_se: float
    exact: float
    z: float
    passed: bool


def fk_compare(cfg, seed=None):
    """Monte Carlo Dirichlet trace against the dense matrix exponential."""
    cfg = effective_config("fk-compare", cfg)
    graph, model, pot, spec = _model_from(cfg)
    radius, t, n_paths = cfg["radius"], cfg["t"], cfg["n_paths"]
    seed = seed if seed is not None else cfg["seed"]
    # Killed walkers stop at their exit, so the field is needed on the
    # truncation ball alone.  Both estimators share the one truncation.
    trunc = Truncation.build(graph, spec, pot, radius)
    field = sample_field(model, graph, trunc.region.vertices,
                         rng=np.random.default_rng(seed))
    est = mc_dirichlet_trace(trunc, field, t, n_paths, seed + 1)
    exact = exact_dirichlet_trace(trunc, field, t)
    # Without a finite positive SE (a stratum with one path, or every weight
    # zero) there is no evidence either way: z is NaN and the check fails.
    evidence = isfinite(est.stderr) and est.stderr > 0
    z = (est.mean - exact) / est.stderr if evidence else nan
    return CompareReport(mc_mean=est.mean, mc_se=est.stderr, exact=exact,
                         z=z, passed=evidence and abs(z) <= 4.0)


# -- entry point ------------------------------------------------------------------------


# The keys of the graph, noise, potential, walk and seed, then per subcommand
# its run, CSV writer, summary before "pass=" and keys.  A key maps to its
# type and default; None means no default (optional, or required where the
# run needs it).
_MODEL_KEYS = {
    "graph": (str, "zd_l1"), "d": (int, 1), "graph_file": (str, None),
    "noise": (str, "iid"), "gamma0": (float, 1.0),
    "moment_constant": (float, 1.0), "beta": (float, None),
    "decay_scale": (float, 1.0), "alpha": (float, 2.0), "kappa": (float, 1.0),
    "mu": (float, 0.0), "q": (float, 1.0), "seed": (int, 0)}
_COMMANDS = {
    "sweep-variance": (
        sweep_variance, _write_sweep_csv,
        lambda r: f"slope={r.slope:.6f} ci95={r.slope_ci:.6f} "
                  f"r2={r.r_squared:.6f}",
        {**_MODEL_KEYS, "t_exp_min": (int, 6), "t_exp_max": (int, 12),
         "ensemble": (int, 0), "radius": (int, None),
         "expect_slope": (float, None), "slope_tol": (float, 0.1)}),
    "rigidity-demo": (
        rigidity_demo, _write_rigidity_csv,
        lambda r: f"cut={r.cut:.6f} mae={['%.4f' % m for m in r.mae]}",
        {**_MODEL_KEYS, "radius": (int, 12), "members": (int, 500),
         "t_grid": (_floats, (1.0, 0.5, 0.25, 0.125)),
         "mae_threshold": (float, 0.25), "cut_value": (float, None),
         "cut_index": (int, 1)}),
    "tail-check": (
        tail_check, _write_tail_csv, lambda r: f"points={len(r.rows)}",
        {"q": (float, 1.0), "t": (float, 0.5), "n_paths": (int, 10 ** 6),
         "x_max": (int, 10), "seed": (int, 0)}),
    "spectral-check": (
        spectral_check, None,
        lambda r: f"max_residual={r.max_residual:.3e} trials={r.n_trials}",
        {**_MODEL_KEYS, "radius": (int, 8), "trials": (int, 50),
         "t_grid": (_floats, (0.5, 1.0)), "residual_tol": (float, 1e-8)}),
    "fk-compare": (
        fk_compare, None,
        lambda r: f"mc={r.mc_mean:.6f} se={r.mc_se:.6f} "
                  f"exact={r.exact:.6f} z={r.z:.3f}",
        {**_MODEL_KEYS, "radius": (int, 10), "t": (float, 0.25),
         "n_paths": (int, 200_000)}),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fksim",
        description="Simulation and verification suite for random "
                    "Schrodinger operators on graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:   # a usage error is an input error: exit 1
        return 1 if err.code else 0
    run, write, summary, keys = _COMMANDS[args.command]

    try:
        cfg = parse_config(args.config)
        unknown = sorted(set(cfg) - set(keys))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {args.command}: "
                              + ", ".join(map(repr, unknown)))
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
