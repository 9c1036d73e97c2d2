"""Output checks for the benchmark: parse what an fksim check printed or wrote
and compare it with bench_refs or with properties the method must have.

Every check returns a list of failure messages; an empty list is a pass.  A
check never passes without evidence: it needs its summary line, at least one
data row, the requested number of trials, and standard errors that are finite
and positive.  Statistical comparisons use a fixed width in standard errors
(SE) and state their false-failure probability in the README.
"""

from __future__ import annotations

import math
import re

import bench_refs

FK_Z = 4.0          # fk-compare: the program's own acceptance width
FK_MAX_REL_SE = 0.02
ENSEMBLE_Z = 5.0    # variance and mean estimates against the references
# Two-sided normal tail at 5 SE; the exact binomial tests use half per side.
TAIL_ALPHA = math.erfc(5.0 / math.sqrt(2.0))
SUM_RTOL = 1e-9
SLOPE_TOL = 0.1
RESIDUAL_TOL = 1e-8


def read_config(path):
    """Flat key=value file with '#' comments, the format fksim reads."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, val = line.split("=", 1)
                cfg[key.strip()] = val.strip()
    return cfg


def summary(stdout, *keys):
    """Values of key=value fields on the last stdout line holding all keys."""
    for line in reversed(stdout.strip().splitlines()):
        found = {k: re.search(rf"(?:^|\s){k}=(\S+)", line) for k in keys}
        if all(found.values()):
            return {k: m.group(1) for k, m in found.items()}
    return None


def csv_rows(text):
    """Data rows of an fksim CSV as dicts of strings ('#' lines skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _num(s):
    return float(s) if s not in ("", None) else math.nan


def _finite_positive(x):
    return math.isfinite(x) and x > 0.0


def _exit_ok(rc, name):
    return [] if rc == 0 else [f"{name}: exit code {rc}"]


def _within(label, value, ref, se, ref_se, width):
    comb = math.sqrt(se * se + ref_se * ref_se)
    if not (math.isfinite(value) and abs(value - ref) <= width * comb):
        return [f"{label}: {value!r} vs reference {ref!r} exceeds "
                f"{width} combined SE ({comb:.3g})"]
    return []


# -- fk-compare ------------------------------------------------------------------


def check_fk_compare(rc, stdout):
    """MC trace within 4 SE of the exact trace, SE finite, > 0 and < 2 %."""
    s = summary(stdout, "mc", "se", "exact", "z")
    if s is None:
        return ["fk-compare: no summary line"]
    fail = _exit_ok(rc, "fk-compare")
    mc, se, exact = _num(s["mc"]), _num(s["se"]), _num(s["exact"])
    if not _finite_positive(se):
        return fail + [f"fk-compare: standard error {se!r} is not finite "
                       "and positive"]
    if not (math.isfinite(mc) and abs(mc - exact) <= FK_Z * se):
        fail.append(f"fk-compare: |mc - exact| = {abs(mc - exact):.3g} "
                    f"exceeds {FK_Z} SE = {FK_Z * se:.3g}")
    if not se < FK_MAX_REL_SE * abs(exact):
        fail.append(f"fk-compare: relative SE {se / abs(exact):.3g} "
                    f">= {FK_MAX_REL_SE}")
    return fail


def fk_relative_se(stdout):
    s = summary(stdout, "se", "exact")
    return _num(s["se"]) / abs(_num(s["exact"]))


# -- tail-check ------------------------------------------------------------------


def check_tail(rc, stdout, csv_text, q, t, n_paths, x_max):
    """Every row x with x > qt is present; each empirical tail agrees with
    the exact Poisson tail and is consistent with the Chernoff bound."""
    s = summary(stdout, "points")
    if s is None:
        return ["tail-check: no summary line"]
    fail = _exit_ok(rc, "tail-check")
    rows = csv_rows(csv_text)
    want = [x for x in range(1, x_max + 1) if x > q * t]
    got = [int(r["x"]) for r in rows]
    if not rows:
        return fail + ["tail-check: no tail rows"]
    if got != want or int(s["points"]) != len(rows):
        fail.append(f"tail-check: rows {got} (points={s['points']}), "
                    f"expected {want}")
    for r in rows:
        x, emp, bound = int(r["x"]), _num(r["empirical"]), _num(r["bound"])
        exact = bench_refs.poisson_tail(q * t, x)
        cher = bench_refs.chernoff_bound(q * t, x)
        if not abs(bound - cher) <= 1e-12 * cher:
            fail.append(f"tail-check x={x}: bound {bound!r} != {cher!r}")
        k = round(emp * n_paths)
        lo, hi = bench_refs.binomial_tails(k, n_paths, exact)
        if min(lo, hi) < TAIL_ALPHA / 2:
            fail.append(f"tail-check x={x}: {k} of {n_paths} paths is more "
                        f"than 5 SE from the Poisson tail {exact:.4g}")
        if bench_refs.binomial_tails(k, n_paths, cher)[1] < TAIL_ALPHA / 2:
            fail.append(f"tail-check x={x}: {k} of {n_paths} paths breaks "
                        f"the Chernoff bound {cher:.4g}")
    return fail


# -- spectral-check --------------------------------------------------------------


def check_spectral(rc, stdout, trials, t_grid):
    """All requested trials ran over a nonempty t grid, residual < 1e-8."""
    s = summary(stdout, "max_residual", "trials")
    if s is None:
        return ["spectral-check: no summary line"]
    fail = _exit_ok(rc, "spectral-check")
    ran, resid = int(s["trials"]), _num(s["max_residual"])
    if trials < 1 or ran != trials or not t_grid:
        fail.append(f"spectral-check: ran {ran} of {trials} trials over "
                    f"{len(t_grid)} t values")
    if not (math.isfinite(resid) and resid < RESIDUAL_TOL):
        fail.append(f"spectral-check: residual {resid!r} >= {RESIDUAL_TOL}")
    return fail


# -- sweep-variance --------------------------------------------------------------


def check_sweep_rows(rc, stdout, rows, ts):
    """One row per requested t, and the printed slope is the OLS slope of
    the frozen column."""
    s = summary(stdout, "slope")
    if s is None:
        return ["sweep-variance: no summary line"]
    fail = _exit_ok(rc, "sweep-variance")
    got = [_num(r["t"]) for r in rows]
    if not rows or got != list(ts):
        return fail + [f"sweep-variance: t column {got}, expected {list(ts)}"]
    fit = bench_refs.fit_slope(got, [_num(r["frozen"]) for r in rows])
    if not abs(_num(s["slope"]) - fit) <= 1e-5:
        fail.append(f"sweep-variance: printed slope {s['slope']} is not the "
                    f"fit {fit:.6f} of the frozen column")
    return fail


def sweep_slope(stdout):
    return _num(summary(stdout, "slope")["slope"])


def check_slope(slope, expected):
    if not abs(slope - expected) <= SLOPE_TOL:
        return [f"sweep-variance: slope {slope!r} is more than {SLOPE_TOL} "
                f"from {expected!r}"]
    return []


def check_sums(rows, column, refs):
    """A frozen or lower column against reference sums (PairSum or float):
    within 1e-9 relative plus the stated e^x - 1 rounding bound."""
    fail = []
    for r, ref in zip(rows, refs):
        value = _num(r[column])
        want = getattr(ref, "value", ref)
        tol = SUM_RTOL * abs(want) + getattr(ref, "rounding", 0.0)
        if not abs(value - want) <= tol:
            fail.append(f"sweep-variance t={r['t']}: {column} {value!r} vs "
                        f"reference {want!r} (tolerance {tol:.3g})")
    return fail


def check_ensemble(rows, refs):
    """ens_var with a finite positive SE, within 5 combined SE of the
    reference variance at each t."""
    fail = []
    for r, ref in zip(rows, refs):
        var, se = _num(r["ens_var"]), _num(r["ens_se"])
        if not _finite_positive(se):
            fail.append(f"sweep-variance t={r['t']}: ens_se {se!r} is not "
                        "finite and positive")
            continue
        fail += _within(f"sweep-variance t={r['t']} ens_var", var,
                        ref.value, se, ref.stderr, ENSEMBLE_Z)
    return fail


# -- rigidity-demo and paired_walker_variance ------------------------------------


def check_rigidity(rc, stdout, rows, ts, members, refs):
    """Ensemble mean of sum e^{-t lambda} within 5 combined SE of the
    reference mean; the program's SE is the reference spread over members."""
    s = summary(stdout, "cut", "mae")
    if s is None:
        return ["rigidity-demo: no summary line"]
    fail = _exit_ok(rc, "rigidity-demo")
    got = [_num(r["t"]) for r in rows]
    if not rows or got != list(ts):
        return fail + [f"rigidity-demo: t column {got}, expected {list(ts)}"]
    for r, ref in zip(rows, refs):
        prog_se = ref.stderr * math.sqrt(ref.n / members)
        fail += _within(f"rigidity-demo t={r['t']} mean_statistic",
                        _num(r["mean_statistic"]), ref.value, prog_se,
                        ref.stderr, ENSEMBLE_Z)
    return fail


def check_paired(est, n_rep, ref):
    """Paired-walker variance with a finite positive SE over all replicates,
    within 5 combined SE of the reference ensemble variance."""
    if est.n_samples != n_rep:
        return [f"paired variance: {est.n_samples} of {n_rep} replicates"]
    if not _finite_positive(est.stderr):
        return [f"paired variance: SE {est.stderr!r} is not finite and "
                "positive"]
    return _within("paired variance", est.value, ref.value, est.stderr,
                   ref.stderr, ENSEMBLE_Z)
