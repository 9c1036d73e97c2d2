import ast
import importlib.util
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fksim
from fksim.errors import ConfigError, DomainError
from fksim import cli, operators
from fksim.lattice import GraphModel
from fksim.feynman_kac import frozen_variance_sum
from fksim.noise import (iid_gaussian, power_decay_gaussian, sample_field,
                         sample_fields)
from fksim.walker import MarkovSpec, chernoff_jump_bound, sample_jump_counts


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config(tmp_path):
    path = _write(tmp_path, "a = 1\n# comment\nb=two  # trailing\n\nc=3\n")
    cfg = cli.parse_config(path)
    assert cfg == {"a": "1", "b": "two", "c": "3"}


def test_parse_config_refuses_a_key_set_twice(tmp_path):
    # The later value used to win: t = 0.5 then t = 2 ran at t = 2.
    path = _write(tmp_path, "t = 0.5\nq = 1\nt = 2\n")
    with pytest.raises(ConfigError,
                       match=r"run\.cfg:3: config key 't' is set twice"):
        cli.parse_config(path)


def test_parse_config_bad_line(tmp_path):
    path = _write(tmp_path, "a = 1\nnot a pair\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(path)
    assert ":2:" in str(err.value)


def test_fit_exponent_exact_quadratic():
    rows = [(t, 3.0 * t ** 2) for t in (0.5, 0.25, 0.125, 0.0625, 0.03125)]
    slope, ci, r2 = cli.fit_exponent(rows)
    assert slope == pytest.approx(2.0)
    assert r2 == pytest.approx(1.0)


def test_fit_exponent_noisy_power_law():
    rng = np.random.default_rng(0)
    rows = [(t, 2.0 * t ** 1.5 * (1.0 + 0.01 * rng.standard_normal()))
            for t in np.geomspace(1e-4, 1e-1, 12)]
    slope, ci, r2 = cli.fit_exponent(rows)
    assert abs(slope - 1.5) < 0.05


def test_fit_exponent_ci_matches_scipy_stats():
    from scipy import stats
    rng = np.random.default_rng(53)
    for n in range(4, 41):
        rows = [(t, t ** 1.5 * np.exp(0.1 * rng.standard_normal()))
                for t in np.geomspace(1e-3, 0.5, n)]
        slope, ci, _ = cli.fit_exponent(rows)
        x, y = np.log([r[0] for r in rows]), np.log([r[1] for r in rows])
        xm, ym = x.mean(), y.mean()
        sxx = ((x - xm) ** 2).sum()
        resid = y - ((ym - slope * xm) + slope * x)
        se = math.sqrt(float((resid ** 2).sum()) / (n - 2) / sxx)
        assert ci == float(stats.t.ppf(0.975, n - 2)) * se, n


def _scipy_modules_after(code, prefix=("scipy",)):
    """The modules under ``prefix`` (a dotted name as a tuple) that a fresh
    Python process has loaded after running ``code``."""
    code += ("\nimport sys\nprint(sorted(k for k in sys.modules if "
             f"tuple(k.split('.')[:{len(prefix)}]) == {tuple(prefix)!r}))")
    env = {**os.environ, "PYTHONPATH": str(Path(fksim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the start-up time and no subcommand needs it.
    assert _scipy_modules_after("from fksim import cli",
                                ("scipy", "stats")) == []


def test_cli_import_leaves_scipy_linalg_unloaded():
    # The matrix exponential is numpy products alone; scipy.linalg took
    # about 0.27 s of the import.
    assert _scipy_modules_after("from fksim import cli",
                                ("scipy", "linalg")) == []


@pytest.mark.parametrize("code", ["import fksim", "from fksim import cli"])
def test_import_loads_no_scipy(code):
    # The FFT is numpy's, and the three scipy.special functions are imported
    # where they are used, so start-up is numpy alone.
    assert _scipy_modules_after(code) == []


def test_walker_imports_neither_operators_nor_estimators():
    # The walker reads a truncation's arrays without importing the module
    # that builds them.  The package imports every module, so the walker is
    # imported under an empty ``fksim`` package.
    code = ("import sys, types\n"
            "pkg = types.ModuleType('fksim')\n"
            f"pkg.__path__ = [{str(Path(fksim.__file__).parent)!r}]\n"
            "sys.modules['fksim'] = pkg\n"
            "import fksim.walker")
    mods = _scipy_modules_after(code, ("fksim",))
    assert "fksim.walker" in mods
    assert not {"fksim.operators", "fksim.feynman_kac"} & set(mods)


def test_no_module_imports_private_names_of_another():
    # Each decision lives in one module: noise its model checks and sampler,
    # feynman_kac the frozen-sum rule and the estimators' array budget,
    # operators its block budget and the exponential traces.  Every other
    # module reaches them through public names (dunders aside), and
    # operators, whose truncation walker reads, imports nothing from walker.
    found = []
    for path in sorted(Path(fksim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and (
                    node.level or module.split(".")[0] == "fksim"):
                found += [(path.name, module, a.name) for a in node.names
                          if a.name.startswith("_")
                          and not a.name.endswith("__")]
            if path.stem == "operators":
                found += [(path.name, module, a.name) for a in node.names
                          if "walker" in f"{module}.{a.name}"]
    assert found == []


def test_noise_imports_nothing_from_lattice():
    # lattice alone knows how a lattice measures distance; noise asks the
    # graph for its distances.
    found = []
    for node in ast.walk(ast.parse(Path(fksim.noise.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names
                      if node.module in ("lattice", "fksim.lattice")
                      or a.name == "lattice"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if "lattice" in a.name]
    assert found == []


def _scipy_modules_after_main(tmp_path, command, text):
    """scipy modules loaded by a fresh process that runs ``command`` to
    completion, with a passing result, on the config ``text``."""
    cfg = _write(tmp_path, text, f"{command}.cfg")
    argv = [command, "--config", cfg, "--seed", "3"]
    if cli._COMMANDS[command][1] is not None:
        argv += ["--out", str(tmp_path / f"{command}.csv")]
    return _scipy_modules_after(
        f"from fksim import cli\nassert cli.main({argv!r}) == 0")


_NUMPY_ONLY_CONFIGS = {
    "fk-compare": "radius = 4\nt = 0.25\nn_paths = 20000\n",
    "tail-check": "q = 1\nt = 0.5\nn_paths = 20000\nx_max = 6\n",
    "spectral-check": "noise = power_decay\nbeta = 1\nd = 2\nradius = 3\n"
                      "trials = 2\n",
    "rigidity-demo": "radius = 6\nmembers = 30\ngamma0 = 0\ncut_index = 3\n",
}


@pytest.mark.parametrize("command", sorted(_NUMPY_ONLY_CONFIGS))
def test_subcommand_runs_without_scipy(tmp_path, command):
    assert _scipy_modules_after_main(
        tmp_path, command, _NUMPY_ONLY_CONFIGS[command]) == []


def test_sweep_variance_loads_scipy_special_alone(tmp_path):
    # The fitted slope's CI takes the Student-t quantile from
    # scipy.special; the power-decay sums take their FFT from numpy.
    mods = _scipy_modules_after_main(
        tmp_path, "sweep-variance",
        "noise = power_decay\nbeta = 0.5\nt_exp_min = 6\nt_exp_max = 9\n")
    assert "scipy.special" in mods
    public = {m.split(".")[1] for m in mods
              if m.count(".") and not m.split(".")[1].startswith("_")}
    subpackages = {p for p in public if importlib.util.find_spec(
        f"scipy.{p}").submodule_search_locations is not None}
    assert subpackages == {"special"}


def test_fit_exponent_too_few_rows():
    with pytest.raises(DomainError):
        cli.fit_exponent([(0.5, 1.0), (0.25, 0.5), (0.125, 0.25)])


def test_fit_exponent_nonpositive_value():
    rows = [(0.5, 1.0), (0.25, -1.0), (0.125, 0.3), (0.0625, 0.1)]
    with pytest.raises(DomainError) as err:
        cli.fit_exponent(rows)
    assert "row 1" in str(err.value)


@pytest.mark.parametrize("row", [(0.25, math.nan), (0.25, math.inf),
                                 (math.nan, 0.5), (math.inf, 0.5)])
def test_fit_exponent_refuses_a_non_finite_row(row):
    # A NaN value used to give a (nan, nan, nan) fit, which sweep-variance
    # without expect_slope printed as pass=True.
    rows = [(0.5, 1.0), row, (0.125, 0.3), (0.0625, 0.1)]
    with pytest.raises(DomainError, match=r"row 1: .* is not finite"):
        cli.fit_exponent(rows)


def test_fit_exponent_refuses_a_single_t():
    # Rows that share one t have sxx = 0 and no slope.
    rows = [(0.1, v) for v in (1.0, 0.5, 0.3, 0.1)]
    with pytest.raises(DomainError, match=r"sxx = 0"):
        cli.fit_exponent(rows)


def test_sweep_variance_iid_slope(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, """
graph = zd_l1
d = 1
alpha = 2
noise = iid
t_exp_min = 6
t_exp_max = 12
expect_slope = 1.5
"""))
    res = cli.sweep_variance(cfg)
    assert res.passed
    assert abs(res.slope - 1.5) < 0.1
    assert res.rows[0][0] > res.rows[-1][0]   # decreasing t


def test_sweep_variance_constant_slope(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, """
noise = constant
t_exp_min = 6
t_exp_max = 12
expect_slope = 1.0
"""))
    assert cli.sweep_variance(cfg).passed


def test_sweep_empty_grid_rejected(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "t_exp_min = 9\nt_exp_max = 6\n"))
    with pytest.raises(ConfigError):
        cli.sweep_variance(cfg)


@pytest.fixture
def sweep_calls(monkeypatch):
    """The stages of a sweep that ran, in order: "frozen" for each frozen
    sum (the real one runs) and "ensemble" for the ensemble (a stub)."""
    calls, real = [], fksim.feynman_kac._log_frozen_sum
    monkeypatch.setattr(fksim.feynman_kac, "_log_frozen_sum",
                        lambda *a: calls.append("frozen") or real(*a))
    monkeypatch.setattr(cli, "ensemble_variance",
                        lambda *a, **k: calls.append("ensemble"))
    return calls


@pytest.mark.parametrize("grid", ["t_exp_min = 1\nt_exp_max = 3\n",
                                  "t_exp_min = 5\nt_exp_max = 5\n",
                                  "t_exp_min = 9\nt_exp_max = 6\n"])
def test_sweep_refuses_a_short_grid_before_any_work(tmp_path, capsys,
                                                    sweep_calls, grid):
    # The exponent fit needs four rows; a shorter grid is known from the two
    # keys, so neither the frozen sums nor the ensemble may run first.
    path = _write(tmp_path, grid + "ensemble = 4000\n")
    assert cli.main(["sweep-variance", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "t_exp_min" in err and "t_exp_max" in err and "4 t values" in err
    assert sweep_calls == []


@pytest.mark.parametrize("text", [
    "t_exp_min = -5\nt_exp_max = -2\n",
    "gamma0 = 3\nt_exp_min = -4\nt_exp_max = 0\n",
    "noise = power_decay\nbeta = 1\nt_exp_min = -5\nt_exp_max = 0\n",
    "t_exp_min = -2000\nt_exp_max = 0\n",
    "gamma0 = 2\nt_exp_min = -4\nt_exp_max = 0\n",
    "noise = power_decay\nbeta = 1\ngamma0 = 2\nt_exp_min = -4\n"
    "t_exp_max = 0\n"])
def test_sweep_refuses_a_grid_whose_exponential_overflows(tmp_path, capsys,
                                                          sweep_calls, text):
    # The frozen sums hold e^{t^2 gamma0} (e^{t^2 gamma0} - 1), which
    # passes the largest float with 2 t^2 gamma0 > ln(max float) = 709.78,
    # and ended in "math range error" or "value inf is not finite", naming
    # no key.  Refused, with warnings as errors, before the ensemble runs.
    path = _write(tmp_path, text + "ensemble = 4000\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"\bt_exp_min\b", captured.err)
    assert "ensemble" not in sweep_calls


@pytest.mark.parametrize("text, key", [
    ("gamma0 = 0\nt_exp_min = -1100\nt_exp_max = -1096\n", "gamma0"),
    ("gamma0 = 1\nt_exp_min = -1100\nt_exp_max = -1096\n", "t_exp_min"),
    ("t_exp_min = 1060\nt_exp_max = 1066\n", "t_exp_min")])
def test_sweep_refuses_exponents_past_the_floats(tmp_path, capsys,
                                                 sweep_calls, text, key):
    # t = 2^1100 overflows ("Numerical result out of range"), and at t =
    # 2^-1060 radius_for(t) is infinite ("cannot convert float infinity to
    # integer"); neither named a key.  Refused before any sum runs, and at
    # gamma0 = 0, which makes every sum 0 whatever the grid, by gamma0.
    path = _write(tmp_path, text + "ensemble = 4000\n")
    assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"\b{key}\b", captured.err)
    assert sweep_calls == []


@pytest.mark.parametrize("text, key", [
    ("gamma0 = 0\nt_exp_min = -1020\nt_exp_max = -1016\n", "gamma0"),
    ("gamma0 = 1\nt_exp_min = -1020\nt_exp_max = -1016\n", "t_exp_min"),
    ("t_exp_min = 1000\nt_exp_max = 1004\n", "t_exp_min"),
    ("gamma0 = 0\nt_exp_min = -512\nt_exp_max = -508\n", "gamma0"),
    ("gamma0 = 1\nt_exp_min = -512\nt_exp_max = -508\n", "t_exp_min")])
def test_sweep_refuses_a_grid_whose_sums_leave_the_floats(tmp_path, capsys,
                                                          text, key):
    # t = 2^1020 is finite, but its t^2 is not: the radial sums overflowed
    # with a RuntimeWarning and "(34, 'Numerical result out of range')".  At
    # t = 2^-1000, t^2 is 0 and so was every frozen sum ("row 0: value 0.0
    # is not positive").  t^2 overflows from t = 2^512.  The real sums run
    # here, with warnings as errors: the refusal comes first.
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"\b{key}\b", captured.err)
    assert "Warning" not in captured.err


def _theta_frozen(t, gamma0, mu):
    """The Z^1 iid frozen sum of V = n^2 - mu over all of Z, by the Jacobi
    theta form sum_n e^{-2t n^2} = sqrt(pi/2t) sum_k e^{-pi^2 k^2/2t}, taken
    in logs: e^x expm1(x) e^{2 t mu} times it, x = t^2 gamma0."""
    a = 2.0 * t
    theta = math.sqrt(math.pi / a) * math.fsum(
        math.exp(-math.pi ** 2 * k * k / a) for k in range(-5, 6))
    x = t * t * gamma0
    return math.exp(x + math.log(math.expm1(x)) + math.log(theta)
                    + 2.0 * t * mu)


@pytest.mark.parametrize("text, noise_free", [
    ("gamma0 = 0\nt_exp_min = -511\nt_exp_max = -508\n", True),
    ("t_exp_min = 508\nt_exp_max = 511\n", False),
    ("gamma0 = 0.25\nt_exp_min = 507\nt_exp_max = 510\n", False),
    # t^2 gamma0 is subnormal: these were refused for it, though every
    # frozen sum is a normal float (5.7e-232 and more).
    ("t_exp_min = 509\nt_exp_max = 512\n", False),
    ("gamma0 = 0.25\nt_exp_min = 508\nt_exp_max = 511\n", False),
    # Refused for e^{2 t^2 gamma0} = e^800 at t = 1, though the frozen sum
    # there is e^{700.24} (mu = -50), and for t^2 gamma0 below the normal
    # floats from t = 2^-13, though each frozen sum is 5.9e-307 or more.
    ("gamma0 = 400\nmu = -50\nt_exp_min = 0\nt_exp_max = 3\n", False),
    ("gamma0 = 1e-300\nt_exp_min = 11\nt_exp_max = 14\n", False)])
def test_sweep_grid_gate_admits_the_edge_of_the_floats(tmp_path, capsys,
                                                       monkeypatch,
                                                       sweep_calls, text,
                                                       noise_free):
    # A grid whose frozen sums are all normal floats runs, with warnings as
    # errors, and each sum is the theta closed form; at gamma0 = 0 (one step
    # inside the refusal of t^2), gamma0 is refused by name.  The Z^1
    # integral tail starts after 1000 terms (the certified radius of
    # t = 2^-512 is 7.5e77), which moves no sum by 1e-70 of itself.
    monkeypatch.setattr(fksim.feynman_kac, "_EXACT_TERM_CAP", 1000)
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["sweep-variance", "--config", path])
    captured = capsys.readouterr()
    if noise_free:
        assert rc == 1 and sweep_calls == []
        assert re.search(r"\bgamma0\b", captured.err)
        assert "t_exp" not in captured.err
        return
    assert rc == 0 and sweep_calls == ["frozen"] * 4, captured.err
    cfg = cli.effective_config("sweep-variance",
                               cli.parse_config(path))
    for line in captured.out.splitlines()[2:-1]:
        t, frozen = map(float, line.split(",")[:2])
        assert frozen >= sys.float_info.min
        assert frozen == pytest.approx(
            _theta_frozen(t, cfg["gamma0"], cfg["mu"]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("text, key, log", [
    ("gamma0 = 354\nkappa = 0.1\nt_exp_min = 0\nt_exp_max = 3\n",
     "t_exp_min", "710.53"),
    ("gamma0 = 1e-300\nt_exp_min = 17\nt_exp_max = 20\n", "t_exp_max",
     "-711.34")])
def test_sweep_refuses_a_frozen_sum_outside_the_normal_floats(
        tmp_path, capsys, sweep_calls, text, key, log):
    # The radial sum of kappa = 0.1 (about 12.5) takes e^708 to e^{710.53}
    # at t = 1, and mu = 0 was blamed for it; at t = 2^-20, the far end of
    # the grid (summed second), t^2 gamma0 sqrt(pi/2t) is 1.2e-309, a
    # subnormal float.  Refused by the keys that set the sum, with its log,
    # before the ensemble runs.
    path = _write(tmp_path, text + "ensemble = 40\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "ensemble" not in sweep_calls
    for name in ("gamma0", "kappa", "mu", key):
        assert re.search(rf"\b{name}\b", captured.err)
    assert f"the log {log}," in captured.err
    assert "Warning" not in captured.err and "row" not in captured.err


def test_sweep_refuses_a_lower_bound_below_the_normal_floats(tmp_path,
                                                            capsys,
                                                            sweep_calls):
    # At t = 8 the frozen sum is 6.4e-305, a normal float, but its lower
    # bound e^-16 of it is the subnormal 7.2e-312, which the sweep wrote
    # with pass=True and exit 0.  Refused by the grid end that reaches it,
    # once every t's one frozen sum is taken and before the ensemble runs.
    path = _write(tmp_path, "gamma0 = 1e-306\nt_exp_min = -3\nt_exp_max = 0\n"
                            "ensemble = 40\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and sweep_calls == ["frozen"] * 4
    assert re.search(r"\bt_exp_min\b", captured.err)
    assert "7.202252803044e-312" in captured.err
    assert "below the normal floats" in captured.err


def test_sweep_refuses_a_radial_sum_of_too_many_terms(tmp_path, capsys,
                                                      sweep_calls):
    # On Z^2 every radial term is summed: 2.0e9 of them at t = 2^-57, which
    # at about 5e-8 s each would have run for minutes.  Refused before any
    # term is summed.
    path = _write(tmp_path, "d = 2\nt_exp_min = 57\nt_exp_max = 60\n"
                            "ensemble = 40\n")
    assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and sweep_calls == ["frozen"]
    for name in ("t_exp_min", "alpha", "kappa"):
        assert re.search(rf"\b{name}\b", captured.err)
    assert "over the cap of 60000000" in captured.err


def test_sweep_refuses_noise_free_fields_by_name(tmp_path, capsys,
                                                 sweep_calls):
    # At gamma0 = 0 every frozen sum is exactly 0, and the run failed in the
    # fit with "row 0: value 0.0 is not positive"; refused before any sum.
    path = _write(tmp_path, "gamma0 = 0\n")
    assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and sweep_calls == []
    assert re.search(r"\bgamma0\b", captured.err)


def test_sweep_refuses_a_wide_grid_after_its_two_ends(tmp_path, capsys,
                                                     sweep_calls):
    # Every cap grows with the box, which is widest at a grid end.  From
    # t_exp_min = 6 the sweep summed t = 2^-6 ... 2^-46 (41 sums, about 7 s)
    # before the term cap refused t = 2^-47; the ends come first now.
    path = _write(tmp_path, "d = 2\nt_exp_max = 60\nensemble = 40\n")
    assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and sweep_calls == ["frozen"] * 2
    assert "t_exp_max = 60 reaches t = 2^-60: " in captured.err
    assert "over the cap of 60000000" in captured.err


def _refuse_one_t(monkeypatch, kind, bad_t):
    """Stub the stages of a sweep's grid so that t = ``bad_t`` alone is
    refused, by ``kind``: t or its radius past the floats, a cap, or a log
    frozen above, below or at +-inf; every other t sums to the log 0."""
    real_ldexp, real_radius = cli.ldexp, cli.radius_for

    def ldexp(x, e):
        if kind == "t" and real_ldexp(x, e) == bad_t:
            raise OverflowError("math range error")
        return real_ldexp(x, e)

    def radius_for(t, *a):
        if kind == "radius" and t == bad_t:
            raise OverflowError("cannot convert float infinity to integer")
        return real_radius(t, *a)

    def log_frozen_sum(t, *a):
        if t != bad_t:
            return 0.0
        if kind == "cap":
            raise DomainError("need 61000000 terms, over the cap")
        return {"above": 709.8, "below": -708.5, "inf": math.inf,
                "-inf": -math.inf}[kind]

    monkeypatch.setattr(cli, "ldexp", ldexp)
    monkeypatch.setattr(cli, "radius_for", radius_for)
    monkeypatch.setattr(fksim.feynman_kac, "_log_frozen_sum", log_frozen_sum)


@pytest.mark.parametrize("kind", ["t", "radius", "cap", "above", "below",
                                  "inf", "-inf"])
@pytest.mark.parametrize("lo, hi, k, key", [
    (0, 3, 0, "t_exp_min"), (-3, 0, 0, "t_exp_max"),
    (1, 4, 1, "t_exp_min"), (-2, 1, 1, "t_exp_max")])
def test_sweep_names_a_refused_t_by_its_grid_end(tmp_path, capsys,
                                                 monkeypatch, kind, lo, hi, k,
                                                 key):
    # One rule names every grid refusal, at either end of the grid: the
    # end the refused t sits at, t_exp_min for t = 2^-t_exp_min, else
    # t_exp_max.
    _refuse_one_t(monkeypatch, kind, 2.0 ** -k)
    path = _write(tmp_path, f"t_exp_min = {lo}\nt_exp_max = {hi}\n")
    assert cli.main(["sweep-variance", "--config", path]) == 1
    err = capsys.readouterr().err
    value = lo if key == "t_exp_min" else hi
    assert err.startswith(f"error: {key} = {value} reaches t = 2^{-k}: ")
    other = ({"t_exp_min", "t_exp_max"} - {key}).pop()
    assert other not in err


@pytest.mark.parametrize("text, key", [
    ("t_exp_min = -1100\nt_exp_max = -1096\n", "t_exp_min"),     # ldexp
    ("t_exp_min = -1023\nt_exp_max = -1020\n", "t_exp_min"),     # e t
    ("t_exp_min = 1060\nt_exp_max = 1066\n", "t_exp_min"),       # 27.6 / t
    ("alpha = 0.1\nt_exp_min = 600\nt_exp_max = 603\n", "t_exp_min"),
    ("t_exp_min = 1080\nt_exp_max = 1090\n", "t_exp_min"),       # t = 0
    ("d = 2\nt_exp_min = 57\nt_exp_max = 60\n", "t_exp_min"),   # cap
    ("noise = power_decay\nbeta = 1\nd = 2\nt_exp_min = 17\n"
     "t_exp_max = 20\n", "t_exp_min"),                          # FFT
    ("t_exp_min = 1000\nt_exp_max = 1004\n", "t_exp_min"),       # t^2 = 0
    ("t_exp_min = -1020\nt_exp_max = -1016\n", "t_exp_min")])    # t^2 = inf
def test_sweep_grid_refusals_print_no_raw_python_text(tmp_path, capsys, text,
                                                      key):
    # Each grid refusal, with warnings as errors, is one line of the sweep's
    # own text: no "math range error", "cannot convert float infinity" or
    # "(34, 'Numerical result out of range')" from the float it came from.
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} = ")
    assert captured.err.count("\n") == 1
    for raw in ("math range error", "cannot convert float infinity", "(34, ",
                "Warning"):
        assert raw not in captured.err


@pytest.mark.parametrize("text, key, k", [
    ("gamma0 = 5e-309\nt_exp_min = -3\nt_exp_max = 0\n", "t_exp_max", 0),
    ("gamma0 = 5e-309\nt_exp_min = -4\nt_exp_max = -1\n", "t_exp_max", -1),
    ("gamma0 = 2000\nt_exp_min = 1\nt_exp_max = 4\n", "t_exp_min", 1)],
    ids=["tiny-noise-t-one", "tiny-noise-t-two", "huge-noise-t-half"])
def test_sweep_blames_the_grid_end_that_cures_the_refusal(tmp_path, capsys,
                                                          text, key, k):
    # The log frozen sum leaves the normal floats at one grid end: below
    # them at the small-t end of a tiny gamma0 (t = 2^0 and 2^1), above
    # them at the large-t end of a huge one (t = 2^-1).  The refusal named
    # the key of that t's side of one, which moving could not cure.
    path = _write(tmp_path, text)
    assert cli.main(["sweep-variance", "--config", path]) == 1
    err = capsys.readouterr().err
    value = re.search(rf"{key} = (-?\d+)", text).group(1)
    assert err.startswith(f"error: {key} = {value} reaches t = 2^{-k}: ")
    assert "normal floats" in err


_TINY_NOISE_HUGE_T = ("gamma0 = 1e-300\nalpha = 4\nt_exp_min = -300\n"
                      "t_exp_max = -296\n")


def test_sweep_sums_an_integral_tail_past_the_floats(tmp_path, capsys,
                                                      monkeypatch):
    # At t = 2^300 the certified radius is 5.5e90, and b (r + 1)^4 of the
    # Z^1 integral tail passes the largest float: the run exited with
    # "(34, 'Numerical result out of range')".  gammaincc is 0 there, and
    # every term past the centre underflows, so each frozen sum is
    # e^{t^2 gamma0} (e^{t^2 gamma0} - 1), t^2 gamma0 to roundoff.  Each
    # lower bound e^{-2t} of its sum is 0.0 in floats, so the sweep takes
    # every sum and then refuses the grid by t_exp_min, without a warning.
    monkeypatch.setattr(fksim.feynman_kac, "_EXACT_TERM_CAP", 1000)
    rows, real = [], cli.frozen_variance_sum
    monkeypatch.setattr(cli, "frozen_variance_sum",
                        lambda t, *a: rows.append((t, real(t, *a)))
                        or rows[-1][1])
    path = _write(tmp_path, _TINY_NOISE_HUGE_T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(rows) == 5
    assert captured.err.startswith("error: t_exp_min = -300 reaches t = 2^300")
    assert "below the normal floats" in captured.err
    assert "Warning" not in captured.err
    for t, frozen in rows:
        assert frozen == pytest.approx(t ** 2 * 1e-300, rel=1e-12)
    assert f"{cli.fit_exponent(sorted(rows))[0]:.6f}" == "2.000000"


@pytest.mark.parametrize("text", [
    "mu = 1000\nt_exp_min = -2\nt_exp_max = 1\n",
    "mu = 1\n" + _TINY_NOISE_HUGE_T])
def test_sweep_refuses_a_mu_that_takes_the_sums_past_the_floats(
        tmp_path, capsys, monkeypatch, text):
    # With V(0) = -mu every frozen sum holds e^{2 t mu}.  At mu = 1000 and
    # t = 4 numpy warned of an overflow in exp and the run failed with
    # "row 0: value inf is not finite"; past the Z^1 integral tail's cap,
    # e^{t mu} raised "math range error".  Refused by mu, without a warning.
    monkeypatch.setattr(fksim.feynman_kac, "_EXACT_TERM_CAP", 1000)
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"\bmu\b", captured.err)
    assert "Warning" not in captured.err and "row" not in captured.err


def test_sweep_applies_mu_once(tmp_path, capsys):
    # Each frozen sum is e^{2 t mu} times its mu = 0 value.  Formed with
    # e^{t mu} inside the radial sum, the t = 1/2 sum (about 8.7e133)
    # overflowed before the e^{t^2 gamma0} - 1 = 2.5e-301 noise factor
    # scaled it down, and the run was refused by mu.
    path = _write(tmp_path, "gamma0 = 1e-300\nmu = 1000\nt_exp_min = 1\n"
                            "t_exp_max = 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep-variance", "--config", path]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[2:-1]]
    assert len(rows) == 4 and captured.err == ""
    graph, model = GraphModel.zd_l1(1), iid_gaussian(1e-300)
    for t, frozen, *_ in rows:
        t = float(t)
        at_zero = frozen_variance_sum(t, graph, operators.PotentialSpec(),
                                      model)
        assert float(frozen) == pytest.approx(
            math.exp(math.log(at_zero) + 2.0 * t * 1000.0), rel=1e-12)


def test_sweep_runs_below_the_overflow(tmp_path, capsys):
    # At gamma0 = 1, t = 2^4 gives 2 t^2 gamma0 = 512: the sums stay finite.
    path = _write(tmp_path, "t_exp_min = -4\nt_exp_max = -1\n")
    assert cli.main(["sweep-variance", "--config", path]) == 0
    rows = capsys.readouterr().out.splitlines()[2:6]
    assert [float(r.split(",")[0]) for r in rows] == [16.0, 8.0, 4.0, 2.0]


def test_sweep_csv_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, "t_exp_min = 6\nt_exp_max = 10\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["sweep-variance", "--config", path, "--seed", "1",
                     "--out", str(out1)]) == 0
    assert cli.main(["sweep-variance", "--config", path, "--seed", "1",
                     "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()
    assert header[0].startswith("# config_hash=")
    assert header[1] == "t,frozen,ens_var,ens_se,lower,radius"


def test_sweep_with_ensemble_repeats_for_a_seed(tmp_path, capsys):
    path = _write(tmp_path, """
t_exp_min = 2
t_exp_max = 5
ensemble = 40
radius = 5
""")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["sweep-variance", "--config", path, "--seed", "2",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert all(row.split(",")[2] for row in outs[0].decode().splitlines()[2:])


def _sweep_rows(tmp_path, text, seed):
    """The sweep CSV's rows as dicts of floats (None for an empty cell)."""
    path, out = _write(tmp_path, text), tmp_path / "sweep.csv"
    assert cli.main(["sweep-variance", "--config", path, "--seed", str(seed),
                     "--out", str(out)]) == 0
    head, *rows = out.read_text().splitlines()[1:]
    return [{k: float(v) if v else None
             for k, v in zip(head.split(","), row.split(","))}
            for row in rows]


def test_sweep_lower_bound_uses_the_jump_rate(tmp_path, capsys):
    # Each walker stays put with probability e^{-qt}: at q = 8 the lower
    # column is e^{-16t} frozen.  The unit-rate factor e^{-2t} gives 0.80 at
    # t = 1, far above the ensemble variance of 0.0113 +- 0.0006.
    rows = _sweep_rows(tmp_path, """
graph = zd_l1
d = 1
alpha = 2
q = 8
noise = iid
gamma0 = 1
radius = 8
ensemble = 3000
t_exp_min = 0
t_exp_max = 3
""", seed=3)
    assert [r["t"] for r in rows] == [1.0, 0.5, 0.25, 0.125]
    for r in rows:
        assert r["lower"] <= r["ens_var"] + 3.0 * r["ens_se"]
        assert r["lower"] == math.exp(-2.0 * 8.0 * r["t"]) * r["frozen"]


def test_sweep_lower_bound_for_a_shifted_potential(tmp_path, capsys):
    rows = _sweep_rows(tmp_path, """
kappa = 0.8
mu = 0.2
t_exp_min = 2
t_exp_max = 5
""", seed=1)
    for r in rows:
        assert r["lower"] == math.exp(-2.0 * r["t"]) * r["frozen"] > 0.0


@pytest.mark.parametrize("text, warned", [
    ("radius = 55\n", (0.125, 0.0625)),  # radius_for: 50, 52, 56, 63
    ("radius = 70\n", ()),
    ("", ()),                            # one ball of radius_for(2^-4)
])
def test_sweep_warns_below_the_certified_radius(tmp_path, capsys, text,
                                                warned):
    # Three ensemble members, unless the case sets the key itself: a key
    # is set once.
    ensemble = "" if "ensemble" in text else "ensemble = 3\n"
    path = _write(tmp_path, ensemble + "t_exp_min = 1\nt_exp_max = 4\n"
                  + text)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-variance", "--config", path, "--seed", "6",
                     "--out", str(out)]) == 0
    err = capsys.readouterr().err
    if not warned:
        assert err == ""
        return
    line, = err.splitlines()
    assert line.startswith("warning: radius 55 is below radius_for(t) at t = "
                           + ", ".join(map(repr, warned)) + ";")
    assert "ens_var" in line
    radius = [int(row.split(",")[-1])
              for row in out.read_text().splitlines()[2:]]
    assert radius == [55] * 4


def test_rigidity_demo_deterministic_noise(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, """
radius = 6
members = 30
gamma0 = 0
t_grid = 1 0.5 0.25 0.125
cut_index = 3
"""))
    rep = cli.rigidity_demo(cfg)
    # no randomness: predictor equals the inside statistic, MAE -> 0
    assert rep.mae[-1] == pytest.approx(0.0, abs=1e-9)
    assert rep.passed


def test_rigidity_demo_cut_at_shared_eigenvalue_any_ensemble_size():
    # Without noise cut = mean of m equal third eigenvalues, which may round
    # one ulp above or below it depending on m; the eigenvalue must land
    # outside B in every member either way.
    for members in range(3, 41):
        cfg = {"radius": "6", "members": str(members), "gamma0": "0",
               "t_grid": "1 0.5 0.25 0.125", "cut_index": "3"}
        rep = cli.rigidity_demo(cfg)
        assert rep.passed and rep.mae[-1] == 0.0, (members, rep.mae)


def test_rigidity_demo_caps_the_dimension():
    # The Z^1 truncations of radius 199 and 200 have 399 and 401 vertices.
    cli.rigidity_demo({"radius": "199", "members": "3"})
    with pytest.raises(DomainError, match="dimension 401 exceeds the 400 cap"):
        cli.rigidity_demo({"radius": "200", "members": "3"})


def test_rigidity_demo_cut_below_spectrum(tmp_path, capsys):
    cfg = cli.parse_config(_write(tmp_path, """
radius = 5
members = 20
gamma0 = 0.1
t_grid = 0.5 0.25 0.125
cut_value = -1000
"""))
    rep = cli.rigidity_demo(cfg)
    assert rep.empty_b
    # inside count is zero everywhere and the predictor rounds to zero
    assert rep.mae[-1] < 0.05
    assert not rep.passed


def test_cli_rigidity_demo_fails_on_an_empty_b(tmp_path, capsys):
    # Every member's spectrum lies above the default cut (the mean smallest
    # eigenvalue) within roundoff, so B is empty: a count of zero inside it
    # is no evidence, and the run fails with its warning kept.
    cfg = _write(tmp_path, "radius = 4\nmembers = 1\n")
    assert cli.main(["rigidity-demo", "--config", cfg, "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert "pass=False" in captured.out
    assert captured.err == "warning: cut below the spectral range; B is " \
        "empty\n"


def _rotation_walk(bias):
    """A stand-in for symmetric_walk on Z^2: jumps tilted by ``bias``
    toward the counterclockwise tangent, a non-reversible walk."""
    def make(graph, q):
        def kernel(v):
            x, y = v
            targets = graph.neighbors(v)
            norm = math.hypot(x, y) or 1.0
            w = np.array([1.0 + bias * ((u[1] - y) * x - (u[0] - x) * y)
                          / norm for u in targets])
            return targets, list(np.cumsum(w / w.sum()))
        return MarkovSpec(rate=lambda v: q, kernel=kernel)
    return make


def test_rigidity_demo_refuses_complex_spectra(monkeypatch):
    # Without noise every member has the walk's own spectrum.
    cfg = {"graph": "zd_l1", "d": "2", "radius": "6", "members": "5",
           "gamma0": "0"}
    monkeypatch.setattr(cli, "symmetric_walk", _rotation_walk(0.6))
    graph, model, pot, spec = cli._model_from(cli.effective_config(
        "rigidity-demo", cfg))
    trunc = operators.Truncation.build(graph, spec, pot, 6)
    eigs = trunc.eigenvalues(sample_fields(model, graph, trunc.vertices, 5, 0))
    assert not trunc.symmetric and np.abs(eigs.imag).max() > 0.01
    with pytest.raises(DomainError, match="imaginary parts up to "
                       f"{np.abs(eigs.imag).max():.3e}"):
        cli.rigidity_demo(cfg)


def test_tail_check_passes(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, """
q = 1
t = 0.5
n_paths = 100000
x_max = 8
"""))
    rep = cli.tail_check({**cfg, "seed": "0"})
    assert rep.passed
    assert all(x > 0.5 for x, *_ in rep.rows)   # x <= q t excluded


def _tail_rows_by_scan(q, t, n_paths, x_max, seed):
    """tail_check's rows as one sum of the histogram's tail per x, and the
    largest count."""
    hist = sample_jump_counts(q, t, n_paths, seed)
    rows = []
    for x in range(1, x_max + 1):
        if x > q * t:
            emp = float(hist[x:].sum() / n_paths)
            rows.append((x, emp, chernoff_jump_bound(q, t, x),
                         math.sqrt(emp * (1.0 - emp) / n_paths)))
    return tuple(rows), int(np.flatnonzero(hist)[-1])


@pytest.mark.parametrize("q, t, x_max, beyond", [
    (1.0, 0.5, 10, True), (2.0, 0.7, 6, False), (3.0, 1.0, 25, True),
    (0.5, 4.0, 9, False)])
def test_tail_check_rows_equal_a_scan_per_x(q, t, x_max, beyond):
    # beyond: some x exceeds every count; q t >= 1 in the last two cases.
    cfg = {"q": str(q), "t": str(t), "n_paths": "20000", "x_max": str(x_max),
           "seed": "5"}
    rep = cli.tail_check(cfg)
    rows, top = _tail_rows_by_scan(q, t, 20000, x_max, 5)
    assert rep.rows == rows and rows
    assert (x_max > top) == beyond


def test_tail_check_rows_past_the_jump_count_cap_read_zero(tmp_path,
                                                          capsys):
    # q t = 0.5: the sampler's histogram has 41 entries (its cap), and rows
    # x = 41..60 lie past it.  They read 0, with no IndexError.
    out = tmp_path / "tail.csv"
    path = _write(tmp_path, "q = 1\nt = 0.5\nn_paths = 20000\nx_max = 60\n")
    assert len(sample_jump_counts(1.0, 0.5, 20000, 0)) == 41
    assert cli.main(["tail-check", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "points=60 pass=True\n"
    rows = [r.split(",") for r in out.read_text().splitlines()[2:]]
    assert [int(r[0]) for r in rows] == list(range(1, 61))
    assert all(float(r[1]) == 0.0 and float(r[3]) == 0.0 for r in rows[9:])
    assert float(rows[0][1]) > 0.0


def test_tail_check_t_zero_trivial(tmp_path, capsys):
    # At t = 0 no x exceeds q t = 0 with a count, so the check had no row
    # and failed without evidence; the gate refuses that horizon, naming t.
    path = _write(tmp_path, "t = 0\n")
    with pytest.raises(ConfigError, match=r"config key 't'"):
        cli.tail_check(cli.parse_config(path))
    assert cli.main(["tail-check", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"\bt\b", captured.err)


def test_tail_check_without_rows_fails():
    rep = cli.tail_check({"q": "1", "t": "20", "n_paths": "1000",
                          "x_max": "10", "seed": "0"})
    assert rep.rows == () and not rep.passed


@pytest.mark.parametrize("command, text", [
    ("tail-check", "n_paths = 0\n"),
    ("tail-check", "n_paths = -3\n"),
    ("fk-compare", "radius = 4\nn_paths = 0\n"),
    ("fk-compare", "radius = 4\nn_paths = -5\n"),
    ("tail-check", "x_max = 0\n"),
    ("tail-check", "x_max = -2\n"),
    ("rigidity-demo", "members = 0\n"),
    ("spectral-check", "trials = -1\n"),
    ("rigidity-demo", "t_grid =\n"),
    ("rigidity-demo", "radius = -3\n"), ("spectral-check", "radius = -3\n"),
    ("fk-compare", "radius = -3\n"),
    ("sweep-variance", "ensemble = 3\nradius = -1\n"),
    ("sweep-variance", "ensemble = 0\nradius = -1\n")])
def test_cli_refuses_fewer_than_one_path(tmp_path, capsys, command, text):
    # No path is no evidence: refused as an input error, not run to a
    # division by zero (tail-check) or 21 walks with se=nan (fk-compare).
    # Nor is a tail check without a point to compare (x_max < 1), nor a
    # run without a member, a trial or a t, nor a negative radius (which
    # the truncation refused without naming the key).  The error names the
    # config's last key.
    key = text.splitlines()[-1].split("=")[0].strip()
    cfg = _write(tmp_path, text)
    assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err
    with pytest.raises(ConfigError, match=key):
        cli._COMMANDS[command][0](cli.parse_config(cfg))


_BAD_MODEL_VALUES = [
    ("sweep-variance", "gamma0 = -1\n", "gamma0"),
    ("rigidity-demo", "gamma0 = -1\nradius = 4\n", "gamma0"),
    ("spectral-check", "gamma0 = -1\nradius = 4\n", "gamma0"),
    ("fk-compare", "gamma0 = -1\nradius = 4\n", "gamma0"),
    ("sweep-variance", "kappa = -1\nalpha = 1.5\n", "kappa"),
    ("sweep-variance", "kappa = 0\n", "kappa"),
    ("sweep-variance", "alpha = 0\n", "alpha"),
    ("fk-compare", "mu = nan\nradius = 4\n", "mu"),
    ("rigidity-demo", "alpha = 0\nradius = 4\n", "alpha"),
    ("spectral-check", "q = nan\nradius = 4\n", "q"),
    ("fk-compare", "q = inf\nradius = 4\n", "q"),
    ("tail-check", "q = nan\n", "q"),
    ("tail-check", "q = 0\n", "q")]


@pytest.mark.parametrize("command, text, key", _BAD_MODEL_VALUES,
                         ids=[f"{c}-{t}" for c, t, _ in _BAD_MODEL_VALUES])
def test_cli_refuses_a_negative_noise_variance(tmp_path, capsys, command,
                                                text, key):
    # The model types refuse a bad value, naming its key, when the config
    # is read: before a square root of a negative gamma0 ends in "math
    # domain error", a negative kappa in negative radii that pass, a zero
    # kappa or alpha in a division by zero in radius_for, or a NaN q in an
    # error that names no key.
    assert cli.main([command, "--config", _write(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"\b{key}\b", captured.err)


def _reads_floats(cast):
    """Whether a key's type reads "0.5" as a float or a tuple of them."""
    try:
        return isinstance(cast("0.5"), (float, tuple))
    except ValueError:
        return False


# (command, key) of every float key, taken from the key table itself.
_FLOAT_KEYS = [(command, key) for command, (*_, keys) in cli._COMMANDS.items()
               for key, (cast, *_) in keys.items() if _reads_floats(cast)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", _FLOAT_KEYS,
                         ids=[f"{c}-{k}" for c, k in _FLOAT_KEYS])
def test_gate_refuses_a_non_finite_float(tmp_path, capsys, command, key,
                                         value):
    # beta = inf ran and passed, expect_slope and cut_value at nan or +-inf
    # ended in a failed check (exit 2), fk-compare with t = nan printed
    # z=nan, and tail-check with t = nan a NaN-to-integer error naming no
    # key.  beta is read with power-decay noise alone.
    context = "noise = power_decay\n" if key == "beta" else ""
    path = _write(tmp_path, f"{context}{key} = {value}\n")
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"\b{key}\b", captured.err)


def test_float_keys_are_found_in_the_key_table():
    # The keys the test above runs over include those the defects were
    # seen on, so it cannot pass by running over none.
    assert {("sweep-variance", "beta"), ("sweep-variance", "expect_slope"),
            ("rigidity-demo", "cut_value"), ("fk-compare", "t"),
            ("tail-check", "t"), ("spectral-check", "t_grid")} \
        <= set(_FLOAT_KEYS)


_MODEL_COMMANDS = {"sweep-variance": "", "rigidity-demo": "radius = 4\n",
                   "spectral-check": "radius = 4\n",
                   "fk-compare": "radius = 4\n"}


@pytest.mark.parametrize("command", sorted(_MODEL_COMMANDS))
@pytest.mark.parametrize("key", ["decay_scale", "moment_constant"])
def test_cli_refuses_the_keys_that_changed_nothing(tmp_path, capsys, command,
                                                   key):
    # gamma0 is the power-decay prefactor, and the moment constant is
    # sqrt(gamma0), derived by the noise model: both keys are unknown.
    path = _write(tmp_path, _MODEL_COMMANDS[command] + f"{key} = -3\n")
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown config key(s) for {command}: {key!r}" in captured.err


@pytest.mark.parametrize("command", sorted(_MODEL_COMMANDS))
@pytest.mark.parametrize("text, key", [
    ("noise = iid\nbeta = 0.5\n", "beta"),
    ("noise = constant\nbeta = 0.5\n", "beta"),
    ("graph = zd_l1\ngraph_file = g.txt\n", "graph_file"),
    ("graph = zd_linf\ngraph_file = g.txt\n", "graph_file")])
def test_cli_refuses_a_key_the_model_does_not_take(tmp_path, capsys, command,
                                                   text, key):
    # Such a key was read and ignored: the run went on as without it.
    path = _write(tmp_path, _MODEL_COMMANDS[command] + text)
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


def test_power_decay_sweep_reads_gamma0(tmp_path, capsys):
    # gamma0 is the prefactor of the power-decay covariance: the frozen
    # column is the library's sum for that model, and another gamma0 moves it.
    text = "noise = power_decay\nbeta = 0.5\nt_exp_min = 6\nt_exp_max = 9\n"
    frozen = {}
    for gamma0 in (1.0, 5.0):
        out = tmp_path / f"{gamma0}.csv"
        assert cli.main(["sweep-variance", "--config",
                         _write(tmp_path, text + f"gamma0 = {gamma0}\n"),
                         "--out", str(out)]) == 0
        frozen[gamma0] = [float(line.split(",")[1])
                          for line in out.read_text().splitlines()[2:]]
    capsys.readouterr()
    assert frozen[5.0] != frozen[1.0]
    model = power_decay_gaussian(0.5, gamma0=5.0)
    assert frozen[5.0] == [
        frozen_variance_sum(2.0 ** -k, GraphModel.zd_l1(1),
                            operators.PotentialSpec(), model)
        for k in range(6, 10)]


# A value other than the default for each model key.  The guard below sets
# d = 2 besides, where zd_linf is not zd_l1.
_OTHER_VALUES = {"graph": "zd_linf", "d": "3", "graph_file": "g.txt",
                 "noise": "constant", "gamma0": "2", "beta": "0.5",
                 "alpha": "3", "kappa": "2", "mu": "1", "q": "2",
                 "seed": "1"}


def _drawn_operator(cfg):
    """One draw of the matrix of H on the radius-2 ball ``cfg`` describes:
    the model of ``_model_from`` and the field of the config's seed."""
    cfg = cli.effective_config("fk-compare", cfg)
    graph, model, pot, spec = cli._model_from(cfg)
    trunc = operators.Truncation.build(graph, spec, pot, 2)
    field = sample_field(model, graph, trunc.vertices, cfg["seed"])
    return trunc.matrices([field])[0]


@pytest.mark.parametrize("key", sorted(cli._MODEL_KEYS))
def test_every_model_key_changes_the_model_or_is_refused(tmp_path, capsys,
                                                         key):
    # No model key is inert: another value draws another operator, or the
    # model types refuse it, naming the key, and the CLI exits 1.
    assert key in _OTHER_VALUES, f"give {key!r} a non-default value here"
    base = {"d": "2"}
    cfg = {**base, key: _OTHER_VALUES[key]}
    try:
        drawn = _drawn_operator(cfg)
    except (ConfigError, DomainError) as err:
        assert key in str(err)
        path = _write(tmp_path, "".join(f"{k} = {v}\n"
                                        for k, v in cfg.items()))
        assert cli.main(["fk-compare", "--config", path]) == 1
        assert key in capsys.readouterr().err
    else:
        before = _drawn_operator(base)
        assert (drawn.shape != before.shape
                or not np.array_equal(drawn, before))


def test_cli_tail_check_refuses_negative_t(tmp_path, capsys):
    cfg = _write(tmp_path, "t = -1\n")
    assert cli.main(["tail-check", "--config", cfg]) == 1
    assert capsys.readouterr().err == ("error: config key 't' = '-1': t "
                                       "must be positive, got -1.0\n")


def test_cli_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "t_exp_min = 6\nt_exp_max = 10\n", "good.cfg")
    assert cli.main(["sweep-variance", "--config", good]) == 0
    bad_fit = _write(tmp_path, "t_exp_min = 6\nt_exp_max = 10\n"
                               "expect_slope = 7\n", "bad.cfg")
    assert cli.main(["sweep-variance", "--config", bad_fit]) == 2
    broken = _write(tmp_path, "t_exp_min = oops\n", "broken.cfg")
    assert cli.main(["sweep-variance", "--config", broken]) == 1
    assert cli.main(["sweep-variance", "--config",
                     str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.parametrize("argv", [
    ["sweep-variance"],                                   # no --config
    ["sweep-variance", "--config", "x.cfg", "--frobnicate"],
    ["sweep-variance", "--config", "x.cfg", "--threads", "2"],
    ["sweep-variance", "--config", "x.cfg", "--seed", "one"],
    ["no-such-command", "--config", "x.cfg"],
    [],
])
def test_cli_usage_errors_exit_1(capsys, argv):
    # Exit 2 means that a check failed; a malformed command line is an
    # input error like a malformed config.
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert cli.main(["tail-check", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    path = _write(tmp_path, "t_exp_min = 6\nt_exp_mx = 9\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-variance", "--config", path, "--out",
                     str(out)]) == 1
    assert "'t_exp_mx'" in capsys.readouterr().err
    assert not out.exists()   # refused before any work


@pytest.mark.parametrize("command, text", [
    ("tail-check", "t = 0.5\nn_paths = 1000\nradius = 4\n"),
    ("fk-compare", "radius = 4\nx_max = 3\n"),
    ("spectral-check", "radius = 4\nmembers = 3\n"),
])
def test_cli_keys_are_per_subcommand(tmp_path, capsys, command, text):
    # A key that another subcommand reads is still unknown here.
    path = _write(tmp_path, text)
    assert cli.main([command, "--config", path]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_hash_covers_defaults(tmp_path, capsys):
    # t_exp_min = 6 is the default: writing it out runs the same sweep and
    # must give the same hash; another value must not.
    heads = []
    for name, text in (("a", "t_exp_max = 10\n"),
                       ("b", "t_exp_min = 6\nt_exp_max = 10\n"),
                       ("c", "t_exp_min = 7\nt_exp_max = 10\n")):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["sweep-variance", "--config",
                         _write(tmp_path, text, f"{name}.cfg"), "--seed", "1",
                         "--out", str(out)]) == 0
        heads.append(out.read_text().splitlines())
    assert heads[0] == heads[1]
    assert heads[0][0] != heads[2][0]


def test_config_hash_covers_version(monkeypatch):
    import fksim
    cfg = cli.effective_config("tail-check", {"t": "0.5", "seed": "3"})
    before = cli.config_hash(cfg)
    monkeypatch.setattr(fksim, "__version__", fksim.__version__ + ".post1")
    assert cli.config_hash(cfg) != before


def test_package_version_matches_pyproject():
    # The version is written once, in fksim/__init__.py (config_hash hashes
    # it); pyproject.toml reads it from there.
    from setuptools.config.pyprojecttoml import read_configuration
    with warnings.catch_warnings():
        # Older setuptools calls [tool.setuptools] in pyproject.toml beta.
        warnings.filterwarnings("ignore", message=r"Support for `\[tool")
        conf = read_configuration(Path(__file__).resolve().parents[1]
                                  / "pyproject.toml")
    assert conf["project"]["dynamic"] == ["version"]
    assert conf["project"]["version"] == fksim.__version__


def test_effective_config_types_and_defaults():
    cfg = cli.effective_config("rigidity-demo", {"gamma0": "1",
                                                 "t_grid": "1  0.5"})
    assert cfg["gamma0"] == 1.0 and cfg["t_grid"] == (1.0, 0.5)
    assert cfg["radius"] == 12 and cfg["seed"] == 0
    assert "cut_value" not in cfg and "beta" not in cfg
    assert cli.effective_config("rigidity-demo", cfg) == cfg
    with pytest.raises(ConfigError):
        cli.effective_config("rigidity-demo", {"radius": "6.5"})


def test_cli_accepts_seed_key(tmp_path, capsys):
    path = _write(tmp_path, "seed = 3\nradius = 6\ntrials = 2\n")
    assert cli.main(["spectral-check", "--config", path]) == 0


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("how", ["option", "key"])
def test_cli_refuses_a_negative_seed_by_name_before_any_work(
        tmp_path, capsys, monkeypatch, command, how):
    # numpy refused it with "expected non-negative integer", naming no key,
    # and sweep-variance only after every frozen sum had run.
    work = []
    monkeypatch.setattr(cli, "_model_from", lambda *a: work.append(a))
    monkeypatch.setattr(cli, "sample_jump_counts", lambda *a: work.append(a))
    path = _write(tmp_path, "seed = -3\n" if how == "key" else "")
    argv = [command, "--config", path]
    assert cli.main(argv + ["--seed", "-3"] if how == "option" else argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and work == []
    assert "config key 'seed' must be >= 0" in captured.err


# Subcommand of each benchmark config; mc_paired.cfg feeds a library call.
_BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
_BENCH_COMMANDS = {"exact_rigidity_demo": "rigidity-demo",
                   "exact_spectral_check": "spectral-check",
                   "exact_sweep_variance": "sweep-variance",
                   "mc_fk_compare": "fk-compare",
                   "mc_tail_check": "tail-check",
                   "power_spectral_check": "spectral-check",
                   "power_sweep_variance": "sweep-variance"}


@pytest.mark.parametrize("name", sorted(_BENCH_COMMANDS))
def test_benchmark_configs_use_known_keys(name):
    cfg = cli.parse_config(_BENCH_CONFIGS / f"{name}.cfg")
    keys = cli._COMMANDS[_BENCH_COMMANDS[name]][3]
    assert set(cfg) <= set(keys) | {"seed"}


@pytest.mark.parametrize("name", sorted(_BENCH_COMMANDS))
def test_benchmark_configs_repeat_for_a_seed(name, tmp_path, capsys):
    # Two runs at one seed print the same summary and write the same CSV
    # (spectral-check and fk-compare write none, and take no --out).
    command = _BENCH_COMMANDS[name]
    argv = [command, "--config", str(_BENCH_CONFIGS / f"{name}.cfg"),
            "--seed", "41"]
    runs = []
    for k in range(2):
        out = tmp_path / f"{k}.csv"
        writes = cli._COMMANDS[command][1] is not None
        rc = cli.main(argv + (["--out", str(out)] if writes else []))
        runs.append((rc, capsys.readouterr().out,
                     out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_every_traced_function_exists():
    # perfbench traces these functions at their module paths; one that is
    # renamed or moved would drop its layer metrics from a traced run.
    spec = importlib.util.spec_from_file_location(
        "bench_trace", _BENCH_CONFIGS.parent / "bench_trace.py")
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    with bench_trace.Tracer() as tracer:
        pass
    assert tracer.missing == set()
    # The names perfbench/run.py imports from the package.
    from fksim import (GraphModel, PotentialSpec, feynman_kac,  # noqa: F401
                       iid_gaussian, symmetric_walk)


def _bench_trace():
    spec = importlib.util.spec_from_file_location(
        "bench_trace", _BENCH_CONFIGS.parent / "bench_trace.py")
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace


@pytest.mark.parametrize("command, text, span, calls", [
    ("tail-check", "n_paths = 20000\n", "walker.sample_jump_counts", 1),
    ("fk-compare", "radius = 4\nn_paths = 2000\n",
     "feynman_kac.mc_dirichlet_trace", 1),
    ("sweep-variance", "t_exp_min = 1\nt_exp_max = 4\n",
     "feynman_kac.frozen_variance_sum", 4)])
def test_traced_span_is_called_once_per_run(tmp_path, capsys, command, text,
                                            span, calls):
    # perfbench's walker.jump_counts_s, feynman_kac.mc_trace_self_s and
    # feynman_kac.frozen_sum_s read these spans; a run that reached its work
    # some other way would leave them at 0.  The sweep sums once per grid t.
    bench_trace = _bench_trace()
    path = _write(tmp_path, text)
    with bench_trace.Tracer() as tracer:
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "o.csv")]
                        if command == "tail-check"
                        else [command, "--config", path]) == 0
    capsys.readouterr()
    assert tracer.calls[span] == calls
    assert tracer.total[span] > 0.0


def test_cli_spectral_check(tmp_path, capsys):
    cfg = _write(tmp_path, "radius = 6\ntrials = 5\n")
    assert cli.main(["spectral-check", "--config", cfg, "--seed", "3"]) == 0


@pytest.mark.parametrize("radius, trials, block", [
    (3, 7, 1 << 16), (3, 7, 2 * 25 * 25), (3, 7, 3 * 25 * 25 - 1),
    (3, 7, 1), (6, 200, 1 << 16)])
def test_spectral_check_fills_each_trial_once_in_blocks(monkeypatch, radius,
                                                        trials, block):
    # Z^2 balls of 25 and 85 vertices: every trial's matrix is filled once,
    # in blocks of at most the block budget (a member larger than the block
    # alone is a block of its own), and the summary does not depend on it.
    cfg = {"d": "2", "radius": str(radius), "trials": str(trials)}
    want = cli.spectral_check(cfg)
    monkeypatch.setattr(operators, "_BLOCK_ELEMS", block)
    sizes, fill = [], operators.Truncation.matrices
    monkeypatch.setattr(operators.Truncation, "matrices",
                        lambda self, f: sizes.append(f.shape)
                        or fill(self, f))
    assert cli.spectral_check(cfg) == want
    assert sum(n for n, _ in sizes) == trials
    assert all(n * m * m <= block or n == 1 for n, m in sizes)
    per_block = max(1, block // sizes[0][1] ** 2)
    assert [n for n, _ in sizes] == [min(per_block, trials - lo)
                                     for lo in range(0, trials, per_block)]


def test_power_spectral_check_peak_stays_bounded():
    # power_spectral_check.cfg at seed 41: 200 trials of dimension 85.  With
    # every trial matrix filled at once the traced peak was 11.5 MiB; a block
    # at a time, it is 1.3 MiB.
    cfg = {**cli.parse_config(_BENCH_CONFIGS / "power_spectral_check.cfg"),
           "seed": "41"}
    tracemalloc.start()
    try:
        cli.spectral_check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_spectral_check_one_expm_per_trial(monkeypatch):
    calls, real = [], operators.expm_neg
    monkeypatch.setattr(operators, "expm_neg",
                        lambda mat, t, **kw: calls.append(t)
                        or real(mat, t, **kw))
    for grid, per_trial in (("0.5 1", 1), ("1 .5 .25 .125", 1),
                            ("0.3 0.7", 2)):
        calls.clear()
        rep = cli.spectral_check({"radius": "3", "trials": "4",
                                  "t_grid": grid})
        assert rep.passed
        assert len(calls) == 4 * per_trial


@pytest.mark.parametrize("command", ["spectral-check", "rigidity-demo"])
@pytest.mark.parametrize("grid", ["0", "0 0 0 0", "nan", "-0.5 1", "1 inf"])
def test_t_grid_refuses_a_time_not_positive_and_finite(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      grid):
    # At t = 0 the trace identity reads n = n and passed without evidence,
    # as did a rigidity MAE of 0; nan failed as an overflow, and a negative
    # t ran to an MAE of 4.4e7.  Refused at the gate, before any field.
    draws = []
    monkeypatch.setattr(cli, "sample_fields",
                        lambda *a: draws.append(a) or sample_fields(*a))
    cfg = _write(tmp_path, f"radius = 3\nt_grid = {grid}\n")
    assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "t_grid" in captured.err
    with pytest.raises(ConfigError, match="t_grid"):
        cli._COMMANDS[command][0](cli.parse_config(cfg))
    assert draws == []
    assert cli.effective_config(command, {})["t_grid"] == \
        cli._COMMANDS[command][3]["t_grid"][1]


@pytest.mark.parametrize("module", ["fksim", "fksim.cli"])
def test_python_m_runs_the_cli_quietly(tmp_path, module):
    # The package does not import its cli, so running fksim.cli as a script
    # finds no half-imported copy in sys.modules and warns about nothing.
    cfg = _write(tmp_path, "radius = 3\ntrials = 2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fksim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", module, "spectral-check",
                           "--config", cfg], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "pass=True" in proc.stdout


@pytest.mark.parametrize("grid", ["1", "0.5 1"])
def test_cli_spectral_check_fails_on_a_nan_residual(tmp_path, capsys, grid):
    # With mu = -800 every e^{-t lambda} underflows at t = 1, so each
    # residual there is 0/0: the NaN reaches max_residual and fails the
    # check, also after the finite residuals at t = 0.5, and numpy's
    # warning does not reach stderr.
    cfg = _write(tmp_path, "radius = 3\ntrials = 3\nmu = -800\n"
                 f"t_grid = {grid}\n")
    assert cli.main(["spectral-check", "--config", cfg, "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "max_residual=nan trials=3 pass=False\n"
    assert captured.err == ""


def test_cli_fk_compare(tmp_path, capsys):
    cfg = _write(tmp_path, "radius = 6\nt = 0.25\nn_paths = 20000\n")
    assert cli.main(["fk-compare", "--config", cfg, "--seed", "4"]) == 0


@pytest.mark.parametrize("text", [
    "radius = 10\nn_paths = 5\n",          # one path per stratum: SE is NaN
    "radius = 2\nt = 1500\nn_paths = 2000\n",   # every weight underflows: SE 0
])
def test_cli_fk_compare_refuses_without_evidence(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    assert cli.main(["fk-compare", "--config", cfg, "--seed", "0"]) == 2
    assert "pass=False" in capsys.readouterr().out


def test_cli_fk_compare_fails_without_evidence_at_one_path_per_start(
        tmp_path, capsys):
    # 21 starts and 21 paths: one path per stratum, whether it sits out or
    # is walked, so no stratum has a variance.  The SE and z are NaN.
    cfg = _write(tmp_path, "radius = 10\nn_paths = 21\n")
    assert cli.main(["fk-compare", "--config", cfg, "--seed", "0"]) == 2
    out = capsys.readouterr().out
    assert " se=nan " in out and out.endswith(" z=nan pass=False\n")


def test_cli_fk_compare_builds_one_ball(tmp_path, capsys, monkeypatch):
    # The field, the Monte Carlo walks and the exact trace share one
    # truncation, so the radius-n ball is built once.
    balls, real = [], GraphModel.ball
    monkeypatch.setattr(GraphModel, "ball",
                        lambda self, *a: balls.append(a) or real(self, *a))
    cfg = _write(tmp_path, "radius = 6\nt = 0.25\nn_paths = 2000\n")
    cli.main(["fk-compare", "--config", cfg, "--seed", "5"])
    assert balls == [((0,), 6)]


def test_cli_fk_compare_benchmark_summary_is_pinned(capsys):
    # The field draw, the stratum order and the killed-walk stream all feed
    # this line, so a change to any of them from one version to the next
    # shows here.
    argv = ["fk-compare", "--config", str(_BENCH_CONFIGS / "mc_fk_compare.cfg"),
            "--seed", "41"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == \
        "mc=3.140315 se=0.007583 exact=3.137941 z=0.313 pass=True\n"


def test_cli_tail_check_benchmark_csv_is_pinned(tmp_path, capsys):
    # Every generator call of the jump-count sampler, in its order and
    # sizes, feeds these rows, so a change to the draw order shows here.
    out = tmp_path / "tail.csv"
    argv = ["tail-check", "--config", str(_BENCH_CONFIGS / "mc_tail_check.cfg"),
            "--seed", "41", "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "points=10 pass=True\n"
    assert out.read_text() == """\
# config_hash=9292dfcbefb5521b
x,empirical,bound,se
1,0.392562,0.8243606353500641,0.0004883206693925621
2,0.090277,0.2801055668961291,0.0002865781974801991
3,0.014306,0.05640043500325683,0.00011874905626572363
4,0.001709,0.008084827138352622,4.130471303616574e-05
5,0.000164,0.0009001713130052196,1.2805198319432621e-05
6,1.9e-05,8.194683302530091e-05,4.358857533804013e-06
7,0.0,6.309833254801593e-06,0.0
8,0.0,4.20967679111302e-07,0.0
9,0.0,2.4777104370464048e-08,0.0
10,0.0,1.3046608232091703e-09,0.0
"""


def _benchmark_run(name, tmp_path, capsys):
    """Summary line and CSV of one benchmark config at seed 41."""
    out = tmp_path / f"{name}.csv"
    argv = [_BENCH_COMMANDS[name], "--config",
            str(_BENCH_CONFIGS / f"{name}.cfg"), "--seed", "41",
            "--out", str(out)]
    assert cli.main(argv) == 0
    return capsys.readouterr().out, out.read_text()


def test_cli_sweep_variance_benchmark_csv_is_pinned(tmp_path, capsys):
    # The member fields (one draw at the config's seed for every t) and the
    # exact member traces feed the ens_var and ens_se columns.  Every ens_var
    # sits below its lower: the radius-6 ball is far inside radius_for(t).
    summary, csv = _benchmark_run("exact_sweep_variance", tmp_path, capsys)
    assert summary == "slope=1.671104 ci95=0.270601 r2=0.997175 pass=True\n"
    assert csv == """\
# config_hash=9d18b28913835bf6
t,frozen,ens_var,ens_se,lower,radius
0.5,0.6464734392683859,0.22810831219918976,0.010878841001045069,0.23782428757023416,6
0.25,0.17209004382093251,0.09527754313665089,0.0035878936669408255,0.10437788780868619,6
0.125,0.05670327627047712,0.03985890991154497,0.001404947564071442,0.04416055596216179,6
0.0625,0.01969812707816612,0.015991718717204235,0.0005514902547799689,0.01738353613319935,6
"""


def test_cli_rigidity_demo_benchmark_csv_is_pinned(tmp_path, capsys):
    # The member fields and their eigenvalues feed every column.
    summary, csv = _benchmark_run("exact_rigidity_demo", tmp_path, capsys)
    assert summary == \
        "cut=0.318411 mae=['0.3740', '0.2125', '0.0790', '0.0085'] pass=True\n"
    assert csv == """\
# config_hash=da4e172b17c98566
# expectation column is the plug-in ensemble mean of the exponential linear statistic
t,mean_statistic,mae
1.0,1.2951432171364043,0.374
0.5,1.8273045098398837,0.2125
0.25,2.894480251017454,0.079
0.125,4.476694500507761,0.0085
"""


def test_cli_power_sweep_variance_benchmark_csv_is_pinned(tmp_path, capsys):
    # The power-decay prefactor and exponent feed the FFT kernel behind
    # every frozen and lower value.
    summary, csv = _benchmark_run("power_sweep_variance", tmp_path, capsys)
    assert summary == "slope=1.217150 ci95=0.005697 r2=0.999956 pass=True\n"
    assert csv == """\
# config_hash=577e45937bba551e
t,frozen,ens_var,ens_se,lower,radius
0.015625,0.02196259536513586,,,0.021286877343245796,84
0.0078125,0.009670740815058152,,,0.00952080987562753,101
0.00390625,0.004231165778940052,,,0.004198238585617195,126
0.001953125,0.0018406120704270602,,,0.0018334362040156231,160
0.0009765625,0.000796659766037679,,,0.0007951053084512722,210
0.00048828125,0.0003433084866184035,,,0.0003429733880734079,279
0.000244140625,0.00014738840359113936,,,0.00014731645416440588,378
0.0001220703125,6.307328691023999e-05,,,6.305789003813038e-05,517
6.103515625e-05,2.6917686595461417e-05,,,2.6914400945591164e-05,714
3.0517578125e-05,1.1460914001839898e-05,,,1.146021450451021e-05,993
1.52587890625e-05,4.870170012755873e-06,,,4.870021389229853e-06,1387
7.62939453125e-06,2.0660659807999238e-06,,,2.066034455375454e-06,1945
"""


def test_cli_power_spectral_check_benchmark_summary_is_pinned(capsys):
    # The correlated member fields (one covariance factor, one draw of all
    # trials) feed every matrix whose residual this line reports.
    argv = ["spectral-check", "--config",
            str(_BENCH_CONFIGS / "power_spectral_check.cfg"), "--seed", "41"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == \
        "max_residual=5.722e-14 trials=200 pass=True\n"


def test_cli_fk_compare_summary_repeats_for_a_seed(tmp_path, capsys):
    cfg = _write(tmp_path, "radius = 6\nt = 0.25\nn_paths = 20000\n")
    outs = []
    for _ in range(2):
        assert cli.main(["fk-compare", "--config", cfg, "--seed", "5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text", [
    "q = 1\nt = 20\nn_paths = 1000\nx_max = 10\n",   # every x <= q t
])
def test_cli_tail_check_refuses_without_rows(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    assert cli.main(["tail-check", "--config", cfg, "--out",
                     str(tmp_path / "tail.csv")]) == 2
    assert "points=0 pass=False" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["radius = 4\ntrials = 0\n",
                                  "radius = 4\ntrials = 3\nt_grid =\n"])
def test_spectral_check_refuses_without_trials(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    with pytest.raises(ConfigError):
        cli.spectral_check(cli.parse_config(cfg))
    assert cli.main(["spectral-check", "--config", cfg]) == 1


@pytest.mark.parametrize("m", [1, 2, -1])
def test_sweep_rejects_too_small_ensemble(tmp_path, capsys, m):
    cfg = _write(tmp_path, f"t_exp_min = 2\nt_exp_max = 5\nradius = 5\n"
                           f"ensemble = {m}\n")
    with pytest.raises(ConfigError):
        cli.sweep_variance(cli.parse_config(cfg))
    assert cli.main(["sweep-variance", "--config", cfg]) == 1


# -- the one config gate -------------------------------------------------------

@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("key", ["frobnicate", "slope_tol", "residual_tol",
                                 "mae_threshold"])
def test_library_calls_and_main_refuse_an_unknown_key(tmp_path, capsys,
                                                      command, key):
    # The library calls pass through the gate that main uses.  The three
    # pass tolerances are constants (0.1, 1e-8, 0.25), not keys.
    with pytest.raises(ConfigError, match=f"unknown config key.*{key!r}"):
        cli._COMMANDS[command][0]({key: "7"})
    assert cli.main([command, "--config",
                     _write(tmp_path, f"{key} = 7\n")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and repr(key) in captured.err


def test_main_holds_no_refusal_of_its_own():
    # Every refusal of a config is the gate's, so main and the library
    # calls accept and refuse the same configs.
    tree = ast.parse(inspect.getsource(cli.main))
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(tree))


def test_least_values_are_declared_in_the_key_table():
    # No subcommand body checks a key's least value.
    bounded = sorted((command, key)
                     for command, (*_, keys) in cli._COMMANDS.items()
                     for key, spec in keys.items() if len(spec) == 3)
    assert bounded == [("fk-compare", "n_paths"), ("fk-compare", "radius"),
                       ("fk-compare", "seed"),
                       ("rigidity-demo", "members"), ("rigidity-demo", "radius"),
                       ("rigidity-demo", "seed"),
                       ("spectral-check", "radius"), ("spectral-check", "seed"),
                       ("spectral-check", "trials"),
                       ("sweep-variance", "radius"), ("sweep-variance", "seed"),
                       ("tail-check", "n_paths"), ("tail-check", "seed"),
                       ("tail-check", "x_max")]


def _cycle_file(tmp_path, n=10):
    """An edge list of the n-cycle, a regular graph, rooted at 0."""
    path = tmp_path / "cycle.txt"
    path.write_text(f"{n} 0\n" + "".join(f"{k} {(k + 1) % n}\n"
                                          for k in range(n)))
    return str(path)


_EDGE_LIST = "graph = edge_list\ngraph_file = {}\n"


@pytest.mark.parametrize("command, text, key", [
    ("rigidity-demo", _EDGE_LIST + "d = 5\n", "d"),
    ("fk-compare", _EDGE_LIST + "d = 5\n", "d"),
    ("rigidity-demo", "cut_value = 0.5\ncut_index = 7\n", "cut_index"),
    ("sweep-variance", "ensemble = 0\n", "radius")])
def test_gate_refuses_a_key_its_partner_makes_inert(tmp_path, capsys,
                                                    command, text, key):
    # Each ran as without the key, yet entered the config hash.
    path = _write(tmp_path, "radius = 4\n"
                  + text.format(_cycle_file(tmp_path)))
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config key {key!r} changes nothing with" in captured.err
    with pytest.raises(ConfigError, match=f"{key!r} changes nothing"):
        cli._COMMANDS[command][0](cli.parse_config(path))


@pytest.mark.parametrize("command", ["spectral-check", "fk-compare"])
def test_out_is_refused_where_no_csv_is_written(tmp_path, capsys, command):
    # Both printed their summary and exited 0 without writing the file.
    out = tmp_path / "x.csv"
    path = _write(tmp_path, "radius = 2\ntrials = 1\n" if command ==
                  "spectral-check" else "radius = 2\nn_paths = 10\n")
    assert cli.main([command, "--config", path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"--out: {command} writes no CSV" in captured.err


@pytest.mark.parametrize("text, default", [
    (_EDGE_LIST, "d = 1\n"), ("cut_value = 0.5\n", "cut_index = 1\n")])
def test_gate_accepts_an_inert_key_at_its_default(tmp_path, capsys, text,
                                                  default):
    # Written out at its default the key runs, and hashes, as left out.
    text = "radius = 4\nmembers = 20\n" + text.format(_cycle_file(tmp_path))
    runs = []
    for name, body in (("bare", text), ("default", text + default)):
        path, out = _write(tmp_path, body, f"{name}.cfg"), tmp_path / "r.csv"
        rc = cli.main(["rigidity-demo", "--config", path, "--seed", "3",
                       "--out", str(out)])
        runs.append((rc, capsys.readouterr().out, out.read_text()))
    assert runs[0] == runs[1] and runs[0][0] in (0, 2)
    cfg = cli.effective_config("rigidity-demo", cli.parse_config(path))
    assert cli.effective_config("rigidity-demo", cfg) == cfg


def test_rigidity_demo_checks_cut_index_before_any_spectrum(monkeypatch):
    # The range is known once the truncation is built (25 vertices here);
    # no member's spectrum is solved first.
    def solved(self, fields):
        raise AssertionError("eigenvalues solved before the cut_index check")
    monkeypatch.setattr(operators.Truncation, "eigenvalues", solved)
    for idx in (0, 26, 1000):
        with pytest.raises(ConfigError, match=rf"cut_index {idx} outside "
                                              r"1\.\.25"):
            cli.rigidity_demo({"radius": "12", "members": "500",
                               "cut_index": str(idx)})


@pytest.mark.parametrize("expect, code", [("1.41", 0), ("1.39", 2)])
def test_sweep_slope_tolerance_is_0_1(tmp_path, capsys, expect, code):
    # The fitted slope is 1.500067 here: 0.09 away passes, 0.11 away fails.
    path = _write(tmp_path, f"t_exp_min = 6\nt_exp_max = 12\n"
                            f"expect_slope = {expect}\n")
    assert cli.main(["sweep-variance", "--config", path,
                     "--out", str(tmp_path / "sweep.csv")]) == code
    assert capsys.readouterr().out.startswith("slope=1.500067 ")


def test_cli_names_the_bad_edge_list_line(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 0\n0 1\n1 x\n")
    path = _write(tmp_path, _EDGE_LIST.format(graph) + "radius = 2\n")
    assert cli.main(["fk-compare", "--config", path]) == 1
    assert capsys.readouterr().err == \
        f"error: {graph}:3: expected an edge 'u v', got '1 x'\n"


def test_sweep_refuses_a_pairwise_sum_over_the_cap(tmp_path, capsys,
                                                  sweep_calls):
    # A star of 6400 leaves: 6401 ball vertices at every certified radius,
    # 6401^2 pairs over the pairwise cap.  Refused at the first grid t, by
    # the key that sets it, after one frozen sum and before the ensemble.
    graph = tmp_path / "star.txt"
    graph.write_text("6401 0\n" + "".join(f"0 {k}\n" for k in range(1, 6401)))
    path = _write(tmp_path, _EDGE_LIST.format(graph) + "t_exp_min = 1\n"
                  "t_exp_max = 4\nensemble = 40\n")
    assert cli.main(["sweep-variance", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and sweep_calls == ["frozen"]
    assert captured.err == ("error: t_exp_min = 1 reaches t = 2^-1: pairwise "
                            "sum over 6401 vertices is too large\n")


def test_readme_sweep_example_runs(tmp_path, capsys):
    # The README's example config passes the gate and the check, so it
    # names no key that the gate refuses.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block, = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert cli.main(["sweep-variance", "--config", _write(tmp_path, block),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert capsys.readouterr().out.endswith(" pass=True\n")


# -- one ensemble per sweep ------------------------------------------------------


def test_sweep_draws_one_ensemble_for_every_t(monkeypatch):
    # One truncation, one draw of members and one eigenvalue solve serve
    # the whole t grid, and every t uses the config's seed: each row is the
    # one-t library call at that seed, bit for bit.
    from fksim import feynman_kac
    calls = []
    build, solve = operators.Truncation.build, operators.Truncation.eigenvalues
    draw = feynman_kac.sample_fields
    monkeypatch.setattr(operators.Truncation, "build", classmethod(
        lambda cls, *a: calls.append("build") or build(*a)))
    monkeypatch.setattr(operators.Truncation, "eigenvalues",
                        lambda self, f: calls.append("eigenvalues")
                        or solve(self, f))
    monkeypatch.setattr(feynman_kac, "sample_fields",
                        lambda *a: calls.append("sample_fields") or draw(*a))
    res = cli.sweep_variance({"t_exp_min": "1", "t_exp_max": "6",
                              "ensemble": "20", "radius": "5", "seed": "7"})
    assert sorted(calls) == ["build", "eigenvalues", "sample_fields"]
    graph, model, pot, spec = cli._model_from(
        cli.effective_config("sweep-variance", {}))
    for t, _, ens_var, ens_se, _, radius in res.rows:
        est, = feynman_kac.ensemble_variance(graph, spec, pot, model, 5,
                                             (t,), 20, 7)
        assert (ens_var, ens_se, radius) == (est.value, est.stderr, 5), t


@pytest.mark.parametrize("text, radius", [
    ("t_exp_min = 1\nt_exp_max = 4\n", [50, 52, 56, 63]),
    ("t_exp_min = 1\nt_exp_max = 4\nensemble = 3\n", [63] * 4),
    # t = 8 .. 1: radius_for is 64, 54, 50, 49, largest at the largest t.
    ("t_exp_min = -3\nt_exp_max = 0\nensemble = 3\n", [64] * 4)])
def test_sweep_radius_column(tmp_path, capsys, text, radius):
    # With the ensemble off the column is radius_for(t); with it on, the
    # ensemble's one ball, certified for every t of the grid.
    rows = _sweep_rows(tmp_path, text, seed=2)
    assert [int(r["radius"]) for r in rows] == radius
    assert all(int(r["radius"]) >= cli.radius_for(r["t"]) for r in rows)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("noise", ["noise = iid\n", "noise = constant\n",
                                   "noise = power_decay\nbeta = 1\n"])
def test_sweep_on_an_explicit_graph_takes_the_pairwise_sum(tmp_path, capsys,
                                                            noise):
    # The 10-cycle has no closed radial counts: every noise kind takes the
    # pairwise sum over the ball.  iid and constant noise used to fail with
    # "radial closed forms require a lattice kind".
    text = (_EDGE_LIST.format(_cycle_file(tmp_path)) + noise
            + "t_exp_min = 6\nt_exp_max = 9\n")
    rows = _sweep_rows(tmp_path, text, seed=3)
    cfg = cli.effective_config("sweep-variance",
                               cli.parse_config(_write(tmp_path, text)))
    graph, model, pot, _ = cli._model_from(cfg)
    assert [r["frozen"] for r in rows] == [
        frozen_variance_sum(r["t"], graph, pot, model) for r in rows]
    assert all(r["frozen"] > 0.0 for r in rows)


@pytest.mark.parametrize("command", sorted(_MODEL_COMMANDS))
@pytest.mark.parametrize("text, named", [
    ("graph = edge_list\n", "'graph_file'"), ("graph = torus\n", "'torus'")])
def test_cli_refuses_a_graph_it_cannot_build(tmp_path, capsys, command, text,
                                             named):
    path = _write(tmp_path, _MODEL_COMMANDS[command] + text)
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err
    with pytest.raises(ConfigError, match=named):
        cli._COMMANDS[command][0](cli.parse_config(path))


@pytest.mark.parametrize("command", ["fk-compare", "spectral-check"])
def test_a_zero_jump_rate_is_refused_by_name(tmp_path, capsys, command):
    # symmetric_walk refuses q = 0, as the README promises.
    path = _write(tmp_path, "q = 0\n")
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q must be positive, got 0.0\n"
    with pytest.raises(DomainError, match=r"q must be positive, got 0\.0"):
        cli._COMMANDS[command][0]({"q": "0"})


def test_parse_config_refuses_an_empty_key(tmp_path):
    path = _write(tmp_path, "radius = 3\n = 4\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: empty key in '= 4'"):
        cli.parse_config(path)
