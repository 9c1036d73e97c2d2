import importlib.util
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fksim
from fksim.errors import ConfigError, DomainError
from fksim import cli, operators
from fksim.feynman_kac import member_fields
from fksim.lattice import GraphModel
from fksim.walker import MarkovSpec, chernoff_jump_bound, sample_jump_counts


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config(tmp_path):
    path = _write(tmp_path, "a = 1\n# comment\nb=two  # trailing\n\nc=3\n")
    cfg = cli.parse_config(path)
    assert cfg == {"a": "1", "b": "two", "c": "3"}


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


def _scipy_modules_after_cli_import(sub):
    """The scipy.<sub> modules that a fresh ``import fksim.cli`` loads."""
    code = ("import sys; from fksim import cli; print(sorted(k for k in "
            f"sys.modules if k.split('.')[:2] == ['scipy', {sub!r}]))")
    env = {**os.environ, "PYTHONPATH": str(Path(fksim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the start-up time and no subcommand needs it.
    assert _scipy_modules_after_cli_import("stats") == "[]"


def test_cli_import_leaves_scipy_linalg_unloaded():
    # The matrix exponential is numpy products alone; scipy.linalg took
    # about 0.27 s of the import.
    assert _scipy_modules_after_cli_import("linalg") == "[]"


def test_fit_exponent_too_few_rows():
    with pytest.raises(DomainError):
        cli.fit_exponent([(0.5, 1.0), (0.25, 0.5), (0.125, 0.25)])


def test_fit_exponent_nonpositive_value():
    rows = [(0.5, 1.0), (0.25, -1.0), (0.125, 0.3), (0.0625, 0.1)]
    with pytest.raises(DomainError) as err:
        cli.fit_exponent(rows)
    assert "row 1" in str(err.value)


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
    ("", ()),                            # each t at its certified radius
    ("radius = 55\nensemble = 0\n", ()),  # no ens_var column to bound
])
def test_sweep_warns_below_the_certified_radius(tmp_path, capsys, text,
                                                warned):
    path = _write(tmp_path, "ensemble = 3\nt_exp_min = 1\nt_exp_max = 4\n"
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
        return MarkovSpec(rate=lambda v: q, sup_rate=q, kernel=kernel)
    return make


def test_rigidity_demo_refuses_complex_spectra(monkeypatch):
    # Without noise every member has the walk's own spectrum.
    cfg = {"graph": "zd_l1", "d": "2", "radius": "6", "members": "5",
           "gamma0": "0"}
    monkeypatch.setattr(cli, "symmetric_walk", _rotation_walk(0.6))
    graph, model, pot, spec = cli._model_from(cli.effective_config(
        "rigidity-demo", cfg))
    trunc = operators.Truncation.build(graph, spec, pot, 6)
    eigs = trunc.eigenvalues(member_fields(trunc, graph, model, 0, 5))
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
    rep = cli.tail_check(cfg, seed=0)
    assert rep.passed
    assert all(x > 0.5 for x, *_ in rep.rows)   # x <= q t excluded


def _tail_rows_by_scan(q, t, n_paths, x_max, seed):
    """tail_check's rows as one scan of the counts per x, and the largest
    count."""
    counts = sample_jump_counts(q, t, n_paths, seed)
    rows = []
    for x in range(1, x_max + 1):
        if x > q * t:
            emp = float((counts >= x).mean())
            rows.append((x, emp, chernoff_jump_bound(q, t, x),
                         math.sqrt(emp * (1.0 - emp) / n_paths)))
    return tuple(rows), int(counts.max())


@pytest.mark.parametrize("q, t, x_max, beyond", [
    (1.0, 0.5, 10, True), (2.0, 0.7, 6, False), (3.0, 1.0, 25, True),
    (0.5, 4.0, 9, False)])
def test_tail_check_rows_equal_a_scan_per_x(q, t, x_max, beyond):
    # beyond: some x exceeds every count; q t >= 1 in the last two cases.
    cfg = {"q": str(q), "t": str(t), "n_paths": "20000", "x_max": str(x_max)}
    rep = cli.tail_check(cfg, seed=5)
    rows, top = _tail_rows_by_scan(q, t, 20000, x_max, 5)
    assert rep.rows == rows and rows
    assert (x_max > top) == beyond


def test_tail_check_t_zero_trivial(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "t = 0\n"))
    rep = cli.tail_check(cfg)
    assert not rep.passed and rep.rows == ()


def test_tail_check_without_rows_fails():
    rep = cli.tail_check({"q": "1", "t": "20", "n_paths": "1000",
                          "x_max": "10"}, seed=0)
    assert rep.rows == () and not rep.passed


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
    # (spectral-check and fk-compare write none).
    argv = [_BENCH_COMMANDS[name], "--config",
            str(_BENCH_CONFIGS / f"{name}.cfg"), "--seed", "41", "--out"]
    runs = []
    for k in range(2):
        out = tmp_path / f"{k}.csv"
        rc = cli.main(argv + [str(out)])
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


def test_cli_spectral_check(tmp_path, capsys):
    cfg = _write(tmp_path, "radius = 6\ntrials = 5\n")
    assert cli.main(["spectral-check", "--config", cfg, "--seed", "3"]) == 0


def test_spectral_check_one_expm_per_trial(monkeypatch):
    calls, real = [], operators.expm_neg
    monkeypatch.setattr(operators, "expm_neg",
                        lambda mat, t: calls.append(t) or real(mat, t))
    for grid, per_trial in (("0.5 1", 1), ("1 .5 .25 .125", 1),
                            ("0.3 0.7", 2)):
        calls.clear()
        rep = cli.spectral_check({"radius": "3", "trials": "4",
                                  "t_grid": grid})
        assert rep.passed
        assert len(calls) == 4 * per_trial


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
        "mc=3.140079 se=0.007583 exact=3.137941 z=0.282 pass=True\n"


def test_cli_fk_compare_summary_repeats_for_a_seed(tmp_path, capsys):
    cfg = _write(tmp_path, "radius = 6\nt = 0.25\nn_paths = 20000\n")
    outs = []
    for _ in range(2):
        assert cli.main(["fk-compare", "--config", cfg, "--seed", "5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text", [
    "q = 1\nt = 20\nn_paths = 1000\nx_max = 10\n",   # every x <= q t
    "t = 0\n",
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
