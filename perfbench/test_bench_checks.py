"""The benchmark's output checks: they pass good outputs and refuse outputs
that are wrong or carry no evidence."""

import sys
import warnings
from math import nan
from pathlib import Path

import pytest

import bench_checks as bc
import bench_refs as br

SRC = Path(__file__).resolve().parent.parent / "src"


# -- passes without evidence ---------------------------------------------------
# Outputs of fksim on inputs where it reports pass=True with no evidence.

def test_tail_check_without_rows_fails():
    # q=1, t=20, x_max=10: every x <= q t, so no row is written.
    csv = "# config_hash=979be7b73ad951d7\nx,empirical,bound,se\n"
    fails = bc.check_tail(0, "points=0 pass=True", csv, 1.0, 20.0, 1000, 10)
    assert any("no tail rows" in f for f in fails)


def test_spectral_check_without_trials_fails():
    out = "max_residual=0.000e+00 trials=0 pass=True"
    assert bc.check_spectral(0, out, 0, ["0.5", "1"])
    out = "max_residual=0.000e+00 trials=3 pass=True"
    assert bc.check_spectral(0, out, 3, [])


def test_fk_compare_with_nan_se_fails():
    # radius=10, n_paths=5: one path per stratum, so the ddof=1 SE is NaN.
    out = "mc=4.043625 se=nan exact=3.221672 z=0.000 pass=True"
    fails = bc.check_fk_compare(0, out)
    assert any("not finite" in f for f in fails)


def test_ensemble_with_nan_se_fails():
    rows = [{"t": "0.5", "ens_var": "0.48", "ens_se": "nan"}]
    assert bc.check_ensemble(rows, [br.Estimate(0.27, 0.002, 60000)])


def test_live_outputs_without_evidence_fail(tmp_path, capsys):
    """The same three cases, produced by the fksim CLI itself."""
    sys.path.insert(0, str(SRC))
    try:
        from fksim import cli
    finally:
        sys.path.remove(str(SRC))
    cases = {
        "tail-check": ("q = 1\nt = 20\nn_paths = 1000\nx_max = 10\n",
                       lambda rc, out, csv: bc.check_tail(
                           rc, out, csv, 1.0, 20.0, 1000, 10)),
        "spectral-check": ("graph = zd_l1\nd = 2\nradius = 4\ntrials = 0\n",
                           lambda rc, out, csv: bc.check_spectral(
                               rc, out, 0, ["0.5", "1"])),
        "fk-compare": ("radius = 10\nn_paths = 5\n",
                       lambda rc, out, csv: bc.check_fk_compare(rc, out)),
    }
    for sub, (text, check) in cases.items():
        cfg, csv = tmp_path / f"{sub}.cfg", tmp_path / f"{sub}.csv"
        cfg.write_text(text)
        argv = [sub, "--config", str(cfg), "--seed", "3"]
        if sub == "tail-check":
            argv += ["--out", str(csv)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # NaN-variance RuntimeWarnings
            rc = cli.main(argv)
        out = capsys.readouterr().out
        assert check(rc, out, csv.read_text() if csv.exists() else ""), sub


# -- fk-compare ------------------------------------------------------------------


def test_fk_compare_good_output_passes():
    out = "mc=3.214587 se=0.007770 exact=3.205410 z=1.181 pass=True"
    assert bc.check_fk_compare(0, out) == []
    assert bc.fk_relative_se(out) == pytest.approx(0.007770 / 3.205410)


@pytest.mark.parametrize("out,rc", [
    ("mc=3.300000 se=0.007770 exact=3.205410 z=12.2 pass=False", 2),
    ("mc=3.214587 se=0.070000 exact=3.205410 z=0.1 pass=True", 0),
    ("mc=3.214587 se=0.000000 exact=3.214587 z=0.000 pass=True", 0),
    ("error: boom", 1),
])
def test_fk_compare_bad_outputs_fail(out, rc):
    assert bc.check_fk_compare(rc, out)


# -- tail-check ------------------------------------------------------------------


def _tail_csv(q, t, n, xs, counts=None, bound=None):
    lines = ["# config_hash=0", "x,empirical,bound,se"]
    for x in xs:
        k = counts[x] if counts else round(n * br.poisson_tail(q * t, x))
        b = bound if bound is not None else br.chernoff_bound(q * t, x)
        lines.append(f"{x},{k / n!r},{b!r},0.0")
    return "\n".join(lines) + "\n"


def test_tail_check_expected_counts_pass():
    n = 10 ** 6
    csv = _tail_csv(1.0, 0.5, n, range(1, 11))
    assert bc.check_tail(0, "points=10 pass=True", csv, 1.0, 0.5, n, 10) == []


def test_tail_check_refuses_bad_rows():
    n = 10 ** 6
    good = {x: round(n * br.poisson_tail(0.5, x)) for x in range(1, 11)}
    far = {**good, 2: good[2] + 2000}       # about 7 SE high
    csv = _tail_csv(1.0, 0.5, n, range(1, 11), far)
    assert bc.check_tail(0, "points=10 pass=True", csv, 1.0, 0.5, n, 10)
    broken = {**good, 9: 5}                  # 5 paths above the bound
    csv = _tail_csv(1.0, 0.5, n, range(1, 11), broken)
    assert any("Chernoff" in f for f in
               bc.check_tail(0, "points=10 pass=True", csv, 1.0, 0.5, n, 10))
    csv = _tail_csv(1.0, 0.5, n, range(1, 10))
    assert bc.check_tail(0, "points=9 pass=True", csv, 1.0, 0.5, n, 10)
    csv = _tail_csv(1.0, 0.5, n, range(1, 11), bound=1.0)
    assert bc.check_tail(0, "points=10 pass=True", csv, 1.0, 0.5, n, 10)


# -- spectral-check, sweeps, rigidity and paired ---------------------------------


def test_spectral_check():
    out = "max_residual=3.318e-14 trials=20 pass=True"
    assert bc.check_spectral(0, out, 20, ["0.5", "1"]) == []
    assert bc.check_spectral(0, out, 21, ["0.5", "1"])
    out = "max_residual=3.000e-06 trials=20 pass=False"
    assert bc.check_spectral(2, out, 20, ["0.5", "1"])


def test_sweep_rows_and_slope():
    ts = [2.0 ** -k for k in range(1, 5)]
    rows = [{"t": repr(t), "frozen": repr(2 * t ** 1.5)} for t in ts]
    assert bc.check_sweep_rows(0, "slope=1.500000 pass=True", rows, ts) == []
    assert bc.check_sweep_rows(0, "slope=1.400000 pass=True", rows, ts)
    assert bc.check_sweep_rows(0, "slope=1.500000 pass=True", rows[:3], ts)
    assert bc.check_slope(1.217, 1.25) == []
    assert bc.check_slope(1.1, 1.25)


def test_sums_tolerance():
    rows = [{"t": "0.5", "frozen": repr(1.0 + 5e-10)}]
    assert bc.check_sums(rows, "frozen", [1.0]) == []
    rows = [{"t": "0.5", "frozen": repr(1.0 + 2e-9)}]
    assert bc.check_sums(rows, "frozen", [1.0])
    assert bc.check_sums(rows, "frozen", [br.PairSum(1.0, 3e-9)]) == []


def test_ensemble_within_combined_se():
    ref = [br.Estimate(0.27, 0.002, 60000)]
    ok = [{"t": "0.5", "ens_var": "0.29", "ens_se": "0.015"}]
    far = [{"t": "0.5", "ens_var": "0.40", "ens_se": "0.015"}]
    assert bc.check_ensemble(ok, ref) == []
    assert bc.check_ensemble(far, ref)


def test_rigidity_mean_statistic():
    ts = [1.0, 0.5]
    # Reference SE 0.01 over 20000 members: the spread is 0.01 * sqrt(20000),
    # so the SE of a 2000-member mean is about 0.032.
    refs = [br.Estimate(1.28, 0.01, 20000), br.Estimate(1.82, 0.01, 20000)]
    out = "cut=0.319342 mae=['0.3865', '0.2070'] pass=True"
    rows = [{"t": "1.0", "mean_statistic": "1.30"},
            {"t": "0.5", "mean_statistic": "1.80"}]
    assert bc.check_rigidity(0, out, rows, ts, 2000, refs) == []
    rows[1]["mean_statistic"] = "2.2"
    assert bc.check_rigidity(0, out, rows, ts, 2000, refs)
    assert bc.check_rigidity(0, out, [], ts, 2000, refs)


class _Est:
    def __init__(self, value, stderr, n_samples):
        self.value, self.stderr, self.n_samples = value, stderr, n_samples


def test_paired_variance():
    ref = br.Estimate(0.2649, 0.0018, 60000)
    assert bc.check_paired(_Est(0.262, 0.004, 2500), 2500, ref) == []
    assert bc.check_paired(_Est(0.31, 0.004, 2500), 2500, ref)
    assert bc.check_paired(_Est(0.262, nan, 2500), 2500, ref)
    assert bc.check_paired(_Est(0.262, 0.004, 2499), 2500, ref)
