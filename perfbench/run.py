#!/usr/bin/env python3
"""fksim benchmark: runs one workload's checks the way a user runs them and
checks every output against independent references.

    python3 perfbench/run.py --workload mc_paths --seed 1 --seconds 20 --trace 0

Each check is an ``fksim`` subcommand on a committed config in
``perfbench/configs`` (``fksim.cli.main`` in this process), except the
paired-walker variance, which no subcommand reaches and which is called
directly.  A run repeats whole rounds of its workload's checks, all with the
same ``--seed``, until ``--seconds`` of rounds have passed, and reports
medians over rounds of each check's CPU time at a nominal machine speed
(``bench_speed``).  With ``--trace 1`` untraced and traced rounds alternate
and the last line holds the per-layer metrics (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

_NPROC = len(os.sched_getaffinity(0))
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS thread, set before numpy loads.  On 2 cores, two threads made
    # the exact_spectra checks slower (4.2-5.3 s against 3.4-3.8 s), and
    # 7.1-7.4 s while another process held one core, against 4.0-4.1 s with
    # one thread.
    for _var in _BLAS_VARS:
        os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import bench_checks as bc
import bench_refs as br
import bench_speed
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = HERE / "configs"
OUT = HERE / "out"

SETUP_PROBES = 3   # per run: one before each round, the rest at the end
REF_VARIANCE_MEMBERS = 60_000
REF_MEAN_MEMBERS = 20_000
# Reference streams: SeedSequence([seed, tag]) never equals the program's
# SeedSequence(seed), so references and program draw independent noise.
_TAG_VARIANCE, _TAG_MEAN = 0x7EF1, 0x7EF2

WORKLOADS = {
    "mc_paths": (("fk_compare", "fk-compare", "mc_fk_compare.cfg"),
                 ("paired_variance", None, "mc_paired.cfg"),
                 ("tail_check", "tail-check", "mc_tail_check.cfg")),
    "exact_spectra": (("spectral_check", "spectral-check",
                       "exact_spectral_check.cfg"),
                      ("sweep_variance", "sweep-variance",
                       "exact_sweep_variance.cfg"),
                      ("rigidity_demo", "rigidity-demo",
                       "exact_rigidity_demo.cfg")),
    "power_decay": (("sweep_variance", "sweep-variance",
                     "power_sweep_variance.cfg"),
                    ("spectral_check", "spectral-check",
                     "power_spectral_check.cfg")),
}
CHECK_NAMES = ("fk_compare", "paired_variance", "tail_check", "spectral_check",
               "sweep_variance", "rigidity_demo")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "checks_cpu_s": "s"}
_WRITES_CSV = ("tail-check", "sweep-variance", "rigidity-demo")


def per_layer_units():
    """Every metric of a traced run: the layer metrics, the tracing overhead,
    and each check's untraced CPU time with the fk-compare efficiency."""
    units = {name: unit for name, (unit, _, _)
             in bench_trace.LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    units.update({f"check.{name}_s": "s" for name in CHECK_NAMES})
    units["check.fk_compare_eff"] = "1/s"
    return units


@dataclass
class Outcome:
    seconds: float
    failures: list            # output-check failures; empty when correct
    error: str = ""           # set when the operation itself failed
    nominal_s: float = 0.0    # CPU time at the nominal speed (bench_speed)
    eff: float = 0.0          # fk-compare: 1 / (nominal_s * relative SE^2)


@dataclass
class Check:
    name: str
    subcommand: str
    path: Path
    cfg: dict
    ref: object = None

    def num(self, key, cast=float):
        return cast(self.cfg[key])

    @property
    def ts(self):
        if "t_grid" in self.cfg:
            return [float(s) for s in self.cfg["t_grid"].split()]
        return [2.0 ** -k for k in range(self.num("t_exp_min", int),
                                         self.num("t_exp_max", int) + 1)]


# -- references -------------------------------------------------------------


def _require_z1(check):
    """The references cover Z^1 with the radial preset V = |n|^alpha."""
    cfg = check.cfg
    if (cfg.get("graph"), cfg.get("d")) != ("zd_l1", "1") \
            or "kappa" in cfg or "mu" in cfg:
        raise SystemExit(f"{check.path.name}: references need graph = zd_l1, "
                         "d = 1 and no kappa or mu")


def _ensemble_eigs(check, radius, members, seed, tag):
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    return br.z1_ensemble_eigs(radius, check.num("alpha"), check.num("gamma0"),
                               check.num("q") if "q" in check.cfg else 1.0,
                               members, rng)


def reference(check, seed):
    if check.name == "paired_variance":
        _require_z1(check)
        eigs = _ensemble_eigs(check, check.num("box_radius", int),
                              REF_VARIANCE_MEMBERS, seed, _TAG_VARIANCE)
        return br.variance_estimate(br.traces(eigs, check.num("t")))
    if check.name == "rigidity_demo":
        _require_z1(check)
        eigs = _ensemble_eigs(check, check.num("radius", int),
                              REF_MEAN_MEMBERS, seed, _TAG_MEAN)
        return [br.mean_estimate(br.traces(eigs, t)) for t in check.ts]
    if check.name == "sweep_variance":
        _require_z1(check)
        alpha = check.num("alpha")
        ref = {"slope": None, "ensemble": None}
        if check.cfg["noise"] == "iid":
            g0 = check.num("gamma0")
            ref["frozen"] = [br.iid_frozen_sum(t, alpha, g0) for t in check.ts]
            ref["lower"] = [br.iid_lower_sum(t, alpha, g0) for t in check.ts]
        else:
            beta = check.num("beta")
            scale = float(check.cfg.get("decay_scale", 1.0))
            ref["frozen"] = [br.power_decay_frozen_sum(t, alpha, beta, scale)
                             for t in check.ts]
            ref["lower"] = [br.power_decay_lower_sum(t, alpha, beta, scale)
                            for t in check.ts]
            d = check.num("d", int)
            ref["slope"] = 2.0 - (2.0 * d - beta) / alpha
        if int(check.cfg.get("ensemble", 0)) >= 2:
            eigs = _ensemble_eigs(check, check.num("radius", int),
                                  REF_VARIANCE_MEMBERS, seed, _TAG_VARIANCE)
            ref["ensemble"] = [br.variance_estimate(br.traces(eigs, t))
                               for t in check.ts]
        return ref
    return None


# -- running one check --------------------------------------------------------


def _run_cli(check, seed, out_dir):
    """One fksim subcommand, timed from argument parsing to its exit code."""
    from fksim import cli
    csv = out_dir / f"{check.name}.csv"
    argv = [check.subcommand, "--config", str(check.path), "--seed", str(seed)]
    if check.subcommand in _WRITES_CSV:
        argv += ["--out", str(csv)]
        csv.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with bench_speed.SpeedSampler() as speed:
            try:
                rc = cli.main(argv)
            except SystemExit as err:   # argparse rejects the arguments
                rc = err.code
    seconds = time.perf_counter() - start
    text = csv.read_text() if csv.exists() else ""
    return rc, stdout.getvalue(), stderr.getvalue(), text, seconds, speed


def _run_paired(check, seed):
    from fksim import (GraphModel, PotentialSpec, feynman_kac, iid_gaussian,
                       symmetric_walk)
    _require_z1(check)
    graph = GraphModel.zd_l1(1)
    spec = symmetric_walk(graph, check.num("q"))
    pot = PotentialSpec(alpha=check.num("alpha"))
    model = iid_gaussian(check.num("gamma0"))
    n_rep = check.num("n_rep", int)
    start = time.perf_counter()
    try:
        with bench_speed.SpeedSampler() as speed:
            est = feynman_kac.paired_walker_variance(
                graph, spec, pot, model, check.num("t"), n_rep,
                check.num("box_radius", int), seed)
        fails, error = bc.check_paired(est, n_rep, check.ref), ""
    except Exception as err:   # noqa: BLE001 - a failed operation is counted
        fails, error = [], repr(err)
    return Outcome(time.perf_counter() - start, fails, error,
                   nominal_s=speed.nominal_s)


def run_check(check, seed, out_dir):
    if check.name == "paired_variance":
        return _run_paired(check, seed)
    rc, out, err, text, seconds, speed = _run_cli(check, seed, out_dir)
    if rc not in (0, 2):   # 1: the subcommand raised; 2: its own check failed
        return Outcome(seconds, [], (err or out).strip()[-300:],
                       nominal_s=speed.nominal_s)
    eff = 0.0
    try:
        if check.name == "fk_compare":
            fails = bc.check_fk_compare(rc, out)
            if not fails:
                eff = 1.0 / (speed.nominal_s * bc.fk_relative_se(out) ** 2)
        elif check.name == "tail_check":
            fails = bc.check_tail(rc, out, text, check.num("q"),
                                  check.num("t"), check.num("n_paths", int),
                                  check.num("x_max", int))
        elif check.name == "spectral_check":
            fails = bc.check_spectral(rc, out, check.num("trials", int),
                                      check.cfg["t_grid"].split())
        elif check.name == "rigidity_demo":
            fails = bc.check_rigidity(rc, out, bc.csv_rows(text), check.ts,
                                      check.num("members", int), check.ref)
        else:
            rows = bc.csv_rows(text)
            ref = check.ref
            fails = bc.check_sweep_rows(rc, out, rows, check.ts)
            if not fails:
                fails += bc.check_sums(rows, "frozen", ref["frozen"])
                fails += bc.check_sums(rows, "lower", ref["lower"])
                if ref["ensemble"] is not None:
                    fails += bc.check_ensemble(rows, ref["ensemble"])
                if ref["slope"] is not None:
                    fails += bc.check_slope(bc.sweep_slope(out), ref["slope"])
    except (ValueError, KeyError, IndexError, TypeError) as err:
        fails = [f"{check.name}: output not parseable: {err!r}"]
    return Outcome(seconds, fails, nominal_s=speed.nominal_s, eff=eff)


# -- set-up, machine and the run ----------------------------------------------


_SETUP_PROBE = """\
import resource, sys
sys.path[:0] = sys.argv[1:3]
import bench_speed
with bench_speed.SpeedSampler() as speed:
    from fksim import cli
    for path in sys.argv[3:]:
        cli.parse_config(path)
ru = resource.getrusage(resource.RUSAGE_SELF)
print(speed.nominal(ru.ru_utime + ru.ru_stime))
"""


def measure_setup(checks):
    """CPU seconds, at the nominal speed, of a fresh Python process that
    imports fksim and parses the workload's configs: the work done before
    the first check can run."""
    paths = [str(c.path) for c in checks if c.subcommand]
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(HERE),
                           str(SRC), *paths], capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def machine():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return (f"nproc={_NPROC} blas={blas.get('name', '?')}-"
            f"{blas.get('version', '?')} "
            f"blas_threads={os.environ.get(_BLAS_VARS[0], 'unset')} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__}")


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _round_s(rounds):
    return _median([sum(o.seconds for o in r.values()) for r in rounds])


def traced_values(plain, traced, layer_rounds, span_rounds):
    """Per-layer metric values (None: absent) of a traced run, with the
    layer shares of the traced round printed."""
    values = {"trace.overhead_s": _round_s(traced) - _round_s(plain)}
    for name in bench_trace.LAYER_METRICS:
        values[name] = None if layer_rounds[0][name] is None \
            else _median([r[name] for r in layer_rounds])
    for name in CHECK_NAMES:
        values[f"check.{name}_s"] = _median(
            [r[name].nominal_s for r in plain if name in r])
    values["check.fk_compare_eff"] = _median(
        [r["fk_compare"].eff for r in plain if "fk_compare" in r
         and r["fk_compare"].eff])
    absent = [k for k, v in values.items() if v is None]
    if absent:
        print("absent (traced function missing): " + ", ".join(absent))
    shares = [bench_trace.layer_self_times(r) for r in span_rounds]
    for layer in sorted({k for r in shares for k in r}):
        share = _median([r.get(layer, 0.0) for r in shares])
        print(f"layer {layer:12s} self {share:8.4f} s "
              f"{100.0 * share / _round_s(traced):5.1f} % of the traced round")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "fksim" / "__init__.py").is_file():
        print(f"error: fksim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fksim   # noqa: F401 - fail here, before any result, if it is broken

    checks = [Check(name, sub, CONFIGS / cfg, bc.read_config(CONFIGS / cfg))
              for name, sub, cfg in WORKLOADS[args.workload]]
    print(f"machine {machine()}")
    for c in checks:
        c.ref = reference(c, args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = bench_trace.Tracer()
    setups = []
    plain, traced = [], []     # per round: {check: Outcome}
    layer_rounds, span_rounds = [], []
    attempted = failed = 0
    problems = []
    measured = 0.0   # seconds spent in rounds; set-up probes do not count
    while True:
        if not args.trace and len(setups) < SETUP_PROBES:
            setups.append(measure_setup(checks))
        trace_round = bool(args.trace) and len(plain) > len(traced)
        outcomes = {}
        start = time.perf_counter()
        with tracer if trace_round else contextlib.nullcontext():
            for c in checks:
                outcomes[c.name] = o = run_check(c, args.seed, out_dir)
                attempted += 1
                if o.error:
                    failed += 1
                    problems.append(f"{c.name}: operation failed: {o.error}")
                problems += o.failures
        measured += time.perf_counter() - start
        if trace_round:
            traced.append(outcomes)
            layer_rounds.append(bench_trace.layer_metrics(tracer))
            span_rounds.append(tracer.span_table())
            tracer.reset()
        else:
            plain.append(outcomes)
        if measured >= args.seconds and len(traced) >= args.trace:
            break
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(measure_setup(checks))

    for c in checks:
        times = [r[c.name].nominal_s for r in plain]
        bad = any(r[c.name].failures for r in plain + traced)
        print(f"check {c.name:16s} median {_median(times):8.4f} CPU s over "
              f"{len(times)} rounds: {'FAILED' if bad else 'ok'}")
    for p in dict.fromkeys(problems):
        print(f"  {p}")

    if args.trace:
        values = traced_values(plain, traced, layer_rounds, span_rounds)
        (out_dir / "trace.json").write_text(json.dumps(span_rounds, indent=1))
        units = per_layer_units()
    else:
        values = {
            "setup_s": _median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks_cpu_s": sum(_median([r[c.name].nominal_s for r in plain])
                                for c in checks)}
        units = END_TO_END
    metrics = {k: (v, units[k]) for k, v in values.items() if v is not None}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(o.failures for r in plain + traced
                           for o in r.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
