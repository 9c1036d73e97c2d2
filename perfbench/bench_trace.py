"""Per-layer tracing of fksim from outside the program.

Every binding of a traced public name inside the package (the defining
module, each module that imported it, and the package namespace) is replaced
by a wrapper that records a span, and restored on exit.  Spans are kept as
per-name aggregates (calls, total time, self time), because the walker layer
alone makes hundreds of thousands of calls per round.  Self time is a span's
time minus the time of the traced spans it called.

A traced function that is missing (renamed or removed) is skipped; every
layer metric computed from it is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute) of every traced public function.
SPANS = (
    ("lattice", "GraphModel.ball"),
    ("lattice", "GraphModel.distance"),
    ("walker", "sample_path"),
    ("walker", "sample_jump_counts"),
    ("noise", "sample_field"),
    ("noise", "covariance"),
    ("operators", "assemble"),
    ("operators", "expm_neg"),
    ("operators", "spectrum"),
    ("feynman_kac", "mc_dirichlet_trace"),
    ("feynman_kac", "paired_walker_variance"),
    ("feynman_kac", "ensemble_variance"),
    ("feynman_kac", "frozen_variance_sum"),
    ("feynman_kac", "lower_bound_sum"),
    ("cli", "parse_config"),
    ("cli", "main"),
    ("cli", "sweep_variance"),
    ("cli", "rigidity_demo"),
    ("cli", "tail_check"),
    ("cli", "spectral_check"),
    ("cli", "fk_compare"),
)
CLI_SPANS = tuple(f"cli.{a}" for m, a in SPANS
                  if m == "cli" and a != "parse_config")


def span_name(module, attr):
    return f"{module}.{attr.rpartition('.')[2]}"


def _max_dim(tracer, name, args, out):
    if args:
        tracer.max_dim[name] = max(tracer.max_dim[name], np.shape(args[0])[0])


# Counters read from a span's arguments or result.
_HOOKS = {
    "walker.sample_path":
        lambda tr, name, args, out: tr.add("jumps", getattr(out, "jumps", 0)),
    "noise.sample_field":
        lambda tr, name, args, out: tr.add(
            "field_vertices", len(getattr(out, "vertices", ()))),
    "operators.expm_neg": _max_dim,
    "operators.spectrum": _max_dim,
}


class Tracer:
    """Context manager that wraps the traced functions of ``package``."""

    def __init__(self, package="fksim", spans=SPANS):
        self.package = package
        self.spans = spans
        self.missing = set()
        self._patched = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.max_dim = defaultdict(int)
        self._stack = []

    def add(self, counter, n):
        self.counters[counter] += n

    def span_table(self):
        """Calls, total and self seconds of every span name seen."""
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)}

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]   # time of the traced spans this one calls
            self._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[0]
            if hook is not None:
                hook(self, name, args, out)
            return out

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(prefix))]

    def __enter__(self):
        for module, attr in self.spans:
            name = span_name(module, attr)
            owner_name, _, fname = attr.rpartition(".")
            owner = sys.modules.get(f"{self.package}.{module}")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            orig = vars(owner).get(fname) if owner is not None else None
            if not callable(orig):
                self.missing.add(name)
                continue
            wrapped = self._wrap(name, orig)
            targets = [owner] if owner_name else self._modules()
            for target in targets:
                for key, val in list(vars(target).items()):
                    if val is orig:
                        setattr(target, key, wrapped)
                        self._patched.append((target, key, orig))
        return self

    def __exit__(self, *exc):
        for target, key, orig in reversed(self._patched):
            setattr(target, key, orig)
        self._patched.clear()
        return False


def _calls(span):
    return (span,), lambda tr: tr.calls[span]


def _total(span):
    return (span,), lambda tr: tr.total[span]


def _self(span):
    return (span,), lambda tr: tr.self_time[span]


def _rate(count_fn, span):
    def rate(tr):
        busy = tr.total[span]
        return count_fn(tr) / busy if busy > 0 else 0.0
    return (span,), rate


def _jumps(tr):
    return tr.counters["jumps"]


# name -> (unit, spans it is computed from, value function)
LAYER_METRICS = {
    "lattice.ball_calls": ("count", *_calls("lattice.ball")),
    "lattice.ball_s": ("s", *_total("lattice.ball")),
    "lattice.distance_calls": ("count", *_calls("lattice.distance")),
    "lattice.distance_s": ("s", *_total("lattice.distance")),
    "walker.paths": ("count", *_calls("walker.sample_path")),
    "walker.jumps": ("count", ("walker.sample_path",), _jumps),
    "walker.sample_path_s": ("s", *_total("walker.sample_path")),
    "walker.paths_per_s": ("1/s", *_rate(
        lambda tr: tr.calls["walker.sample_path"], "walker.sample_path")),
    "walker.jumps_per_s": ("1/s", *_rate(_jumps, "walker.sample_path")),
    "walker.jump_counts_s": ("s", *_total("walker.sample_jump_counts")),
    "noise.sample_field_calls": ("count", *_calls("noise.sample_field")),
    "noise.field_vertices": ("count", ("noise.sample_field",),
                             lambda tr: tr.counters["field_vertices"]),
    "noise.sample_field_s": ("s", *_total("noise.sample_field")),
    "noise.covariance_calls": ("count", *_calls("noise.covariance")),
    "operators.assemble_calls": ("count", *_calls("operators.assemble")),
    "operators.assemble_s": ("s", *_total("operators.assemble")),
    "operators.expm_calls": ("count", *_calls("operators.expm_neg")),
    "operators.expm_s": ("s", *_total("operators.expm_neg")),
    "operators.expm_max_dim": ("count", ("operators.expm_neg",),
                               lambda tr: tr.max_dim["operators.expm_neg"]),
    "operators.spectrum_calls": ("count", *_calls("operators.spectrum")),
    "operators.spectrum_s": ("s", *_total("operators.spectrum")),
    "operators.spectrum_max_dim": ("count", ("operators.spectrum",),
                                   lambda tr: tr.max_dim["operators.spectrum"]),
    "feynman_kac.mc_trace_self_s": ("s",
                                    *_self("feynman_kac.mc_dirichlet_trace")),
    "feynman_kac.paired_self_s": ("s",
                                  *_self("feynman_kac.paired_walker_variance")),
    "feynman_kac.ensemble_self_s": ("s", *_self("feynman_kac.ensemble_variance")),
    "feynman_kac.frozen_sum_s": ("s", *_total("feynman_kac.frozen_variance_sum")),
    "feynman_kac.lower_bound_s": ("s", *_total("feynman_kac.lower_bound_sum")),
    "cli.parse_config_s": ("s", *_total("cli.parse_config")),
    # main's self time already holds any subcommand function that is missing.
    "cli.self_s": ("s", ("cli.main",),
                   lambda tr: sum(tr.self_time[s] for s in CLI_SPANS)),
}


def layer_metrics(tracer):
    """Layer metric values of one traced round; None marks an absent metric."""
    return {name: None if tracer.missing.intersection(spans)
            else float(fn(tracer))
            for name, (_, spans, fn) in LAYER_METRICS.items()}


def layer_self_times(spans):
    """Self time per layer (module) from a span_table, for the layer shares
    of a round."""
    out = defaultdict(float)
    for name, span in spans.items():
        out[name.split(".")[0]] += span["self_s"]
    return dict(out)
