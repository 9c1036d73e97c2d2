"""Tracing wraps every binding of a traced name, restores them, computes self
times, and reports metrics of a missing function as absent."""

import json
import sys
import time
import types
from pathlib import Path

import pytest

import bench_trace
import run

ROOT = Path(__file__).resolve().parent.parent


class _Path:
    jumps = 3


@pytest.fixture
def fakepkg(monkeypatch):
    """fakepkg.walker defines sample_path; fakepkg.cli imports it and calls it
    from main; fakepkg has no noise module."""
    walker = types.ModuleType("fakepkg.walker")

    def sample_path():
        time.sleep(0.01)
        return _Path()

    walker.sample_path = sample_path
    cli = types.ModuleType("fakepkg.cli")
    cli.sample_path = sample_path

    def main():
        time.sleep(0.01)
        return cli.sample_path(), walker.sample_path()

    cli.main = main
    pkg = types.ModuleType("fakepkg")
    pkg.sample_path = sample_path
    for name, mod in (("fakepkg", pkg), ("fakepkg.walker", walker),
                      ("fakepkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, walker, cli


def test_every_binding_is_wrapped_and_restored(fakepkg):
    pkg, walker, cli = fakepkg
    orig = walker.sample_path
    spans = (("walker", "sample_path"), ("cli", "main"), ("noise", "sample_field"))
    with bench_trace.Tracer("fakepkg", spans) as tr:
        assert pkg.sample_path is walker.sample_path is cli.sample_path
        assert walker.sample_path is not orig
        cli.main()
    assert pkg.sample_path is walker.sample_path is cli.sample_path is orig
    assert tr.calls["walker.sample_path"] == 2
    assert tr.counters["jumps"] == 6
    assert tr.missing == {"noise.sample_field"}
    main_s, main_self = tr.total["cli.main"], tr.self_time["cli.main"]
    assert main_self == pytest.approx(main_s - tr.total["walker.sample_path"])
    assert 0.005 < main_self < main_s


def test_missing_function_makes_its_metrics_absent(fakepkg):
    with bench_trace.Tracer("fakepkg") as tr:
        fakepkg[2].main()
    metrics = bench_trace.layer_metrics(tr)
    assert metrics["walker.paths"] == 2
    assert metrics["walker.jumps"] == 6
    assert metrics["walker.paths_per_s"] > 0
    assert metrics["noise.sample_field_s"] is None
    assert metrics["lattice.distance_calls"] is None
    assert metrics["cli.self_s"] is not None


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
