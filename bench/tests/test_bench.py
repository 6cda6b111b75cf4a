"""Smoke tests of the benchmark itself, at toy sizes.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bench import trace, workloads
from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def dominant_share(workload, record):
    """Share of traced CPU time in the layer each workload is built for.

    ``walk``: self time of ``preimage_batch``; ``grid``: self time of the
    evaluation kernel plus the escape-rate loop; ``certify``: everything
    inside ``mass_certificate`` (its own stencils and its kernel calls).
    """
    spans = record["spans"]
    if workload == "walk":
        names = {"preimages.preimage_batch"}
        inside = sum(s["self_s"] for s in spans if s["name"] in names)
    elif workload == "grid":
        names = {"projective.evaluate", "green.escape_rate"}
        inside = sum(s["self_s"] for s in spans if s["name"] in names)
    else:
        inside = sum(s["self_s"] for s in spans
                     if s["root"] == "slices.mass_certificate")
    return inside / sum(record["traced_unit_cpu_s"])


def run_bench(workload, trace_flag, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0.1", "--trace", str(trace_flag),
           "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for workload in NAMES:
        for flag in (0, 1):
            proc = run_bench(workload, flag)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".bench_runs" / (
                "%s-seed0-trace%d.json" % (workload, flag))).read_text())
            runs[workload, flag] = (result, record)
    return runs


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)
    for size in workloads.SIZES.values():
        assert list(size) == NAMES


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("flag", (0, 1))
def test_printed_metrics_match_spec(smoke_runs, workload, flag):
    result, _ = smoke_runs[workload, flag]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if flag else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert np.isfinite(value["value"])
    if not flag:
        assert all(result["metrics"][name]["value"] > 0
                   for name in result["metrics"])


@pytest.mark.parametrize("workload", NAMES)
def test_traced_time_dominated_by_assigned_layer(smoke_runs, workload):
    _, record = smoke_runs[workload, 1]
    names = {span["name"] for span in record["spans"]}
    named_self = sum(span["self_s"] for span in record["spans"])
    assert named_self >= 0.9 * sum(record["traced_unit_cpu_s"])
    assert dominant_share(workload, record) >= 0.5
    if workload == "walk":
        assert "green.escape_rate" not in names
    else:
        assert "preimages.preimage_batch" not in names


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_outputs_identical(workload):
    m = workloads.import_layers()
    setup, unit = workloads.WORKLOADS[workload]
    inputs = setup(m, 3, workloads.SIZES["smoke"][workload])
    plain = unit(m, inputs)
    tracer = trace.Tracer(m.errors.P2DynError)
    with trace.installed(tracer):
        traced = unit(m, inputs)
    assert tracer.stats
    assert plain.outputs.keys() == traced.outputs.keys()
    for key, value in plain.outputs.items():
        assert np.array_equal(value, traced.outputs[key]), key
    assert [vars(op) for op in plain.ops] == [vars(op) for op in traced.ops]


def _bound_attributes():
    out = {}
    for _, owner, attr, binders, _ in trace.MODULE_SPANS:
        for binder in binders:
            module = importlib.import_module("p2dyn." + binder)
            out[binder, attr] = getattr(module, attr)
    for _, owner, cls_name, attr, _ in trace.METHOD_SPANS:
        cls = getattr(importlib.import_module("p2dyn." + owner), cls_name)
        out[cls_name, attr] = vars(cls)[attr]
    return out


def test_wrapped_attributes_restored_even_on_error():
    workloads.import_layers()
    before = _bound_attributes()
    tracer = trace.Tracer(RuntimeError)
    with pytest.raises(KeyError):
        with trace.installed(tracer):
            during = _bound_attributes()
            raise KeyError("boom")
    assert all(during[key] is not before[key] for key in before)
    assert _bound_attributes() == before
    # the package attribute named after the module is the re-exported
    # function, which is why modules are fetched with import_module
    import p2dyn
    assert callable(p2dyn.preimages)


def test_seed_fixes_inputs():
    m = workloads.import_layers()
    size = workloads.SIZES["smoke"]["grid"]
    a = workloads.setup_grid(m, 5, size)["cases"][0][1]
    b = workloads.setup_grid(m, 5, size)["cases"][0][1]
    c = workloads.setup_grid(m, 6, size)["cases"][0][1]
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("walk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
