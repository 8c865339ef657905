"""Tests of the benchmark's own logic: span arithmetic, wrapper
installation and removal, the reference comparator and the metric list.

Run with: python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from reference import compare_csv, log_tolerance  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    #  0: [0, 10] root, children 1 and 2
    #  1: [1, 3]
    #  2: [4, 8], child 3
    #  3: [5, 6]
    #  4: [20, 25] second root
    start = [0.0, 1.0, 4.0, 5.0, 20.0]
    end = [10.0, 3.0, 8.0, 6.0, 25.0]
    parent = [-1, 0, 0, 2, -1]
    assert spans.self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0, 5.0]


def test_per_name_counts_reentrant_total_once():
    tracer = spans.Tracer(run_id=1)
    outer = tracer.begin("f", 0.0)
    inner = tracer.begin("f", 2.0)
    leaf = tracer.begin("g", 3.0)
    tracer.finish(leaf, 4.0)
    tracer.finish(inner, 5.0)
    tracer.finish(outer, 10.0)
    stats = spans.per_name(tracer)
    assert stats["f"] == (2, 10.0, 9.0)   # self 7 outer + 2 inner
    assert stats["g"] == (1, 1.0, 1.0)
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0, 1]
    assert arr["run"].tolist() == [1, 1, 1]


def test_traced_wrapper_records_span_and_reraises():
    tracer = spans.Tracer(run_id=0)

    def boom():
        raise ValueError("x")

    wrapped = spans.traced(boom, "m.boom", tracer, FakeClock([1.0, 4.0]))
    with pytest.raises(ValueError):
        wrapped()
    assert spans.per_name(tracer)["m.boom"] == (1, 3.0, 3.0)


# -- wrapper installation -------------------------------------------------------

def test_patch_everywhere_and_restore_on_fake_modules():
    def f():
        return 1

    a = types.ModuleType("a")
    b = types.ModuleType("b")
    a.f = f
    b.alias = f
    b.other = len
    tracer = spans.Tracer(run_id=0)
    patches = spans.patch_everywhere(
        f, spans.traced(f, "a.f", tracer, FakeClock([0.0, 1.0, 2.0, 3.0])),
        [a, b])
    assert a.f is not f and b.alias is not f and b.other is len
    assert a.f() + b.alias() == 2
    assert spans.per_name(tracer)["a.f"][0] == 2
    spans.restore(patches)
    assert a.f is f and b.alias is f


def _bindings():
    """Identity of everything a layer wrap could touch."""
    import importlib

    names = {layer.attr for layer in layers.LAYERS if "." not in layer.attr}
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname == "cuspgrowth" or modname.startswith("cuspgrowth."):
            for attr in names & set(vars(mod)):
                out[(modname, attr)] = vars(mod)[attr]
    for layer in layers.LAYERS:
        if "." in layer.attr:
            cls_name, method = layer.attr.split(".")
            cls = getattr(importlib.import_module(f"cuspgrowth.{layer.module}"),
                          cls_name)
            out[(cls_name, method)] = cls.__dict__[method]
    return out


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import cuspgrowth.cli  # noqa: F401  imports every module

    before = _bindings()
    tracer = spans.Tracer(run_id=0)
    patches = layers.install(tracer)
    try:
        during = _bindings()
        assert all(during[k] is not v for k, v in before.items())
        # functions imported by name elsewhere are wrapped there too
        assert ("cuspgrowth.convolution", "log_integral") in before
        assert ("cuspgrowth.cli", "run_example") in before
    finally:
        spans.restore(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_layer_counters_see_points_and_swallowed_failures():
    from cuspgrowth.errors import QuadratureError
    from cuspgrowth.numerics import log_integral

    tracer = spans.Tracer(run_id=0)
    patches = layers.install(tracer)
    try:
        import cuspgrowth.numerics as numerics
        numerics.log_integral(lambda t: -t, 0.0, 1.0, min_panels=8)
        with pytest.raises(QuadratureError):
            numerics.log_integral(lambda t: np.sin(50 * t), 0.0, 9.0,
                                  rel_tol=1e-15, max_panels=16)
    finally:
        spans.restore(patches)
    assert numerics.log_integral is log_integral
    got = layers.metrics(tracer)
    assert got["numerics.log_integral.calls"] == 2
    assert got["numerics.log_integral.failed"] == 1
    assert got["numerics.log_integral.points"] > 0
    assert set(got) == set(layers.metric_units())


# -- reference comparator -------------------------------------------------------

def _perturb(text, row, col, delta):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


GROWTH = (HERE / "reference" / "catalog-bands"
          / "growth-exotic-div-5.3b.csv").read_text()
COUNTS = (HERE / "reference" / "oracle-h2" / "oracle-counts.csv").read_text()


def test_comparator_accepts_identical_tables():
    checks = compare_csv(GROWTH, GROWTH, 1e-6, "growth")
    assert checks.failed == 0
    assert checks.attempted == 4 * (len(GROWTH.splitlines()) - 1)


@pytest.mark.parametrize("factor,failed", [(0.9, 0), (-0.9, 0), (1.1, 1), (-1.1, 1)])
def test_comparator_log_tolerance_edge(factor, failed):
    tol = log_tolerance(1e-6)
    got = _perturb(GROWTH, 100, 3, factor * tol)   # log_v_x_upper at R ~ 195
    assert compare_csv(GROWTH, got, 1e-6, "growth").failed == failed


def test_comparator_tolerance_follows_rel_tol():
    got = _perturb(GROWTH, 50, 2, 5e-6)
    assert compare_csv(GROWTH, got, 1e-6, "growth").failed == 0
    assert compare_csv(GROWTH, got, 1e-7, "growth").failed == 1


def test_comparator_rejects_radius_change():
    got = _perturb(GROWTH, 10, 0, 1e-9)
    assert compare_csv(GROWTH, got, 1e-6, "growth").failed == 1


def test_comparator_rejects_any_oracle_count_change():
    lines = COUNTS.splitlines()
    for col in range(1, 6):
        cells = lines[-1].split(",")
        cells[col] = str(int(cells[col]) + 1)
        got = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
        assert compare_csv(COUNTS, got, 1e-6, "counts").failed == 1


def test_comparator_rejects_missing_rows():
    got = "\n".join(COUNTS.splitlines()[:-1]) + "\n"
    checks = compare_csv(COUNTS, got, 1e-6, "counts")
    assert (checks.attempted, checks.failed) == (1, 1)


# -- the benchmark definition -----------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    for workload in run.WORKLOADS:
        assert any((HERE / "reference" / workload).iterdir())
