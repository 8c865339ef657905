"""The cuspgrowth functions the traced run wraps, and their counters.

Each layer is a public function or method of one ``cuspgrowth`` module.
Its span name is ``<module>.<function>`` and gives the metrics
``.calls``, ``.total_s`` and ``.self_s``; some layers add count metrics
read from their arguments or results.  Nothing in ``cuspgrowth`` is
changed on disk: wrappers are bound at run time and restored afterwards.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import spans

PACKAGE = "cuspgrowth"


def _log_integral(tracer, fn, f_log, *args, **kwargs):
    from cuspgrowth.errors import QuadratureError

    def counted(t):
        tracer.count("numerics.log_integral.points", np.size(t))
        return f_log(t)

    try:
        return fn(counted, *args, **kwargs)
    except QuadratureError:
        # counted here, before log_tail_integral may swallow it
        tracer.count("numerics.log_integral.failed")
        raise


def _log_tail_integral(tracer, fn, *args, **kwargs):
    result = fn(*args, **kwargs)
    tracer.count("numerics.log_tail_integral.windows",
                 len(result.log_segments))
    if tracer.inside("asymptotics.poincare_abscissa"):
        tracer.count("asymptotics.poincare_abscissa.scans")
        if result.verdict is None:
            # the bisection reads "not True" as divergent
            tracer.count("asymptotics.poincare_abscissa.undecided_as_divergent")
    return result


def _points(metric: str):
    def around(tracer, fn, self, t, *args, **kwargs):
        tracer.count(metric, np.size(t))
        return fn(self, t, *args, **kwargs)
    return around


def _interpolant_nodes(tracer, fn, *args, **kwargs):
    result = fn(*args, **kwargs)
    tracer.count("convolution.cuspidal_interpolants.nodes",
                 sum(len(c.nodes) for c in result))
    return result


def _coset_elements(tracer, fn, *args, **kwargs):
    table = fn(*args, **kwargs)
    tracer.count("h2_oracle.coset_counts.elements", int(table.v_group[-1]))
    return table


def _delta_elements(tracer, fn, *args, **kwargs):
    report = fn(*args, **kwargs)
    tracer.count("h2_oracle.estimate_delta.elements", report.n_elements)
    return report


def _artifact_bytes(tracer, fn, cfg, *args, **kwargs):
    code = fn(cfg, *args, **kwargs)
    tracer.count("cli.run.artifact_bytes",
                 sum(p.stat().st_size for p in cfg.out.iterdir() if p.is_file()))
    return code


def _family(name, *args, **kwargs):
    return name


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str                       # "function" or "Class.method"
    counts: tuple[str, ...] = ()    # extra metric suffixes
    around: Optional[Callable] = None
    key: Optional[Callable] = None  # span name suffix from the call

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("numerics", "log_integral", ("points", "failed"), _log_integral),
    Layer("numerics", "log_tail_integral", ("windows",), _log_tail_integral),
    Layer("profiles", "Profile.log_value", ("points",),
          _points("profiles.Profile.log_value.points")),
    Layer("profiles", "catalog_profile"),
    Layer("profiles", "validate_profile"),
    Layer("asymptotics", "log_cuspidal"),
    Layer("asymptotics", "poincare_abscissa",
          ("scans", "undecided_as_divergent")),
    Layer("asymptotics", "series_convergence_at"),
    Layer("asymptotics", "estimate_exponents"),
    Layer("asymptotics", "classify_growth"),
    Layer("convolution", "cuspidal_interpolants", ("nodes",),
          _interpolant_nodes),
    Layer("convolution", "volume_band"),
    Layer("convolution", "conv_continuous"),
    Layer("convolution", "counting_band"),
    Layer("convolution", "CuspidalInterpolant.__call__", ("points",),
          _points("convolution.CuspidalInterpolant.__call__.points")),
    Layer("convolution", "VGammaModel.log_value"),
    Layer("taxonomy", "classify_lattice"),
    Layer("taxonomy", "run_example", key=_family),
    Layer("h2_oracle", "coset_counts", ("elements",), _coset_elements),
    Layer("h2_oracle", "verify_prop28"),
    Layer("h2_oracle", "estimate_delta", ("elements",), _delta_elements),
    Layer("h2_oracle", "verify_counting"),
    Layer("h2_oracle", "verify_lemmas"),
    Layer("cli", "run", ("artifact_bytes",), _artifact_bytes),
)

# run_example is keyed by family; these are the families the benchmark runs
KEYED = {"taxonomy.run_example": ("critical-infinite-5.4b", "exotic-div-5.3b")}

COUNT_SUFFIXES = ("calls", "points", "failed", "windows", "scans",
                  "undecided_as_divergent", "nodes", "elements",
                  "artifact_bytes")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.total_s"] = "s"
        units[f"{layer.name}.self_s"] = "s"
        for suffix in layer.counts:
            units[f"{layer.name}.{suffix}"] = (
                "bytes" if suffix == "artifact_bytes" else "count")
        for key in KEYED.get(layer.name, ()):
            units[f"{layer.name}.{key}.total_s"] = "s"
            units[f"{layer.name}.{key}.self_s"] = "s"
    return units


def is_count(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1] in COUNT_SUFFIXES


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def install(tracer: spans.Tracer,
            clock: Callable[[], float] = time.perf_counter) -> list:
    """Wrap every layer; returns the patches that ``spans.restore`` undoes."""
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer.module}")
    namespaces = _package_modules()
    patches = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer.module}"]
        if "." in layer.attr:
            cls_name, method = layer.attr.split(".")
            owner = getattr(module, cls_name)
            wrapper = spans.traced(owner.__dict__[method], layer.name, tracer,
                                   clock, layer.around, layer.key)
            patches += spans.patch_attribute(owner, method, wrapper)
        else:
            original = getattr(module, layer.attr)
            wrapper = spans.traced(original, layer.name, tracer, clock,
                                   layer.around, layer.key)
            patches += spans.patch_everywhere(original, wrapper, namespaces)
    return patches


def metrics(tracer: spans.Tracer) -> dict[str, float]:
    """Every per-layer metric; layers that did not run read zero."""
    by_name = spans.per_name(tracer)
    out = {name: 0 for name in metric_units()}
    for layer in LAYERS:
        rows = [v for k, v in by_name.items()
                if k == layer.name or (layer.key and k.startswith(layer.name + "."))]
        out[f"{layer.name}.calls"] = sum(r[0] for r in rows)
        out[f"{layer.name}.total_s"] = sum(r[1] for r in rows)
        out[f"{layer.name}.self_s"] = sum(r[2] for r in rows)
    for keyed, keys in KEYED.items():
        for key in keys:
            calls, total, own = by_name.get(f"{keyed}.{key}", (0, 0.0, 0.0))
            out[f"{keyed}.{key}.total_s"] = total
            out[f"{keyed}.{key}.self_s"] = own
    for metric, value in tracer.counts.items():
        out[metric] = value
    return out
