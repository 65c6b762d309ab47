"""perfbench wraps coronakit functions by attribute name, from outside the
package, so renaming or removing one breaks only its traced runs.  These
tests resolve every name it wraps against the checked-out sources."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_discover_wrappers_resolve():
    run, spans = perfbench_module("run"), perfbench_module("spans")
    # Tracer.wrap looks each name up with getattr, so a missing one raises
    run.wrap_discover_layers(spans.Tracer())


@pytest.mark.parametrize("metric", [
    name for name in perfbench_module("run").PER_LAYER
    if name.startswith(("cli.", "propagation.", "models."))])
def test_predict_layer_names_resolve(metric):
    module, attr = metric.removesuffix("_s").split(".")
    assert hasattr(importlib.import_module(f"coronakit.{module}"), attr)


def test_term_repeats_reads_traced_graphs():
    # the extract_term/from_terms/render path that only traced runs take
    from coronakit.exprgraph import parse

    run = perfbench_module("run")
    assert run.term_repeats([(0, parse("1*E^2 + 2*E^2 + 3*n"))]) == (3, 1)
