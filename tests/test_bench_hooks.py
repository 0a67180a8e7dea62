"""The benchmark tracer wraps granp's names from outside; a renamed or
removed name would silently drop its spans.  Check every hook still resolves
and that uninstalling restores the originals, and that the gradient checks
still fall into the groups the tracer names."""

import sys
from pathlib import Path

import numpy as np
import pytest

from granp.model import GranpModel
from granp.verification import _elbo_case, _layer_cases

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_trace
    yield bench_trace
    sys.modules.pop("bench_trace", None)


def test_tracer_hooks_resolve_and_uninstall(bench_trace):
    original = GranpModel.__dict__["encode_pairs"]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        # the adjacency hooks go with ROADMAP item 1; any other drift fails
        assert tracer.missing == ["granp.model.build_adjacency",
                                  "granp.verification.build_adjacency"]
        assert GranpModel.__dict__["encode_pairs"] is not original
    finally:
        tracer.uninstall()
    assert GranpModel.__dict__["encode_pairs"] is original


def test_grad_check_groups_the_elbo_case_by_its_parameters(bench_trace):
    # the tracer tells the whole-model check apart by a parameter named
    # "embed."; a rename would move its time into the layer group
    group = bench_trace._grad_check_group
    _, params = _elbo_case()
    assert group((None, params)) == "autodiff.grad_check.elbo"
    _, params = _layer_cases(np.random.default_rng(0))["gat_layer"]
    assert group((None, params)) == "autodiff.grad_check.layer"
