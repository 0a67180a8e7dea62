"""The benchmark tracer wraps granp's names from outside; a renamed or
removed name would silently drop its spans.  Check every hook still resolves
and that uninstalling restores the originals."""

import sys
from pathlib import Path

import pytest

from granp.model import GranpModel

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
