"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload in-process, untraced and traced, on shrunken inputs,
and checks the result object against BENCHMARK.json.  The gradient-check
suite itself takes tens of seconds, so the gradcheck workload runs here
against a one-case stand-in that still goes through ``grad_check``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.limit_blas_threads()
granp = run.import_granp()

import bench_workloads  # noqa: E402  (needs granp on the path)

TINY = bench_workloads.Sizes(scenes=24, context=6, samples=3, hidden=8,
                             heads=2, batch=8, setup_reps=2)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny_gradcheck(monkeypatch):
    from granp import autodiff as ad

    def one_case():
        with ad.precision("f64"):
            w = ad.Parameter("w", [[0.3, -0.2], [0.1, 0.4]])
            err = granp.verification.grad_check(
                lambda: ad.reduce_sum(ad.tanh(w.tensor)), [w])["w"]
        return {f"case{i}": err
                for i in range(bench_workloads.GRADCHECK_CASES)}

    monkeypatch.setattr(granp.verification, "run_gradient_checks", one_case)
    monkeypatch.setattr(bench_workloads.Predict, "min_ops", 4)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, tiny_gradcheck,
                                       tmp_path):
    result, record, _ = run.run_workload(workload, TINY, 3, 0.05,
                                         bool(trace), tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert not record["missing_wrappers"]
    json.dumps(result)


def test_traced_predict_splits_context_from_target(tmp_path,
                                                   tiny_gradcheck):
    result, _, _ = run.run_workload("predict", TINY, 1, 0.05, True,
                                    tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["model.encode_pairs.calls"] == 2      # context, then the target
    assert m["model.encode_pairs.context_ms"] > 0
    assert m["model.encode_pairs.target_ms"] > 0
    assert m["model.decode.calls"] == TINY.samples
    assert 0 < m["model.encode_pairs.block_density"] < 1


def test_tracer_leaves_granp_unwrapped(tmp_path, tiny_gradcheck):
    before = granp.GranpModel.__dict__["encode_pairs"]
    run.run_workload("train", TINY, 2, 0.05, True, tmp_path)
    assert granp.GranpModel.__dict__["encode_pairs"] is before
    assert granp.training.backward is granp.autodiff.backward


def test_wrong_output_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_workloads.Eval, "check",
                        lambda self, state, i, report: "forced")
    result, _, _ = run.run_workload("eval", TINY, 1, 0.05, False,
                                    tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_fails_without_program(tmp_path):
    """With only BENCHMARK.json and this directory, exit non-zero and print
    no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
