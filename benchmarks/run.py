"""granp benchmark: runs one named workload, checks its outputs and prints
every metric by name with its unit.

    python3 benchmarks/run.py --workload eval --seed 1 --seconds 20 --trace 0

It times granp only from outside, through its public entry points, and
builds nothing: granp is imported from ``src/`` next to this directory.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with span wrappers installed, and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A full record (environment, traffic, every operation time)
goes to ``benchmarks/out/``.  See README.md.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_trace import Tracer, self_within, step_intervals, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREADS_MAX = 2
HARD_CAP_S = 120.0      # timed phase ends here whatever min_ops says
EXIT_NO_PROGRAM = 3

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# per-operation calls and self time; the checkpoint entries are per set-up
OP_ENTRIES = (
    "data.prepare_scene", "scene_graph.build_adjacency",
    "model.predict", "model.encode_pairs", "model.decode", "model.elbo_loss",
    "layers.mlp.embed", "layers.mlp.interp", "layers.mlp.latent",
    "layers.mlp.det.fc", "layers.mlp.lat.fc", "layers.mlp.decoder",
    "layers.gat", "layers.lstm", "layers.conv_mlp", "layers.cross",
    "autodiff.backward", "autodiff.grad_check.primitive",
    "autodiff.grad_check.layer", "autodiff.grad_check.elbo",
    "training.adam_step", "training.validation_nll",
)
SETUP_ENTRIES = ("training.save_checkpoint", "training.load_checkpoint")
PER_LAYER = dict(
    [(f"{e}.{k}", u) for e in OP_ENTRIES + SETUP_ENTRIES
     for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("data.synth_s", "s"),
       ("model.encode_pairs.context_ms", "ms"),
       ("model.encode_pairs.target_ms", "ms"),
       ("model.encode_pairs.nodes_mean", "count"),
       ("model.encode_pairs.block_density", "ratio"),
       ("layers.gat.attn_entries", "count"),
       ("autodiff.tape_nodes", "count"),
       ("autodiff.tensors", "count"),
       ("training.step_ms_p50", "ms"),
       ("training.step_ms_p90", "ms"),
       ("bench.unattributed_ms", "ms"),
       ("trace.overhead_ms", "ms")])


def limit_blas_threads():
    """Cap BLAS threads before numpy loads; returns nproc."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    threads = str(min(nproc, BLAS_THREADS_MAX))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return nproc


def import_granp():
    """Import granp from this checkout's src/, never from site-packages."""
    if not (SRC / "granp" / "__init__.py").is_file():
        print(f"error: no granp sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import granp
    if SRC not in Path(granp.__file__).resolve().parents:
        print(f"error: granp imported from {granp.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return granp


# ---------------------------------------------------------------------------
# Environment

def _blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        np.__file__)), "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(granp, nproc, seed, seed_applies):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": _blas_threads(), "nproc": nproc,
        "cpu": _cpu_model(),
        "GRANP_PRECISION": os.environ.get("GRANP_PRECISION", "unset"),
        "precision": granp.autodiff.get_precision(),
        "commit": _git_commit(), "seed": seed,
        "seed_applies": seed_applies,
    }


# ---------------------------------------------------------------------------
# Running

def run_setups(wl, reps, tracer):
    times = []
    state = None
    for k in range(reps):
        if tracer is not None:
            tracer.request = f"setup-{k}"
            root = tracer.open("bench.setup")
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(root)
    return times, state


def run_ops(wl, state, start, seconds, min_ops, tracer=None):
    """Timed operations until ``seconds`` have passed and ``min_ops`` ran.

    Returns (times, errors); errors[i] is None or why operation i failed.
    Only the operation is timed; its output check runs outside the clock.
    """
    times, errors = [], []
    began = time.perf_counter()
    i = start
    while True:
        if tracer is not None:
            tracer.request = f"op-{i}"
            tensors = tracer.tensors
            root = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            out = wl.op(state, i)
            dt = time.perf_counter() - t0
            err = wl.check(state, i, out)
        except Exception as e:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            err = f"{type(e).__name__}: {e}"
        if tracer is not None:
            tracer.close(root)
            tracer.spans[root][5] = {"tensors": tracer.tensors - tensors}
        times.append(dt)
        errors.append(err)
        i += 1
        elapsed = time.perf_counter() - began
        if elapsed >= HARD_CAP_S or (elapsed >= seconds
                                     and len(times) >= min_ops):
            return times, errors


def per_layer(tracer, ops, setups, untraced, traced):
    """Per-layer metrics, the span table and the two headline shares."""
    from bench_workloads import nearest_rank
    n_ops, n_setups = len(ops), len(setups)
    table = summarize(tracer.spans, ops)
    setup_table = summarize(tracer.spans, setups)
    m = {}
    for e in OP_ENTRIES:
        row = table.get(e, {"calls": 0, "self_s": 0.0})
        m[f"{e}.calls"] = row["calls"] / n_ops
        m[f"{e}.self_ms"] = 1e3 * row["self_s"] / n_ops
    for e in SETUP_ENTRIES:
        row = setup_table.get(e, {"calls": 0, "self_s": 0.0})
        m[f"{e}.calls"] = row["calls"] / n_setups
        m[f"{e}.self_ms"] = 1e3 * row["self_s"] / n_setups
    m["data.synth_s"] = setup_table.get(
        "data.synth", {"total_s": 0.0})["total_s"] / n_setups

    enc = table.get("model.encode_pairs", {"spans": []})["spans"]
    ctx = [s for s in enc if s[5]["context"]]
    m["model.encode_pairs.context_ms"] = 1e3 * sum(
        s[2] - s[1] for s in ctx) / n_ops
    m["model.encode_pairs.target_ms"] = 1e3 * sum(
        s[2] - s[1] for s in enc if not s[5]["context"]) / n_ops
    m["model.encode_pairs.nodes_mean"] = (
        statistics.fmean(s[5]["nodes"] for s in enc) if enc else 0.0)
    dense = sum(s[5]["nodes"] ** 2 for s in enc)
    m["model.encode_pairs.block_density"] = (
        sum(s[5]["nodes_sq"] for s in enc) / dense if dense else 0.0)
    gat = table.get("layers.gat", {"spans": []})["spans"]
    m["layers.gat.attn_entries"] = sum(
        s[5]["attn_entries"] for s in gat) / n_ops
    bwd = table.get("autodiff.backward", {"spans": []})["spans"]
    m["autodiff.tape_nodes"] = (
        statistics.fmean(s[5]["tape_nodes"] for s in bwd) if bwd else 0.0)
    roots = table["bench.op"]["spans"]
    m["autodiff.tensors"] = statistics.fmean(s[5]["tensors"] for s in roots)
    intervals = step_intervals(tracer.spans, ops)
    steps = [end - start for start, end in intervals]
    for q in (50, 90):
        m[f"training.step_ms_p{q}"] = (
            1e3 * nearest_rank(steps, q / 100) if steps else 0.0)
    m["bench.unattributed_ms"] = 1e3 * table["bench.op"]["self_s"] / n_ops
    m["trace.overhead_ms"] = 1e3 * (statistics.median(traced)
                                    - statistics.median(untraced))
    shares = {
        "encode_pairs.context_of_op_p50":
            m["model.encode_pairs.context_ms"]
            / (1e3 * statistics.median(traced)),
        "backward_plus_gat_of_step":
            self_within(tracer.spans, intervals,
                        {"autodiff.backward", "layers.gat"}) / sum(steps)
            if steps else 0.0}
    return m, table, shares


def print_table(table, n_ops, op_ms):
    print(f"{'span':34s} {'calls/op':>10s} {'self ms/op':>11s} "
          f"{'incl ms/op':>11s} {'self %':>7s}")
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        self_ms = 1e3 * row["self_s"] / n_ops
        print(f"{name:34s} {row['calls'] / n_ops:10.2f} {self_ms:11.3f} "
              f"{1e3 * row['total_s'] / n_ops:11.3f} "
              f"{100 * self_ms / op_ms:6.1f}%")


def cpu_probe_ms():
    """Median time of a fixed pure-Python loop: how fast this machine ran
    at the moment, recorded so that noisy runs can be recognised."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for k in range(200_000):
            acc += k * k
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def run_workload(workload, sizes, seed, seconds, trace, out_dir):
    """Run one workload in this process; returns (result, record, tracer),
    the tracer being None for an untraced run.

    Untraced: set-up ``sizes.setup_reps`` times, warm up, then time
    operations for ``seconds``.  Traced: set-ups and operations each run
    half untraced and half traced, and the difference is the tracing
    overhead."""
    from bench_workloads import WORKLOADS
    wl = WORKLOADS[workload](sizes, seed, str(out_dir))
    tracer = Tracer() if trace else None

    setup_times, state = run_setups(wl, sizes.setup_reps, None)
    if trace:
        tracer.install()
        traced_setups, state = run_setups(wl, sizes.setup_reps, tracer)
        tracer.uninstall()

    errors = []
    for i in range(wl.warmup):
        errors += run_ops(wl, state, i, 0.0, 1)[1]
    start = wl.warmup
    if trace:
        half = max(1, wl.min_ops // 2)
        untraced, errs = run_ops(wl, state, start, seconds / 2, half)
        errors += errs
        tracer.install()
        times, errs = run_ops(wl, state, start + len(untraced), seconds / 2,
                              half, tracer)
        tracer.uninstall()
    else:
        times, errs = run_ops(wl, state, start, seconds, wl.min_ops)
    errors += errs
    final = wl.final_checks(state)

    attempted = len(errors) + len(final)
    failures = [e for e in errors if e] + [f"{label}: failed"
                                           for label, ok in final if not ok]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": 1e3 * statistics.median(times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    figures = {k: {"value": v, "unit": u}
               for k, (v, u) in wl.figures(state, times).items()}
    figures["failed_ratio"] = {"value": len(failures) / attempted,
                               "unit": "ratio"}
    record = {
        "workload": workload, "trace": int(trace),
        "traffic": wl.traffic(state), "figures": figures,
        "ops": len(times), "op_s": times, "setup_s": setup_times,
        "failures": failures,
    }
    if hasattr(wl, "digest"):
        record["param_digest"] = wl.digest
    if trace:
        first = start + len(untraced)
        ops = [f"op-{i}" for i in range(first, first + len(times))]
        setups = [f"setup-{k}" for k in range(sizes.setup_reps)]
        metrics, table, shares = per_layer(tracer, ops, setups, untraced,
                                           times)
        record.update(
            per_layer=metrics, untraced_op_s=untraced,
            missing_wrappers=tracer.missing,
            tracing_overhead={
                "setup_s": [statistics.median(setup_times),
                            statistics.median(traced_setups), "s"],
                "op_ms_p50": [1e3 * statistics.median(untraced),
                              e2e["op_ms_p50"], "ms"]},
            table={k: {"calls": v["calls"], "self_s": v["self_s"],
                       "total_s": v["total_s"]} for k, v in table.items()},
            shares=shares)
        values, units = metrics, PER_LAYER
    else:
        values, units = e2e, END_TO_END
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    return result, record, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train", "predict", "eval", "gradcheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = limit_blas_threads()
    granp = import_granp()
    from bench_workloads import WORKLOADS, Sizes

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(granp, nproc, args.seed,
                      WORKLOADS[args.workload].seed_applies)
    probe = cpu_probe_ms()
    result, record, tracer = run_workload(args.workload, Sizes(), args.seed,
                                          args.seconds, bool(args.trace),
                                          OUT_DIR)
    env["cpu_probe_ms"] = [probe, cpu_probe_ms()]
    record["environment"] = env
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print("environment " + json.dumps(env))
    if not env["seed_applies"]:
        print(f"note: {args.workload} runs fixed cases; --seed does not apply")
    print("traffic " + json.dumps(record["traffic"]))
    print(f"operations timed: {record['ops']}; set-ups: "
          f"{len(record['setup_s'])}")
    for name, fig in record["figures"].items():
        print(f"figure {name} = {fig['value']} {fig['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if tracer is not None:
        spans_path = OUT_DIR / f"{stem}-spans.json"
        tracer.write(spans_path)
        print_table(record["table"], record["ops"],
                    1e3 * statistics.fmean(record["op_s"]))
        for name, (off, on, unit) in record["tracing_overhead"].items():
            print(f"tracing overhead {name}: untraced {off:.4f} {unit}, "
                  f"traced {on:.4f} {unit}, difference {on - off:+.4f} {unit}")
        print("shares " + json.dumps(record["shares"]))
        if record["missing_wrappers"]:
            print("not wrapped (absent in this granp): "
                  + ", ".join(record["missing_wrappers"]))
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
