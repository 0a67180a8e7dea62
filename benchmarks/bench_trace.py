"""Spans and counters recorded from outside granp.

Nothing inside granp is edited.  ``Tracer.install`` replaces, with
``setattr``, the names that granp's callers look up at call time (module
globals such as ``granp.training.backward`` and class attributes such as
``GranpModel.encode_pairs``) by wrappers that record a span around the
original; ``uninstall`` puts every original back.  A name that a later
version of granp no longer has is skipped and listed in ``missing``.

Spans stay in memory as ``[name, start, end, parent, request, extras]`` and
are written out once, at the end of the run.
"""

import bisect
import functools
import json
import time

SPAN_FIELDS = ("name", "start", "end", "parent", "request", "extras")


def _mlp_name(args):
    block = args[0]
    # parameters are named "<block>.<i>.W"; the block name is the prefix
    return "layers.mlp." + block.weights[0].name.rsplit(".", 2)[0]


def _grad_check_group(args):
    names = [p.name for p in args[1]]
    if set(names) <= {"w", "kw"}:
        return "autodiff.grad_check.primitive"
    if any(n.startswith("embed.") for n in names):
        return "autodiff.grad_check.elbo"
    return "autodiff.grad_check.layer"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.request = None
        self.context = None     # context list of the predict call in progress
        self.tensors = 0        # Tensor objects created while installed
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name, extras=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request, extras])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def write(self, path):
        """Dump every span as one JSON document; times are seconds from the
        first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4],
                 s[5]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": rows}, fh,
                      separators=(",", ":"))

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._patches.append((owner, attr, orig))

    def _span(self, owner, attr, name, extras=None, after=None):
        """Wrap ``owner.attr`` in a span.  ``name`` is a string or a function
        of the call's arguments; ``extras(args)`` runs before the call and
        ``after(args, out)`` after it, each returning a dict kept on the
        span."""
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                label = name if isinstance(name, str) else name(args)
                idx = tracer.open(label, extras(args) if extras else None)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after is not None:
                    tracer.spans[idx][5] = after(args, out)
                return out
            return wrapper

        self._patch(owner, attr, make)

    def install(self):
        """Wrap granp's layer boundaries; see README.md for the span list."""
        from granp import (autodiff, data, layers, model, training,
                           verification)
        tracer = self
        self.missing = []

        def count_tensors(orig):
            def wrapper(*args, **kwargs):
                tracer.tensors += 1
                orig(*args, **kwargs)
            return wrapper

        self._patch(autodiff.Tensor, "__init__", count_tensors)

        def predict(orig):
            def wrapper(*args, **kwargs):
                context = args[2] if len(args) > 2 else kwargs["context"]
                tracer.context = list(context)
                idx = tracer.open("model.predict")
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer.context = None
            return wrapper

        self._patch(model.GranpModel, "predict", predict)

        def encode_extras(args):
            scenes = list(args[1])
            ctx = tracer.context
            is_ctx = (ctx is not None and len(ctx) == len(scenes)
                      and all(a is b for a, b in zip(scenes, ctx)))
            sizes = [sc.states.shape[1] for sc in scenes]
            return {"context": is_ctx, "nodes": sum(sizes),
                    "nodes_sq": sum(n * n for n in sizes)}

        self._span(model.GranpModel, "encode_pairs", "model.encode_pairs",
                   extras=encode_extras)
        self._span(model.GranpModel, "decode", "model.decode")
        self._span(model.GranpModel, "elbo_loss", "model.elbo_loss")

        self._span(data, "synth_scenes", "data.synth")
        for mod in (model, training):
            self._span(mod, "prepare_scene", "data.prepare_scene")
        for mod in (model, verification):
            self._span(mod, "build_adjacency", "scene_graph.build_adjacency")

        self._span(layers.MlpBlock, "forward", _mlp_name)
        self._span(layers.GatLayer, "forward_seq", "layers.gat",
                   after=lambda args, out: {"attn_entries": int(out[1].size)})
        self._span(layers.LstmEncoder, "encode", "layers.lstm")
        self._span(layers.ConvMlpEncoder, "encode", "layers.conv_mlp")
        self._span(layers.CrossAttention, "attend", "layers.cross")

        tape_nodes = {"extras": lambda args: {"tape_nodes": len(args[0])}}
        self._span(autodiff, "backward", "autodiff.backward", **tape_nodes)
        self._span(training, "backward", "autodiff.backward", **tape_nodes)
        self._span(verification, "grad_check", _grad_check_group)

        self._span(training.AdamState, "step", "training.adam_step")
        self._span(training, "validation_nll", "training.validation_nll",
                   after=lambda args, out: {"val_nll": float(out)})
        self._span(training, "save_checkpoint", "training.save_checkpoint")
        self._span(training, "load_checkpoint", "training.load_checkpoint")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []


# ---------------------------------------------------------------------------
# Aggregation

def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(spans, requests):
    """Per span name over the given request ids: calls, self and total
    seconds, plus the raw spans for the extra counters."""
    selfs = self_times(spans)
    wanted = set(requests)
    table = {}
    for s, own in zip(spans, selfs):
        if s[4] not in wanted:
            continue
        row = table.setdefault(s[0], {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0, "spans": []})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += s[2] - s[1]
        row["spans"].append(s)
    return table


def step_intervals(spans, requests):
    """Training steps as (start, end): from the start of ``model.elbo_loss``
    to the end of the ``training.adam_step`` that follows it."""
    wanted = set(requests)
    steps = []
    starts = {}
    for s in spans:
        if s[4] not in wanted:
            continue
        if s[0] == "model.elbo_loss":
            starts[s[4]] = s[1]
        elif s[0] == "training.adam_step" and s[4] in starts:
            steps.append((starts.pop(s[4]), s[2]))
    return steps


def self_within(spans, intervals, names):
    """Self seconds of the named spans that start inside the intervals."""
    bounds = sorted(intervals)
    starts = [b[0] for b in bounds]
    total = 0.0
    for s, own in zip(spans, self_times(spans)):
        if s[0] in names:
            k = bisect.bisect_right(starts, s[1]) - 1
            if k >= 0 and s[1] < bounds[k][1]:
                total += own
    return total
