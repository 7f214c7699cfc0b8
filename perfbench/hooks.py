"""Hooks the benchmark installs on the cvloc modules from the outside.

Nothing under `src/` knows about them. `Patches` rebinds a function in every
cvloc module that holds it, including names bound by `from .x import y`, and
puts the originals back on exit. `Clock` is the cheap instrumentation every
run carries: timestamps for the end-to-end metrics and the output checks that
feed the failure count. `Tracer` records a span around every public function
of every layer; it is installed only for traced rounds.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# The package's modules, which are the benchmark's layers. `config` and `cli`
# are thin and not measured.
LAYERS = (
    "synthdata",
    "checkpoint",
    "autodiff",
    "model",
    "losses",
    "baseline",
    "evaluation",
    "training",
)
# Public autodiff functions that are not tensor ops.
NON_OPS = {"backward", "adam_step", "zero_grads", "uniform_init"}
# Context managers: a span would time only their construction.
NOT_TRACED = {"no_grad", "double_precision"}
# Entering one of these outside another starts a new sample id.
SAMPLE_SCOPES = {
    "training.sample_loss",
    "model.forward",
    "baseline.cvr_forward",
    "baseline.descriptor_pair",
}


def _cvloc_modules():
    return [m for n, m in list(sys.modules.items()) if n == "cvloc" or n.startswith("cvloc.")]


class Patches:
    """Rebind functions across the cvloc modules; `undo` restores them."""

    def __init__(self):
        self._undo = []

    def replace(self, old, new):
        for mod in _cvloc_modules():
            for name in [n for n, v in vars(mod).items() if v is old]:
                self._undo.append((mod, name, old))
                setattr(mod, name, new)

    def undo(self):
        while self._undo:
            mod, name, old = self._undo.pop()
            setattr(mod, name, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


def heatmap_ok(h) -> bool:
    """A probability map: finite, non-negative, summing to 1 within the
    rounding a float32 sum over its cells can accumulate."""
    h = np.asarray(h)
    if not np.isfinite(h).all() or h.min() < 0:
        return False
    return abs(float(h.sum(dtype=np.float64)) - 1.0) <= h.size * np.finfo(np.float32).eps


class Clock:
    """Timestamps and output checks, installed for the whole run.

    `phase` is set by the workload: heat maps produced while it is "eval"
    count as evaluated test samples, the others are training validation.
    """

    def __init__(self):
        self.phase = ""
        self.checks = []  # (description, ok), kept for the whole run
        self.reset()

    def reset(self):
        """Start a new round's timestamps and failure counts."""
        self.sample_starts = []  # perf_counter at each training.sample_loss entry
        self.fb_ms = []  # forward + loss + backward per training sample
        self.step_ends = []  # perf_counter at each adam_step return
        # (start, ms) of each no_grad forward: eval_run's test samples, and
        # orientation_run's rotation hypotheses and heading shifts.
        self.eval_forwards = []
        self.orient_forwards = []
        self.bad_steps = set()  # indices of steps with a non-finite sample loss
        self.bad_eval_maps = 0
        self.bad_val_maps = 0
        self.bad_orient = 0

    def check(self, what: str, ok: bool):
        self.checks.append((what, bool(ok)))

    def install(self, patches: Patches):
        from cvloc import autodiff, evaluation, training

        sample_loss = training.sample_loss
        backward = autodiff.backward
        adam_step = autodiff.adam_step
        heatmap_fn = training.heatmap_fn
        logits_fn = training.logits_fn
        classify = evaluation.classify_orientation
        classify_sig = inspect.signature(classify)

        @functools.wraps(sample_loss)
        def timed_sample_loss(*args, **kwargs):
            self.sample_starts.append(perf_counter())
            loss = sample_loss(*args, **kwargs)
            if not math.isfinite(float(loss.data)):
                self.bad_steps.add(len(self.step_ends))
            return loss

        @functools.wraps(backward)
        def timed_backward(loss):
            out = backward(loss)
            self.fb_ms.append((perf_counter() - self.sample_starts[-1]) * 1e3)
            return out

        @functools.wraps(adam_step)
        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            self.step_ends.append(perf_counter())
            return out

        @functools.wraps(heatmap_fn)
        def checked_heatmap_fn(*args, **kwargs):
            fn = heatmap_fn(*args, **kwargs)

            def timed(G, S):
                t0 = perf_counter()
                h = fn(G, S)
                if self.phase == "eval":
                    self.eval_forwards.append((t0, (perf_counter() - t0) * 1e3))
                    self.bad_eval_maps += not heatmap_ok(h)
                else:
                    self.bad_val_maps += not heatmap_ok(h)
                return h

            return timed

        @functools.wraps(logits_fn)
        def checked_logits_fn(*args, **kwargs):
            fn = logits_fn(*args, **kwargs)

            def timed(G, S):
                t0 = perf_counter()
                logits = fn(G, S)
                self.orient_forwards.append((t0, (perf_counter() - t0) * 1e3))
                self.bad_orient += not np.isfinite(logits).all()
                return logits

            return timed

        @functools.wraps(classify)
        def checked_classify(*args, **kwargs):
            k = classify(*args, **kwargs)
            bound = classify_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.bad_orient += not (isinstance(k, int) and 0 <= k < bound.arguments["n_rot"])
            return k

        patches.replace(sample_loss, timed_sample_loss)
        patches.replace(backward, timed_backward)
        patches.replace(adam_step, timed_adam_step)
        patches.replace(heatmap_fn, checked_heatmap_fn)
        patches.replace(logits_fn, checked_logits_fn)
        patches.replace(classify, checked_classify)


class Tracer:
    """Spans around every public function of every layer, kept in memory.

    A span is [name, start, end, parent index, sample id]. Autodiff ops also
    get a span for their backward closure, named "autodiff.<op>:backward",
    and count the tape nodes they record.
    """

    def __init__(self):
        self.spans = []
        self.tape_nodes = 0
        self.saved_bytes = 0
        self._open = []
        self._sample = -1
        self._next_sample = 0
        self._scope_depth = 0

    def install(self, patches: Patches):
        for layer in LAYERS:
            mod = sys.modules[f"cvloc.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or name in NOT_TRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                full = f"{layer}.{name}"
                if layer == "autodiff" and name not in NON_OPS:
                    wrapped = self._wrap_op(full, fn)
                elif full == "model.encode_image":
                    wrapped = self._wrap_encoder(full, fn)
                else:
                    wrapped = self._wrap(full, fn)
                patches.replace(fn, wrapped)

    def _enter(self, name):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._sample]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = perf_counter()
        return span

    def _exit(self, span):
        span[2] = perf_counter()
        self._open.pop()

    def _wrap(self, name, fn):
        scope = name in SAMPLE_SCOPES
        saves = name == "checkpoint.save_params"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if scope:
                if self._scope_depth == 0:
                    self._sample = self._next_sample
                    self._next_sample += 1
                self._scope_depth += 1
            span = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
                if scope:
                    self._scope_depth -= 1
            if saves:
                self.saved_bytes += os.path.getsize(args[0])
            return out

        return traced

    def _wrap_encoder(self, name, fn):
        # Both branches run through encode_image; the prefix argument names
        # the branch, so the span does too.
        @functools.wraps(fn)
        def traced(img, params, prefix):
            span = self._enter(f"{name}[{prefix}]")
            try:
                return fn(img, params, prefix)
            finally:
                self._exit(span)

        return traced

    def _wrap_op(self, name, fn):
        bw_name = f"{name}:backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
            bw = out._backward
            # An op built from other ops returns a node they already wrapped.
            if bw is not None and not hasattr(bw, "traced_op"):
                self.tape_nodes += 1

                def traced_bw(g):
                    bw_span = self._enter(bw_name)
                    try:
                        bw(g)
                    finally:
                        self._exit(bw_span)

                traced_bw.traced_op = name
                out._backward = traced_bw
            return out

        return traced


class SpanSummary:
    """Inclusive time and calls per span name, self time per layer, and the
    decoder's per-stage op times, from one traced round."""

    def __init__(self, tracer: Tracer, wall_s: float, stages: int):
        spans = tracer.spans
        child_s = [0.0] * len(spans)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.tape_nodes = tracer.tape_nodes
        self.saved_bytes = tracer.saved_bytes
        self.wall_s = wall_s
        self.stages = stages
        top_s = 0.0
        for name, t0, t1, parent, _ in spans:
            self.total_s[name] += t1 - t0
            self.calls[name] += 1
            if parent >= 0:
                child_s[parent] += t1 - t0
            else:
                top_s += t1 - t0
        for (name, t0, t1, _, _), c in zip(spans, child_s):
            self.self_s[name.split(".", 1)[0]] += (t1 - t0) - c
        self.untraced_s = wall_s - top_s

        # Decoder stages: inside each decode_heatmap span, the t-th upsample2
        # and conv2d belong to stage t; the conv after the last stage is the
        # output conv.
        seen = defaultdict(int)
        for name, t0, t1, parent, _ in spans:
            if parent < 0 or spans[parent][0] != "model.decode_heatmap":
                continue
            if name in ("autodiff.upsample2", "autodiff.conv2d"):
                t = seen[parent, name]
                seen[parent, name] += 1
                kind = "up" if name.endswith("upsample2") else "conv"
                key = "out" if kind == "conv" and t >= stages else f"{kind}{t}"
                self.total_s[f"decoder.{key}"] += t1 - t0


def write_spans(path, spans, t_ref: float):
    """Gzipped JSON of one round's spans: a name table and rows of
    [name index, start us, end us, parent index, sample id]."""
    names = {}
    rows = []
    for name, t0, t1, parent, sample in spans:
        idx = names.setdefault(name, len(names))
        rows.append([idx, round((t0 - t_ref) * 1e6, 1), round((t1 - t_ref) * 1e6, 1), parent, sample])
    with gzip.open(path, "wt") as fh:
        json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
