"""Span tracing of qivcnet's layers from outside the package.

``instrument`` wraps the public functions named in ``FUNCTIONS``,
``METHODS`` and ``AUTODIFF_GROUPS`` so that each call records a span (name,
start, end, parent span) in a ``Tracer`` and bumps its counters.  Autodiff
ops also wrap the ``_backward`` closure of the tensor they return, so the
backward pass is timed per op group.  Wrappers are rebound wherever a
``qivcnet`` module holds the original, because several modules import
functions by name (``training`` imports ``save_checkpoint`` and
``load_checkpoint``, ``cli`` imports ``stratified_kfold``), and in
``autodiff.ACTIVATIONS``, whose ``relu`` is bound into each block when the
network is built.  Install the wrappers before any network is constructed.

A span's self time is its duration minus the time covered by its child
spans, so the self times of one tree add up to the duration of its root
(``smoke.py`` checks this on the written spans).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from qivcnet import (autodiff, checkpoint, dataio, folds, losses, metrics, network,
                     preprocess, qire, training, variational)

AUTODIFF_GROUPS = {
    "lstm": ("lstm",),
    "batch_norm": ("batch_norm",),
    "conv1d": ("conv1d",),
    "relu": ("relu",),
    "pool": ("max_pool", "global_max_pool"),
    "layout": ("concat", "reverse_time", "reshape", "take_channel"),
    "scalar": ("add", "sub", "mul", "div", "neg", "softplus", "log", "tsum", "matmul",
               "softmax", "tanh", "sigmoid", "exp", "tmean"),
}

FUNCTIONS = (
    (qire, "qire_sample"),
    (variational, "sample_weights"),
    (variational, "kl_divergence"),
    (losses, "composite_loss"),
    (training, "evaluate_segments"),
    (network, "infer_probs"),
    (network, "export_latent"),
    (network, "segments_to_batch"),
    (checkpoint, "save_checkpoint"),
    (checkpoint, "load_checkpoint"),
    (preprocess, "bandpass"),
    (preprocess, "butter_bandpass_sos"),
    (preprocess, "finalize_segment"),
    (preprocess, "inject_noise_snr"),
    (dataio, "read_wav"),
    (dataio, "save_segment_cache"),
    (dataio, "load_segment_cache"),
    (dataio, "write_csv"),
    (folds, "stratified_kfold"),
    (metrics, "compute_metrics"),
    (metrics, "reliability_bins"),
)

METHODS = (
    (network, network.QivcNet, "forward"),
    (training, training.Adam, "step"),
)

# Spans under which graph nodes are inference work, not training steps.
INFERENCE_SPANS = ("network.infer_probs", "network.export_latent")

CLI_COMMANDS = ("preprocess", "train", "eval", "robustness", "calibrate", "export-latent")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "B"
    return "count"


def per_layer_units() -> "dict[str, str]":
    """Every per-layer metric a traced run reports, with its unit, in order."""
    names = []
    for group in AUTODIFF_GROUPS:
        names += [f"autodiff.{group}.fwd_ms", f"autodiff.{group}.bwd_ms"]
    names += ["autodiff.backward.walk_ms", "autodiff.nodes", "autodiff.out_mb",
              "autodiff.infer_closures",
              "qire.qire_sample.ms", "qire.qire_sample.calls",
              "variational.sample_weights.ms", "variational.kl_divergence.ms",
              "losses.composite_loss.ms",
              "training.Adam.step.ms", "training.steps", "training.evaluate_segments.ms",
              "network.QivcNet.forward.ms", "network.infer_probs.ms",
              "network.export_latent.ms", "network.segments_to_batch.ms",
              "checkpoint.save_checkpoint.ms", "checkpoint.save_checkpoint.calls",
              "checkpoint.load_checkpoint.ms", "checkpoint.bytes",
              "preprocess.bandpass.ms", "preprocess.butter_bandpass_sos.ms",
              "preprocess.butter_bandpass_sos.calls", "preprocess.finalize_segment.ms",
              "preprocess.rejected", "preprocess.inject_noise_snr.ms",
              "dataio.read_wav.ms", "dataio.save_segment_cache.ms",
              "dataio.load_segment_cache.ms", "dataio.load_segment_cache.calls",
              "dataio.cache_bytes", "dataio.write_csv.ms",
              "folds.stratified_kfold.ms", "metrics.compute_metrics.ms",
              "metrics.reliability_bins.ms"]
    names += [f"cli.{cmd}.ms" for cmd in CLI_COMMANDS]
    names.append("trace.overhead_s")
    return {name: _unit(name) for name in names}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: "list[list]" = []   # [name, start_ns, end_ns, parent index]
        self.stack: "list[int]" = []
        self.counts: Counter = Counter()
        self.inference_depth = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def write(self, path: Path) -> None:
        """One JSON line per span, then one line with the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run_id": self.run_id}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "run_id": self.run_id}) + "\n")


def self_times(spans) -> "list[int]":
    """Duration of each span minus the part its children cover."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def _rebind(original, wrapper, undo: list) -> None:
    """Point every qivcnet module global (and ACTIVATIONS entry) that holds
    ``original`` at ``wrapper``; remember how to restore it."""
    for name, module in list(sys.modules.items()):
        if name != "qivcnet" and not name.startswith("qivcnet."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((setattr, module, attr, original))
                setattr(module, attr, wrapper)
    for key, value in list(autodiff.ACTIVATIONS.items()):
        if value is original:
            undo.append((dict.__setitem__, autodiff.ACTIVATIONS, key, original))
            autodiff.ACTIVATIONS[key] = wrapper


def _autodiff_wrapper(tracer: Tracer, group: str, fn):
    fwd_name = f"autodiff.{group}.fwd"
    bwd_name = f"autodiff.{group}.bwd"

    def op(*args, **kwargs):
        out = tracer.call(fwd_name, fn, *args, **kwargs)
        counts = tracer.counts
        counts["autodiff.out_bytes"] += out.data.nbytes
        inner = out._backward
        if tracer.inference_depth:
            counts["autodiff.infer_closures"] += inner is not None
        else:
            counts["autodiff.train_nodes"] += 1
        if inner is not None:
            out._backward = lambda g: tracer.call(bwd_name, inner, g)
        return out

    return op


def _function_wrapper(tracer: Tracer, name: str, fn):
    calls = name + ".calls"
    inference = name in INFERENCE_SPANS

    def wrapped(*args, **kwargs):
        tracer.counts[calls] += 1
        if name in ("checkpoint.load_checkpoint", "dataio.load_segment_cache"):
            tracer.counts[_BYTES[name]] += os.path.getsize(args[0])
        if inference:
            tracer.inference_depth += 1
        try:
            out = tracer.call(name, fn, *args, **kwargs)
        finally:
            if inference:
                tracer.inference_depth -= 1
        if name in ("checkpoint.save_checkpoint", "dataio.save_segment_cache"):
            tracer.counts[_BYTES[name]] += os.path.getsize(args[0])
        elif name == "preprocess.finalize_segment":
            tracer.counts["preprocess.rejected"] += isinstance(out, preprocess.RejectedWindow)
        return out

    return wrapped


_BYTES = {"checkpoint.save_checkpoint": "checkpoint.bytes",
          "checkpoint.load_checkpoint": "checkpoint.bytes",
          "dataio.save_segment_cache": "dataio.cache_bytes",
          "dataio.load_segment_cache": "dataio.cache_bytes"}


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    undo: list = []
    for group, ops in AUTODIFF_GROUPS.items():
        for op in ops:
            original = getattr(autodiff, op)
            _rebind(original, _autodiff_wrapper(tracer, group, original), undo)
    _rebind(autodiff.backward,
            lambda loss, _fn=autodiff.backward: tracer.call("autodiff.backward.walk", _fn, loss),
            undo)
    for module, attr in FUNCTIONS:
        original = getattr(module, attr)
        _rebind(original, _function_wrapper(tracer, f"{_short(module)}.{attr}", original), undo)
    for module, cls, attr in METHODS:
        original = getattr(cls, attr)
        undo.append((setattr, cls, attr, original))
        setattr(cls, attr, _function_wrapper(
            tracer, f"{_short(module)}.{cls.__name__}.{attr}", original))

    def remove() -> None:
        for setter, owner, key, value in reversed(undo):
            setter(owner, key, value)

    return remove


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> "dict[str, float]":
    """Aggregate spans and counters into the per-layer metric values."""
    self_ms: Counter = Counter()
    total_ms: Counter = Counter()
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        self_ms[name] += own / 1e6
        total_ms[name] += (end - start) / 1e6
    counts = tracer.counts
    steps = counts["training.Adam.step.calls"]
    values = {
        "autodiff.backward.walk_ms": self_ms["autodiff.backward.walk"],
        "autodiff.nodes": counts["autodiff.train_nodes"] / steps if steps else 0,
        "autodiff.out_mb": counts["autodiff.out_bytes"] / 1e6,
        "training.steps": steps,
        "trace.overhead_s": overhead_s,
    }
    for group in AUTODIFF_GROUPS:
        for phase in ("fwd", "bwd"):
            values[f"autodiff.{group}.{phase}_ms"] = self_ms[f"autodiff.{group}.{phase}"]
    for cmd in CLI_COMMANDS:
        # commands are the roots: report their whole duration
        values[f"cli.{cmd}.ms"] = total_ms[f"cli.{cmd}"]
    for name in per_layer_units():
        if name not in values:
            values[name] = self_ms[name[:-3]] if name.endswith(".ms") else counts[name]
    return values
