"""Per-layer tracing of the mjae package from outside.

``Tracer`` wraps public functions of ``mjae`` modules for the duration of a
``with`` block. Several modules bind functions by name (``from .network
import forward``), so each wrapper is installed in every ``mjae`` namespace
that holds the original function object, under one span name. Leaving the
block puts every original attribute back, also when the traced code raised.

Spans (name, start, end, parent, run id) are appended to in-memory lists.
The benchmark is one thread and every wrapped call returns before its caller
continues, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# Span and counter names are "<module>.<function>" within the mjae package.
SPAN_TARGETS = (
    "molgraph.to_dense",
    "trajectory.perturb_continuous",
    "frames.molecule_frames",
    "autodiff.backward",
    "network.forward",
    "network.encode",
    "network.fuse",
    "network.edge_condition",
    "network.fuse_gcn",
    "network.score_3d",
    "network.score_2d",
    "network.score_h",
    "network.project",
    "network.fourier_embed",
    "loss.score_matching_loss",
    "loss.contrastive_loss",
    "training.train",
    "training.training_step",
    "training.adam_step",
    "training.clip_gradients",
    "training.load_checkpoint",
    "sampling.generate",
    "sampling.reverse_step",
    "evalsuite.gaussian_score_toy",
)
# Functions of a few microseconds called thousands of times per unit of work:
# counted only, because a span would cost more than the call.
COUNT_TARGETS = ("schedule.alpha_beta",)
# Time the tracer spends on its own bookkeeping inside traced calls.
COUNT_TAPE_SPAN = "trace.count_tape"


def count_tape_nodes(loss):
    """Nodes ``autodiff.backward`` visits: reachable from ``loss`` through
    parents that require gradients, the loss included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent, _ in getattr(node, "_parents", ()):
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Context manager that records spans and counts for the named targets.

    ``run_id`` may be changed between calls; each span and count records the
    value current at its start. Counts are keyed ``(key, run_id)``:
    ``"<span>.errors"`` for calls that raised (the exception propagates
    unchanged), ``"<target>.calls"`` for count-only targets and
    ``"autodiff.tape_nodes"``. A tracer may be entered again after it exits.
    """

    def __init__(self, spans=SPAN_TARGETS, counts=COUNT_TARGETS):
        self.span_names = tuple(spans)
        self.count_names = tuple(counts)
        self.run_id = 0
        self.names = []      # span name per span
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, -1 at top level
        self.run_ids = []
        self.counts = Counter()
        self._stack = []
        self._patched = []   # (namespace, attribute, original)

    # -- installation ---------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "mjae" or name.startswith("mjae."))]

    @staticmethod
    def _target(name):
        module, attr = name.rsplit(".", 1)
        return getattr(sys.modules[f"mjae.{module}"], attr)

    def _install(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        try:
            for name in self.span_names:
                original = self._target(name)
                if name == "autodiff.backward":
                    wrapper = self._backward_wrapper(original)
                else:
                    wrapper = self._span_wrapper(name, original)
                self._install(original, wrapper)
            for name in self.count_names:
                original = self._target(name)
                self._install(original, self._count_wrapper(name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every patched attribute back, in reverse order of patching."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- recording ------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counts[(name + ".errors", self.run_id)] += 1
                raise
            finally:
                self._close(idx)
        return traced

    def _backward_wrapper(self, fn):
        span = self._span_wrapper("autodiff.backward", fn)

        def traced(loss):
            idx = self._open(COUNT_TAPE_SPAN)
            try:
                self.counts[("autodiff.tape_nodes", self.run_id)] += count_tape_nodes(loss)
            finally:
                self._close(idx)
            return span(loss)
        return traced

    def _count_wrapper(self, name, fn):
        key = name + ".calls"

        def counted(*args, **kwargs):
            self.counts[(key, self.run_id)] += 1
            return fn(*args, **kwargs)
        return counted

    # -- results --------------------------------------------------------

    def self_times(self, run_ids=None):
        """Per span name: (calls, total self seconds), over spans whose run id
        is in ``run_ids`` (all spans when None)."""
        start = np.array(self.starts)
        dur = np.array(self.ends) - start
        parent = np.array(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        keep = np.ones(len(dur), dtype=bool)
        if run_ids is not None:
            keep = np.isin(np.array(self.run_ids, dtype=np.int64), list(run_ids))
        out = {}
        for i in np.flatnonzero(keep):
            calls, total = out.get(self.names[i], (0, 0.0))
            out[self.names[i]] = (calls + 1, total + float(own[i]))
        return out

    def count(self, key, run_ids):
        return sum(self.counts[(key, r)] for r in run_ids)

    def save(self, path):
        """Write the spans as numpy arrays; ``name`` indexes ``span_table``."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(path, span_table=np.array(table),
                 name=np.array([index[n] for n in self.names], dtype=np.int32),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int64),
                 run_id=np.array(self.run_ids, dtype=np.int64))
