"""Outside-in layer tracing for the coprompt benchmark.

The tracer wraps public functions of the program's modules from the
outside; nothing inside `src/` knows about it. Each wrapped call becomes a
span (name, start, end, parent). Spans stay in memory and are summarised
per name when a traced phase ends: call count, inclusive durations, and
self time, which is a span's duration minus the part of it that its child
spans cover.

Callers bind some of these functions by name (`from .consistency import
consistency_loss`), so installing a wrapper rebinds every global of every
loaded `coprompt` module that is the original object, and removing the
wrappers puts each original back.

Span edges are read with `perf_counter`, the cheapest clock: a wrapper's
own cost falls outside its span and so into the parent's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import statistics
import sys
from array import array
from time import perf_counter

AUTODIFF_OPS = (
    "matmul", "add", "mul", "div", "neg", "layernorm", "softmax", "gelu",
    "concat", "slice_", "reshape", "transpose", "l2_normalize",
    "embedding_lookup", "mean", "cross_entropy_from_logits",
)

# (span name, defining module, attribute path in that module, kind)
TARGETS = (
    ("autodiff.backward", "coprompt.autodiff", "backward", "plain"),
    ("autodiff.sgd_step", "coprompt.autodiff", "SGD.step", "plain"),
    *((f"autodiff.op.{op}", "coprompt.autodiff", op, "op") for op in AUTODIFF_OPS),
    ("encoders.encode_image", "coprompt.encoders", "DualEncoder.encode_image", "encode"),
    ("encoders.encode_text", "coprompt.encoders", "DualEncoder.encode_text", "encode_text"),
    ("encoders.contrastive_pretrain", "coprompt.encoders", "contrastive_pretrain", "plain"),
    ("encoders.retrieval_accuracy", "coprompt.encoders", "retrieval_accuracy", "plain"),
    ("tuning.schedules", "coprompt.tuning", "PromptSet.schedules", "plain"),
    ("tuning.apply_adapter", "coprompt.tuning", "apply_adapter", "plain"),
    ("consistency.perturb_image", "coprompt.consistency", "perturb_image", "plain"),
    ("consistency.perturb_text", "coprompt.consistency", "perturb_text", "plain"),
    ("consistency.consistency_loss", "coprompt.consistency", "consistency_loss", "plain"),
    ("training.finetune", "coprompt.training", "finetune", "plain"),
    ("training.train_step", "coprompt.training", "Trainer.train_step", "plain"),
    ("training.class_matrix", "coprompt.training", "TunedModel.class_matrix", "plain"),
    ("training.text_embedding", "coprompt.training", "TunedModel.text_embedding", "plain"),
    ("training.image_embedding", "coprompt.training", "TunedModel.image_embedding", "plain"),
    ("training.supervised_loss", "coprompt.training", "supervised_loss", "plain"),
    ("training.final_metrics", "coprompt.training", "Trainer.final_metrics", "plain"),
    ("evaluation.base_to_novel_eval", "coprompt.evaluation", "base_to_novel_eval", "plain"),
    ("evaluation.cross_dataset_eval", "coprompt.evaluation", "cross_dataset_eval", "plain"),
    ("evaluation.domain_gen_eval", "coprompt.evaluation", "domain_gen_eval", "plain"),
    ("evaluation.pool_accuracy", "coprompt.evaluation", "_pool_accuracy", "plain"),
    ("evaluation.predict", "coprompt.evaluation", "predict", "plain"),
    ("datasets.build_default_suite", "coprompt.datasets", "build_default_suite", "plain"),
    ("datasets.Dataset.load", "coprompt.datasets", "Dataset.load", "plain"),
    ("datasets.make_fewshot_split", "coprompt.datasets", "make_fewshot_split", "plain"),
    ("checkpoints.save_backbone", "coprompt.encoders", "save_backbone", "plain"),
    ("checkpoints.load_backbone", "coprompt.encoders", "load_backbone", "plain"),
    ("checkpoints.save_finetune_checkpoint", "coprompt.training",
     "save_finetune_checkpoint", "plain"),
    ("checkpoints.load_finetune_checkpoint", "coprompt.training",
     "load_finetune_checkpoint", "plain"),
    ("checkpoints.write_tensor", "coprompt.checkpoints", "write_tensor", "write_tensor"),
    ("checkpoints.read_tensor", "coprompt.checkpoints", "read_tensor", "read_tensor"),
    ("cli.main", "coprompt.cli", "main", "plain"),
)


class MissingTargets(Exception):
    """A traced function is no longer in the program: TARGETS needs updating."""


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover (clipped to the span itself).
    `parents[i]` is the index of span i's parent, or -1 for a root."""
    n = len(starts)
    children = [[] for _ in range(n)]
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children[p].append(i)
    out = [0.0] * n
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda k: starts[k]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (hi - lo) - covered
    return out


def percentile(values, q):
    """Linear-interpolated q-th percentile (0-100) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def wrapper_cost():
    """Seconds a traced wrapper adds to one call: the fastest of three
    timings of 20,000 wrapped calls of a no-op, minus the bare calls."""
    def noop():
        return None

    calls = 20_000
    wrapped = Tracer()._wrap(noop, "noop", "plain")
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (perf_counter() - t1) - (t1 - t0))
    return best / calls


def _resolve(module_name, path):
    """(owner object, attribute name, raw value in the owner's __dict__)."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    attr = parts[-1]
    raw = vars(owner).get(attr)
    return owner, attr, raw


class Tracer:
    """Span recorder plus the wrappers that feed it.

    `install()` wraps every target and `uninstall()` restores each patched
    binding; use the tracer as a context manager to pair them. A target
    absent from the program makes `install()` raise MissingTargets, so a
    renamed or deleted function cannot read as a layer that got faster.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.graph_ops = 0
        self.text_keys = []          # per no-grad encode_text call
        self.tensor_bytes = {"checkpoints.write_tensor": 0, "checkpoints.read_tensor": 0}
        self._patches = []           # (owner, attr, original raw value)

    # -- span recording ---------------------------------------------------

    def _id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of benchmark code; yields its index."""
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name_id):
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, kind):
        open_, close = self._open, self._close
        base_id = self._id(name)
        if kind in ("encode", "encode_text"):
            grad_id, nograd_id = self._id(name + ".grad"), self._id(name + ".nograd")
        name_of = self.name_of

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(base_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if kind == "op":
                if out.requires_grad:
                    self.graph_ops += 1
            elif kind in ("encode", "encode_text"):
                name_of[idx] = grad_id if out.requires_grad else nograd_id
                if kind == "encode_text" and not out.requires_grad:
                    prompts = args[2] if len(args) > 2 else kwargs.get("prompts")
                    self.text_keys.append((tuple(args[1]), prompts is not None))
            elif kind in ("write_tensor", "read_tensor"):
                directory, tensor_name = args[0], args[1]
                self.tensor_bytes[name] += os.path.getsize(
                    os.path.join(directory, tensor_name + ".bin"))
            return out

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        resolved, missing = [], []
        for name, module_name, path, kind in TARGETS:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except (ImportError, AttributeError):
                raw = None
            if raw is None:
                missing.append(name)
            else:
                resolved.append((name, kind, owner, attr, raw))
        if missing:
            raise MissingTargets(f"traced functions absent from the program: {missing}")
        try:
            for name, kind, owner, attr, raw in resolved:
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(fn, name, kind)
                self._patch(owner, attr, raw, staticmethod(wrapper) if is_static else wrapper)
                if not isinstance(owner, type):
                    # rebind every module-level alias of the same function
                    for mod_name, mod in list(sys.modules.items()):
                        if mod is None or mod is owner or not (
                                mod_name == "coprompt" or mod_name.startswith("coprompt.")):
                            continue
                        for alias, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, alias, fn, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_bindings(self):
        """[(owner, attr, original)] for every binding currently replaced."""
        return list(self._patches)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ----------------------------------------------------------

    def summary(self):
        """Per-name statistics of the spans below the first (root) span.

        Returns ({name: {"calls", "self_s", "ms_p50", "ms_tail"}},
        root duration); `ms_tail` is the 95th percentile.
        """
        self_s = self_times(self.start, self.end, self.parent)
        durs, selfs = {}, {}
        for i in range(1, len(self.start)):
            name = self.names[self.name_of[i]]
            durs.setdefault(name, []).append(self.end[i] - self.start[i])
            selfs[name] = selfs.get(name, 0.0) + self_s[i]
        table = {}
        for name, ds in durs.items():
            table[name] = {
                "calls": len(ds),
                "self_s": selfs[name],
                "ms_p50": 1000.0 * statistics.median(ds),
                "ms_tail": 1000.0 * percentile(ds, 95.0),
            }
        return table, self.end[0] - self.start[0]

    def count_under(self, name_prefix, ancestor_prefix):
        """Spans named `name_prefix*` with an ancestor named `ancestor_prefix*`."""
        count = 0
        for i in range(len(self.start)):
            if not self.names[self.name_of[i]].startswith(name_prefix):
                continue
            p = self.parent[i]
            while p >= 0 and not self.names[self.name_of[p]].startswith(ancestor_prefix):
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path):
        """Write every recorded span (name, start, end, parent) as .npz."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name_of),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))
