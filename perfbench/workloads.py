"""The benchmark's three workloads: set-up, timed passes and output checks.

Every workload is a closed loop with one caller: a pass runs the workload's
`coprompt` CLI command(s) in this process and checks their outputs. Passes
repeat until the run's measuring time is used up.

- `pretrain`: `coprompt pretrain` over the four generated families at batch
  32. The only workload whose backward and SGD touch every encoder weight;
  no tuning or consistency code runs.
- `finetune`: `coprompt finetune` at the default train config, shortened to
  two epochs (64 steps). Every part of the method runs on every step.
- `eval`: `coprompt eval` for base_to_novel (tuned model and zero-shot
  backbone), cross_dataset, domain_gen and train_ce on one tuned
  checkpoint, then single-image `predict` calls, one after another, on the
  base-class test images. Forward only; pool evaluation is bound by the
  image encoder, `predict` (which re-encodes the class matrix per call) by
  the text encoder.

The inputs come from the workload seed alone: it derives the suite seed,
the backbone init seed and the train seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from coprompt import cli, datasets, encoders, evaluation, training
from tracer import TARGETS, Tracer, percentile, wrapper_cost

WORKLOADS = ("pretrain", "finetune", "eval")
FAMILIES = ("fields_a", "fields_b", "fields_c", "fields_d")
SOURCE = "fields_a"
PRETRAIN_BATCH = 32
PRETRAIN_EPOCHS = 1
MIN_MEASURED_PASSES = 2
TRAIN_CE_TOLERANCE = 1e-9
ACCURACY_TOLERANCE = 1e-12

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "final_loss": "nats",
    "peak_rss_mb": "MB",
}

# Layer spans reported per traced pass; encoder calls are split by whether
# they recorded a graph. `evaluation.pool_accuracy` is traced only so that
# images classified by the CLI's own pool loop count in `evaluation.images`.
LAYER_SPANS = tuple(
    s for name, *_ in TARGETS if name != "evaluation.pool_accuracy"
    for s in ((name + ".grad", name + ".nograd") if name.startswith("encoders.encode_")
              else (name,)))
# spans that only run during set-up; their figures come from the traced set-up
SETUP_SPANS = ("datasets.build_default_suite",)

# Spans each workload must reach in a traced pass (set-up spans excluded).
# A wrapped function on this list that records no call fails the run, so a
# binding the tracer missed cannot hide its time.
_COMMON = (
    "cli.main", "datasets.Dataset.load", "checkpoints.load_backbone",
    "checkpoints.read_tensor", "encoders.encode_image.nograd",
    "encoders.encode_text.nograd",
    "autodiff.op.matmul", "autodiff.op.add", "autodiff.op.mul",
    "autodiff.op.layernorm", "autodiff.op.softmax", "autodiff.op.gelu",
    "autodiff.op.concat", "autodiff.op.slice_", "autodiff.op.reshape",
    "autodiff.op.transpose", "autodiff.op.l2_normalize",
    "autodiff.op.embedding_lookup", "autodiff.op.mean",
)
_TRAIN = ("autodiff.backward", "autodiff.sgd_step", "encoders.encode_image.grad",
          "encoders.encode_text.grad", "autodiff.op.cross_entropy_from_logits",
          "checkpoints.write_tensor")
_TUNED = ("tuning.schedules", "tuning.apply_adapter", "training.text_embedding",
          "training.image_embedding", "datasets.make_fewshot_split",
          "checkpoints.load_finetune_checkpoint")
EXPECTED = {
    "pretrain": _COMMON + _TRAIN + (
        "encoders.contrastive_pretrain", "encoders.retrieval_accuracy",
        "checkpoints.save_backbone", "autodiff.op.div"),
    "finetune": _COMMON + _TRAIN + _TUNED + (
        "consistency.perturb_image", "consistency.perturb_text",
        "consistency.consistency_loss", "training.finetune", "training.train_step",
        "training.class_matrix", "training.supervised_loss",
        "training.final_metrics", "checkpoints.save_finetune_checkpoint",
        "autodiff.op.neg"),
    "eval": _COMMON + _TUNED + (
        "evaluation.predict", "evaluation.base_to_novel_eval",
        "evaluation.cross_dataset_eval", "evaluation.domain_gen_eval"),
}


@dataclass(frozen=True)
class Scale:
    """Input sizes of a run; DEFAULT is the benchmark, TINY a smoke test.

    DEFAULT trims build_default_suite's pools (source train/test 24/24 and
    target train 20 by default) so that a pass takes seconds: pretrain then
    runs 12 steps per epoch and eval's predict loop 128 calls per pass."""
    source_counts: tuple = (20, 4, 16)
    target_counts: tuple = (4, 4, 8)
    finetune_epochs: int = 2
    shots: int = 16
    checkpoint_steps: int = 8
    setup_reps: int = 5


DEFAULT = Scale()
TINY = Scale(source_counts=(4, 2, 4), target_counts=(4, 2, 2), finetune_epochs=1,
             shots=4, checkpoint_steps=2, setup_reps=1)


def layer_metric_units():
    """{metric name: unit} printed by a traced run, in a fixed order."""
    units = {}
    for span in LAYER_SPANS:
        units[span + ".calls"] = "count"
        units[span + ".self_pct"] = "%"
    units.update({
        "autodiff.graph_ops_per_step": "count",
        "encoders.encode_image.nograd.ms_p50": "ms",
        "encoders.encode_text.nograd.ms_p50": "ms",
        "encoders.encode_text.nograd.distinct_ratio": "ratio",
        "evaluation.images": "count",
        "checkpoints.write_tensor.bytes": "B",
        "checkpoints.read_tensor.bytes": "B",
        "tracing.overhead_s": "s",
        "tracing.overhead_pct": "%",
    })
    return units


def derive_seeds(seed):
    """(suite seed, backbone init seed, train seed) from the workload seed."""
    state = np.random.SeedSequence([int(seed), 2306_01195]).generate_state(3)
    return tuple(int(s % 1_000_000) for s in state)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Tally:
    """Attempted and failed operations; a failed output check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, what, fn):
        """Run one operation; returns its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # every failure of the program is counted, not fatal
            self.failed += 1
            self.errors.append(f"{what}: {type(e).__name__}: {e}")
            return None


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _cli_ok(argv, p=None):
    """Run one in-process CLI command that must exit 0; when a pass `p` is
    given, add the command's CPU seconds to `p.run_s` and its wall seconds
    to `p.cli_wall_s`."""
    with contextlib.redirect_stdout(io.StringIO()):
        c0, w0 = process_time(), perf_counter()
        rc = cli.main(argv)
        cpu, wall = process_time() - c0, perf_counter() - w0
    _require(rc == 0, f"exit code {rc}")
    if p is not None:
        p.run_s += cpu
        p.cli_wall_s += wall


def _median(xs):
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def _pool_images(ds, class_ids):
    return len(class_ids) * ds.manifest.split.test


# ---------------------------------------------------------------------------
# set-up


def setup(workload, work, seeds, scale):
    """Generate the inputs of one run under `work`; returns the run context."""
    suite_seed, backbone_seed, train_seed = seeds
    suite = datasets.build_default_suite(
        os.path.join(work, "suite"), seed=suite_seed,
        source_counts=scale.source_counts, target_counts=scale.target_counts)
    source = suite[SOURCE]
    ctx = {"work": work, "source": source.directory}

    if workload == "pretrain":
        ctx["out"] = os.path.join(work, "pretrained")
        ctx["config"] = os.path.join(work, "pretrain.json")
        _write_json(ctx["config"], {
            "datasets": [suite[f].directory for f in FAMILIES], "out": ctx["out"],
            "seed": backbone_seed, "epochs": PRETRAIN_EPOCHS,
            "batch_size": PRETRAIN_BATCH})
        n_classes = sum(len(suite[f].manifest.classes) for f in FAMILIES)
        ctx["batch"] = min(PRETRAIN_BATCH, n_classes)
        return ctx

    tokenizer = encoders.Tokenizer.from_manifests([suite[f].manifest for f in FAMILIES])
    backbone = encoders.DualEncoder(encoders.EncoderConfig(), tokenizer,
                                    seed=backbone_seed, frozen=True)
    ctx["backbone"] = os.path.join(work, "backbone")
    encoders.save_backbone(ctx["backbone"], backbone)
    encoders.load_backbone(ctx["backbone"])

    train = {"seed": train_seed, "epochs": scale.finetune_epochs, "shots": scale.shots}
    ctx["batch"] = training.TrainConfig().batch_size
    ctx["finetune_config"] = os.path.join(work, "finetune.json")
    ctx["out"] = os.path.join(work, "finetuned")
    _write_json(ctx["finetune_config"], {
        "backbone": ctx["backbone"], "dataset": source.directory,
        "out": ctx["out"], "train": train})
    base, novel = source.manifest.split.base, source.manifest.split.novel
    train_ce = ({"checkpoint": ctx["out"], "protocol": "train_ce",
                 "dataset": source.directory}, len(base) * scale.shots)
    if workload == "finetune":
        return _write_evals(ctx, {"train_ce": train_ce})

    # the evaluated checkpoint: a short fine-tune of the same config
    _cli_ok(["finetune", "--config", ctx["finetune_config"],
             "--override", f"max_steps={scale.checkpoint_steps}"])
    all_source = [c.id for c in source.manifest.classes]
    targets = [suite[f] for f in FAMILIES if f != SOURCE]
    variants = [suite[f"{SOURCE}-{shift}"] for shift in datasets.VARIANT_SHIFTS]
    evals = {
        "base_to_novel": ({"checkpoint": ctx["out"], "protocol": "base_to_novel",
                           "dataset": source.directory},
                          _pool_images(source, base + novel)),
        "base_to_novel_backbone": ({"checkpoint": ctx["backbone"],
                                    "protocol": "base_to_novel",
                                    "dataset": source.directory},
                                   _pool_images(source, base + novel)),
        "cross_dataset": ({"checkpoint": ctx["out"], "protocol": "cross_dataset",
                           "dataset": source.directory,
                           "targets": [t.directory for t in targets]},
                          _pool_images(source, all_source) + sum(
                              _pool_images(t, [c.id for c in t.manifest.classes])
                              for t in targets)),
        "domain_gen": ({"checkpoint": ctx["out"], "protocol": "domain_gen",
                        "variants": [v.directory for v in variants]},
                       sum(_pool_images(v, all_source) for v in variants)),
        "train_ce": train_ce,
    }
    return _write_evals(ctx, evals)


def _write_evals(ctx, evals):
    """Write one `coprompt eval` config per {name: (config, images)}."""
    ctx["evals"] = []
    for name, (cfg, images) in evals.items():
        out = os.path.join(ctx["work"], "eval_" + name)
        path = out + ".json"
        _write_json(path, dict(cfg, out=out))
        ctx["evals"].append((name, path, out, images))
    return ctx


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    run_s: float = 0.0
    cli_wall_s: float = 0.0
    samples: int = 0
    final_loss: float = math.nan
    latencies: list = field(default_factory=list)
    predict_accuracy: float = math.nan
    wall: float = 0.0


def _predict_loop(tally, model, dataset_dir, p):
    """Single-image predict calls over the base-class test images."""
    ds = datasets.Dataset.load(dataset_dir)
    base = ds.manifest.split.base
    names = [ds.manifest.classes[cid].name for cid in base]
    correct = 0
    for pos, cid in enumerate(base):
        for pixels, _ in ds.pool([cid], "test"):
            def call():
                t0 = process_time()
                idx, probs = evaluation.predict(model, pixels, names)
                p.latencies.append(process_time() - t0)
                _require(0 <= idx < len(names) and np.all(np.isfinite(probs))
                         and abs(float(probs.sum()) - 1.0) <= 1e-9
                         and probs[idx] == probs.max(), "invalid prediction")
                return idx
            idx = tally.op("predict", call)
            correct += idx == pos
    p.predict_accuracy = 100.0 * correct / _pool_images(ds, base)


def _pass_pretrain(ctx, tally, p):
    out = ctx["out"]

    def command():
        _cli_ok(["pretrain", "--config", ctx["config"]], p)
        metrics = _read_json(os.path.join(out, "pretrain_metrics.json"))
        with open(os.path.join(out, "pretrain_loss.csv")) as f:
            losses = [float(line.split(",")[1]) for line in f.readlines()[1:]]
        _require(len(losses) == metrics["steps"] > 0, "loss log does not match steps")
        _require(all(math.isfinite(v) for v in losses), "non-finite loss logged")
        _require(losses[-1] == metrics["final_loss"], "final_loss differs from the log")
        encoders.load_backbone(out)
        p.samples += metrics["steps"] * ctx["batch"]
        p.final_loss = metrics["final_loss"]

    tally.op("pretrain", command)


def _pass_finetune(ctx, tally, p):
    out = ctx["out"]

    def command():
        _cli_ok(["finetune", "--config", ctx["finetune_config"]], p)
        training.load_finetune_checkpoint(out)
        metrics = _read_json(os.path.join(out, "metrics.json"))
        p.samples += metrics["steps"] * ctx["batch"]
        p.final_loss = metrics["final_train_ce"]
        return True

    (name, eval_config, eval_out, _), = ctx["evals"]

    def train_ce():
        _cli_ok(["eval", "--config", eval_config])
        _check_eval_report(name, eval_out)

    if tally.op("finetune", command):
        tally.op("eval train_ce", train_ce)


def _check_eval_report(name, out):
    if name == "train_ce":
        report = _read_json(os.path.join(out, "train_ce.json"))
        _require(report["difference"] <= TRAIN_CE_TOLERANCE,
                 f"train_ce difference {report['difference']!r}")
        return report
    report = _read_json(os.path.join(out, "report.json"))
    if name.startswith("base_to_novel"):
        base, novel = report["base_acc"], report["novel_acc"]
        expect = 2.0 * base * novel / (base + novel) if base + novel > 0 else 0.0
        _require(abs(report["hm"] - expect) <= 1e-9, f"hm {report['hm']!r} != {expect!r}")
    else:
        _require(math.isfinite(report["average"]), "non-finite average accuracy")
    return report


def _pass_eval(ctx, tally, p):
    reports = {}
    for name, path, out, images in ctx["evals"]:
        def command():
            _cli_ok(["eval", "--config", path], p)
            p.samples += images
            return _check_eval_report(name, out)
        reports[name] = tally.op("eval " + name, command)
    if reports["train_ce"] is not None:
        p.final_loss = reports["train_ce"]["recomputed_ce"]

    model = tally.op("load checkpoint",
                     lambda: training.load_finetune_checkpoint(ctx["out"])[0])
    if model is None:
        return
    _predict_loop(tally, model, ctx["source"], p)
    b2n = reports["base_to_novel"]
    if b2n is not None:
        tally.op("predict accuracy == base_to_novel base accuracy", lambda: _require(
            abs(p.predict_accuracy - b2n["base_acc"]) <= ACCURACY_TOLERANCE,
            f"predict loop {p.predict_accuracy!r} vs base_to_novel {b2n['base_acc']!r}"))


PASSES = {"pretrain": _pass_pretrain, "finetune": _pass_finetune, "eval": _pass_eval}


# ---------------------------------------------------------------------------
# one run


def _layer_metrics(workload, tracer, setup_tracer, call_cost):
    """Per-layer metrics of one traced pass, plus the expected-span check.
    `call_cost` is the seconds one wrapped call adds (see wrapper_cost)."""
    table, wall = tracer.summary()
    setup_table, setup_wall = setup_tracer.summary()
    metrics = {}
    for span in LAYER_SPANS:
        src, base = (setup_table, setup_wall) if span in SETUP_SPANS else (table, wall)
        row = src.get(span, {"calls": 0, "self_s": 0.0})
        metrics[span + ".calls"] = row["calls"]
        metrics[span + ".self_pct"] = 100.0 * row["self_s"] / base
    backward = metrics["autodiff.backward.calls"]
    metrics["autodiff.graph_ops_per_step"] = tracer.graph_ops / backward if backward else 0.0
    for span in ("encoders.encode_image.nograd", "encoders.encode_text.nograd"):
        metrics[span + ".ms_p50"] = table.get(span, {"ms_p50": 0.0})["ms_p50"]
    keys = tracer.text_keys
    metrics["encoders.encode_text.nograd.distinct_ratio"] = (
        len(set(keys)) / len(keys) if keys else 0.0)
    metrics["evaluation.images"] = tracer.count_under("encoders.encode_image", "evaluation.")
    for name, nbytes in tracer.tensor_bytes.items():
        metrics[name + ".bytes"] = nbytes
    # every span below the root is one wrapped call
    metrics["tracing.overhead_s"] = (len(tracer.start) - 1) * call_cost
    metrics["tracing.overhead_pct"] = 100.0 * metrics["tracing.overhead_s"] / wall

    lost = [s for s in EXPECTED[workload] if s not in table]
    _require(not lost, f"wrapped functions recorded no call: {lost}")
    return metrics, {"pass": table, "pass_wall_s": wall,
                     "setup": setup_table, "setup_wall_s": setup_wall}


@contextlib.contextmanager
def _traced(tracer, root):
    """Install `tracer` and record one root span around the block; no-op for None."""
    if tracer is None:
        yield
        return
    with tracer, tracer.span(root):
        yield


def run(workload, seed, seconds, trace, out_root, scale=DEFAULT, import_s=0.0,
        spans_path=None):
    """One benchmark run. Returns a dict with `correct`, `attempted`,
    `failed`, `metrics` (end-to-end, or per-layer when `trace`) and detail
    for the report. `import_s`, the program's import time, is part of
    `setup_s`. A traced run writes its first traced pass's spans to
    `spans_path` when given."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seeds = derive_seeds(seed)
    base = os.path.join(out_root, ".perfbench_work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    tally = Tally()
    detail = {"seeds": dict(zip(("suite", "backbone", "train"), seeds))}
    try:
        # set-up, repeated; the first repetition's inputs feed the passes and
        # the last one is traced in a traced run
        setup_times, ctx, setup_tracer = [], None, None
        for rep in range(scale.setup_reps):
            traced = trace and rep == scale.setup_reps - 1
            tracer = Tracer() if traced else None
            with _traced(tracer, "bench.setup"):
                t0 = process_time()
                rep_ctx = setup(workload, os.path.join(base, f"rep{rep}"), seeds, scale)
                setup_times.append(process_time() - t0)
            if traced:
                setup_tracer = tracer
            if ctx is None:
                ctx = rep_ctx
            else:
                shutil.rmtree(rep_ctx["work"], ignore_errors=True)

        # pass 0 warms the allocator and the file cache and is not measured;
        # in a traced run the measured passes alternate traced, untraced
        passes, measured, layer_runs = [], 0.0, []
        call_cost = wrapper_cost() if trace else 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            p = Pass()
            tracer = Tracer() if traced else None
            t0 = perf_counter()
            with _traced(tracer, "bench.pass"):
                PASSES[workload](ctx, tally, p)
            p.wall = perf_counter() - t0
            passes.append((p, traced))
            measured += p.wall
            if traced:
                if spans_path and not layer_runs:
                    tracer.write(spans_path)
                layer_runs.append(tally.op(
                    "traced pass spans",
                    lambda: _layer_metrics(workload, tracer, setup_tracer, call_cost)))
            if len(passes) > MIN_MEASURED_PASSES and measured + p.wall > seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    plain = [p for p, traced in passes[1:] if not traced]
    losses = {float(p.final_loss).hex() for p, _ in passes}
    tally.op("final_loss bitwise identical across passes (traced and untraced)",
             lambda: _require(len(losses) == 1, f"final losses differ: {sorted(losses)}"))

    run_s = _median(p.run_s for p in plain)
    detail["passes"] = [{"warmup": i == 0, "traced": traced, "run_s": p.run_s,
                         "cli_wall_s": p.cli_wall_s, "wall_s": p.wall,
                         "samples": p.samples, "final_loss": p.final_loss,
                         "predicts": len(p.latencies)}
                        for i, (p, traced) in enumerate(passes)]
    if trace:
        good = [r for r in layer_runs if r is not None]
        counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m, _ in good]
        tally.op("traced passes make identical calls",
                 lambda: _require(all(c == counts[0] for c in counts), "call counts differ"))
        if good:
            metrics, detail["layers"] = good[0]
        else:
            metrics = {}
    else:
        latencies = [x for p in plain for x in p.latencies]
        if latencies:
            detail["predict"] = {"samples": len(latencies),
                                 "ms_p50": 1000.0 * statistics.median(latencies),
                                 "ms_p95": 1000.0 * percentile(latencies, 95.0)}
        # a failed run still reports (zeros where nothing was measured)
        metrics = {
            "setup_s": import_s + _median(setup_times),
            "run_s": run_s,
            "samples_per_s": _median(p.samples / p.run_s for p in plain if p.run_s),
            "final_loss": plain[0].final_loss,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    detail["setup_times_s"] = setup_times
    detail["import_s"] = import_s
    detail["errors"] = tally.errors
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "detail": detail}
