"""Operator surface: dataset generation, pre-training, fine-tuning,
evaluation, and the ablation/sweep runners.

Each command's config is a `Record` (unknown keys, missing required keys and
wrong-typed values are errors), `--override key=value` patches dot-separated
paths, and every run directory receives the fully resolved config it can be
reproduced from. Exit codes: 0 success, 1 internal numeric failure, 2
usage/config error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .autodiff import DomainError, GradError, ShapeError
from .checkpoints import (
    CheckpointError,
    Record,
    checkpoint_kind,
    read_json,
    require_file,
    write_json,
)
from .datasets import (
    Dataset,
    DatasetError,
    build_default_suite,
    export_ppm,
    make_fewshot_split,
)
from .encoders import (
    DualEncoder,
    EncoderConfig,
    Tokenizer,
    VocabularyError,
    build_pretrain_split,
    contrastive_pretrain,
    load_backbone,
    save_backbone,
)
from .evaluation import base_to_novel_eval, cross_dataset_eval, domain_gen_eval
from .training import (
    NonFiniteLossError,
    TrainConfig,
    check_max_steps,
    check_sgd,
    finetune,
    load_finetune_checkpoint,
    train_ce,
)

THREADS_ENV = "COPROMPT_THREADS"


class ConfigError(ValueError):
    """Bad config file, unknown key, or invalid command usage."""


# ---------------------------------------------------------------------------
# config plumbing


def _parse_override(text):
    if "=" not in text:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(cfg, key, value):
    parts = key.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r} sets a key inside {p!r}, which is not an object")
    node[parts[-1]] = value


def load_config(path, args):
    if path is None:
        cfg = {}
    else:
        require_file(path, ConfigError)
        with open(path) as f:
            try:
                cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object: {path}")
    for ov in args.override or []:
        key, value = _parse_override(ov)
        _apply_override(cfg, key, value)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    return cfg


def _require_dir(path, what):
    if not os.path.isdir(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _require_out(path):
    """An output directory that exists or can be made: a file at `path`, or
    at the nearest of its parents that exists, is refused before any work."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"output path is a file, not a directory: {existing}")
    return path


def _echo_config(out_dir, resolved):
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "resolved_config.json"), resolved)


def _load_dataset(path, encoder):
    """The dataset in directory `path`, refused unless its images are the
    shape `encoder` (an `EncoderConfig`) takes."""
    ds = Dataset.load(_require_dir(path, "dataset"))
    m = ds.manifest
    if (m.image_size, m.channels) != (encoder.image_size, encoder.channels):
        raise ConfigError(f"dataset {path} has image_size {m.image_size} and channels "
                          f"{m.channels}, but the encoder takes image_size "
                          f"{encoder.image_size} and channels {encoder.channels}")
    return ds


# ---------------------------------------------------------------------------
# gen-data


@dataclass
class GenDataConfig(Record):
    what = "gen-data config"
    out: str
    seed: int = 7
    source_counts: list[int] = field(default_factory=lambda: [24, 4, 24])
    target_counts: list[int] = field(default_factory=lambda: [20, 4, 8])
    noise: float = 0.03
    export_ppm: int = 0

    def __post_init__(self):
        for key in ("source_counts", "target_counts"):
            counts = getattr(self, key)
            if len(counts) != 3 or min(counts) < 0 or sum(counts) < 1:
                raise ConfigError(f"{self.what}: {key!r} must be 3 counts (train, val, test), "
                                  f"each >= 0 and not all 0, got {counts}")
        if self.noise < 0:
            raise ConfigError(f"{self.what}: 'noise' must be >= 0, got {self.noise}")


def cmd_gen_data(cfg):
    cfg = GenDataConfig.from_dict(cfg)
    _require_out(cfg.out)
    suite = build_default_suite(
        cfg.out, seed=cfg.seed, source_counts=tuple(cfg.source_counts),
        target_counts=tuple(cfg.target_counts), noise=float(cfg.noise))
    _echo_config(cfg.out, dict(cfg.to_dict(), datasets={
        name: ds.content_hash for name, ds in suite.items()}))
    if cfg.export_ppm > 0:
        for name, ds in suite.items():
            export_ppm(ds, os.path.join(cfg.out, "ppm", name), per_class=cfg.export_ppm)
    print(f"generated {len(suite)} datasets under {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# pretrain


@dataclass
class PretrainConfig(Record):
    what = "pretrain config"
    datasets: list[str]
    out: str
    seed: int = 0
    epochs: int = 14
    lr: float = 0.05
    batch_size: int = 32
    momentum: float = 0.9
    encoder: dict = field(default_factory=dict)  # EncoderConfig keys, echoed as given

    def __post_init__(self):
        # a batch of one has one logit, so its contrastive loss is exactly 0
        for key, least in (("epochs", 1), ("batch_size", 2)):
            if getattr(self, key) < least:
                self.refuse(key, f"must be >= {least}, got {getattr(self, key)}", ConfigError)
        check_sgd(self)


def cmd_pretrain(cfg):
    cfg = PretrainConfig.from_dict(cfg)
    _require_out(cfg.out)
    enc_config = EncoderConfig.from_dict(cfg.encoder, "encoder.")
    datasets = [_load_dataset(p, enc_config) for p in cfg.datasets]
    tokenizer = Tokenizer.from_manifests([d.manifest for d in datasets])
    split = build_pretrain_split(datasets, tokenizer, enc_config.text_len)

    start = time.time()
    enc = DualEncoder(enc_config, tokenizer, seed=cfg.seed)
    enc, history = contrastive_pretrain(
        enc, split, epochs=cfg.epochs, lr=float(cfg.lr), batch_size=cfg.batch_size,
        momentum=float(cfg.momentum), seed=cfg.seed)
    enc.set_frozen(True)
    chash = save_backbone(cfg.out, enc)
    metrics = {
        "steps": len(history["loss"]),
        "final_loss": history["loss"][-1],
        "retrieval_accuracy": history.get("retrieval_accuracy"),
        "chance": history.get("chance"),
        "tau": history["tau"],
        "runtime_seconds": time.time() - start,
    }
    write_json(os.path.join(cfg.out, "pretrain_metrics.json"), metrics)
    with open(os.path.join(cfg.out, "pretrain_loss.csv"), "w") as f:
        f.write("step,loss\n")
        for i, v in enumerate(history["loss"]):
            f.write(f"{i + 1},{v!r}\n")
    _echo_config(cfg.out, dict(cfg.to_dict(),
                               dataset_hashes=[d.content_hash for d in datasets]))
    print(f"backbone {chash[:12]} written to {cfg.out} "
          f"({metrics['runtime_seconds']:.0f}s, retrieval "
          f"{metrics['retrieval_accuracy']})")
    return 0


# ---------------------------------------------------------------------------
# finetune


@dataclass
class FinetuneConfig(Record):
    what = "finetune config"
    backbone: str
    dataset: str
    out: str
    train: TrainConfig = field(default_factory=TrainConfig)
    max_steps: int | None = None


def _finetune_run(cfg):
    """The one fine-tune run behind `finetune` and every ablate or sweep row:
    trains `cfg` (a `FinetuneConfig`) into `cfg.out`; returns the
    `FinetuneResult` and the dataset."""
    _require_out(cfg.out)
    max_steps = check_max_steps(cfg.max_steps)
    backbone = load_backbone(_require_dir(cfg.backbone, "backbone"))
    dataset = _load_dataset(cfg.dataset, backbone.config)
    split = make_fewshot_split(dataset, cfg.train.shots, cfg.train.seed)
    result = finetune(backbone, cfg.train, split, out_dir=cfg.out, max_steps=max_steps)
    _echo_config(cfg.out, cfg.to_dict())
    return result, dataset


def cmd_finetune(raw):
    cfg = FinetuneConfig.from_dict(raw)
    result, _ = _finetune_run(cfg)
    print(f"finetune checkpoint {result.content_hash[:12]} written to {cfg.out} "
          f"(final ce {result.metrics['final_train_ce']:.4f})")
    return 0


# ---------------------------------------------------------------------------
# eval


@dataclass
class EvalConfig(Record):
    what = "eval config"
    checkpoint: str
    protocol: str
    out: str
    backbone: str | None = None
    dataset: str | None = None
    targets: list[str] | None = None
    variants: list[str] | None = None


def _eval_needs(cfg, key):
    """The value of an eval config key that the chosen protocol requires; an
    empty list is refused as a missing key is."""
    value = getattr(cfg, key)
    if value is None or value == []:
        raise ConfigError(f"eval config requires a non-empty {key!r}")
    return value


def _recorded_train_ce(ckpt):
    """The number at `final_train_ce` in a fine-tune checkpoint's
    metrics.json. That file is outside the checkpoint's content hash, so a
    bad one is refused here, naming the file and the key."""
    path = os.path.join(ckpt, "metrics.json")
    try:
        value = read_json(path)["final_train_ce"]
    except (CheckpointError, TypeError, KeyError):  # not JSON, not an object, no key
        value = None
    if type(value) not in (int, float):
        raise CheckpointError(f"{path}: no number at key 'final_train_ce'")
    return value


def cmd_eval(raw):
    cfg = EvalConfig.from_dict(raw)
    protocol, out = cfg.protocol, _require_out(cfg.out)
    if checkpoint_kind(out) is not None:
        raise ConfigError(f"eval out {out} holds a checkpoint or dataset manifest; "
                          "write the eval elsewhere")
    ckpt = _require_dir(cfg.checkpoint, "checkpoint")
    if checkpoint_kind(ckpt) == "backbone":
        model, train_cfg, manifest = load_backbone(ckpt), None, None
    else:
        model, train_cfg, manifest = load_finetune_checkpoint(ckpt, backbone_dir=cfg.backbone)
    encoder = getattr(model, "backbone", model).config

    name = "report.json"
    if protocol == "base_to_novel":
        ds = _load_dataset(_eval_needs(cfg, "dataset"), encoder)
        report = base_to_novel_eval(model, ds)
        line = "base={base_acc:.2f} novel={novel_acc:.2f} hm={hm:.2f}".format(**report)
    elif protocol == "cross_dataset":
        # every path is checked before any scoring; then one dataset is
        # mapped at a time: the source, then each target in turn
        dirs = [_require_dir(_eval_needs(cfg, "dataset"), "dataset")]
        dirs += [_require_dir(p, "target dataset") for p in _eval_needs(cfg, "targets")]
        report = cross_dataset_eval(model, (_load_dataset(p, encoder) for p in dirs))
        line = f"cross-dataset average={report['average']}"
    elif protocol == "domain_gen":
        variant_dirs = [_require_dir(p, "variant dataset") for p in _eval_needs(cfg, "variants")]
        report = domain_gen_eval(model, (_load_dataset(p, encoder) for p in variant_dirs))
        line = f"domain-gen average={report['average']}"
    elif protocol == "train_ce":
        if train_cfg is None:
            raise ConfigError("train_ce protocol requires a finetune checkpoint")
        ds = _load_dataset(_eval_needs(cfg, "dataset"), encoder)
        if ds.content_hash != manifest["dataset_hash"]:
            raise CheckpointError("dataset hash does not match the checkpoint")
        split = make_fewshot_split(ds, train_cfg.shots, train_cfg.seed)
        measured = train_ce(model, split)[0]
        recorded = _recorded_train_ce(ckpt)
        name, report = "train_ce.json", {"recomputed_ce": measured, "recorded_ce": recorded,
                                         "difference": abs(measured - recorded)}
        line = f"recomputed ce={measured!r} recorded={recorded!r}"
    else:
        raise ConfigError(f"unknown eval protocol {protocol!r}")
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, name), report)
    print(line)
    _echo_config(out, raw)
    return 0


# ---------------------------------------------------------------------------
# ablate / sweep


# Component toggle rows in the reference layout: (consistency, perturbation,
# adapters). The two (cons off, pert on) combinations collapse onto the rows
# with perturbation off because perturbation is inert without the
# consistency branch; they are listed as aliases rather than re-run.
COMPONENT_ROWS = [
    ("full", (True, True, True)),
    ("no_adapter", (True, True, False)),
    ("no_perturb", (True, False, True)),
    ("consistency_only", (True, False, False)),
    ("adapter_no_consistency", (False, False, True)),
    ("baseline", (False, False, False)),
]
COMPONENT_ALIASES = {
    "(cons=off, pert=on, adp=on)": "adapter_no_consistency",
    "(cons=off, pert=on, adp=off)": "baseline",
}


def _rows(path, values):
    """One row per value of a single dotted train-config path."""
    return [(str(v), {path: v}) for v in values]


# Every ablation axis is a list of rows: (label, {dotted train-config path:
# value}), applied over the base train config like `--override`.
ABLATION_AXES = {
    "components": [(label, {"consistency.enabled": cons,
                            "consistency.perturb_text": pert,
                            "consistency.perturb_image": "simple" if pert else "none",
                            "adapter_modality": "both" if adp else "none"})
                   for label, (cons, pert, adp) in COMPONENT_ROWS],
    "criterion": _rows("consistency.criterion", ["cosine", "l1", "mse"]),
    "modality": _rows("consistency.modality", ["image_only", "text_only", "both"]),
    "augmentation": [(label, {"consistency.perturb_image": mode}) for label, mode in
                     [("same", "none"), ("simple", "simple"), ("hard", "hard")]],
    "adapter_layers": _rows("adapter_layers", [1, 2, 3]),
    "adapter_modality": _rows("adapter_modality", ["text", "image", "both"]),
    "lambda": _rows("lambda", [0.1, 1.0, 2.0, 8.0]),
    "prompt_depth": None,   # one row per encoder layer of the backbone
    "epochs": _rows("epochs", [3, 5, 8, 10]),
}

ABLATE_DEFAULT_AXES = ["components", "criterion", "augmentation",
                       "adapter_layers", "lambda"]


def _run_job(job):
    """One (axis, row label, `FinetuneConfig`) job: the fine-tune run, then
    its base-to-novel evaluation; runs in a worker process."""
    axis, row, cfg = job
    result, dataset = _finetune_run(cfg)
    report = base_to_novel_eval(result.model, dataset)
    return {
        "axis": axis, "row": row, "seed": cfg.train.seed,
        "base": report["base_acc"], "novel": report["novel_acc"], "hm": report["hm"],
        "checkpoint_hash": result.content_hash,
        "text_deviation": result.metrics["text_deviation"],
        "image_deviation": result.metrics["image_deviation"],
        "final_cc": result.metrics["final_train_cc"],
    }


def _run_jobs(jobs):
    raw = os.environ.get(THREADS_ENV, "1")
    workers = int(raw) if raw.strip().isdecimal() else 0
    if workers < 1:
        raise ConfigError(f"{THREADS_ENV} must be an integer >= 1, got {raw!r}")
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [_run_job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))


def _write_axis_summary(out, axis, labels, results):
    """`ablation_<axis>_summary.csv`: each row's median base, novel and HM over its seeds."""
    with open(os.path.join(out, f"ablation_{axis}_summary.csv"), "w") as f:
        f.write(f"{axis},median_base,median_novel,median_hm\n")
        for label in labels:
            matching = [r for r in results if r["axis"] == axis and r["row"] == label]
            if matching:
                medians = [statistics.median(r[key] for r in matching)
                           for key in ("base", "novel", "hm")]
                f.write(",".join(map(str, [label, *medians])) + "\n")


def _run_axes(bb_dir, ds_dir, out, base_train, seeds, axes):
    """Fine-tune and evaluate every (row, seed) of every axis, then write a
    median table per axis; returns the per-run results.

    `axes` holds (axis, rows, rows_dir) triples. A row is (label, {dotted
    train-config path: value}); it runs under `rows_dir/<label>_seed<seed>`,
    and two runs bound for one directory are refused before any run starts.
    """
    jobs, row_dirs = [], set()
    for axis, rows, rows_dir in axes:
        for label, paths in rows:
            train = json.loads(json.dumps(base_train))  # deep copy
            for path, value in paths.items():
                _apply_override(train, path, value)
            if "seed" in train:
                raise ConfigError('train.seed is set per run by "seeds"; list the seeds '
                                  'there, not in "train" or as a sweep axis')
            for seed in seeds:
                row_dir = os.path.join(rows_dir, f"{label}_seed{seed}")
                if row_dir in row_dirs:
                    raise ConfigError(f"two runs would write {row_dir}; list each value, "
                                      "seed and axis once")
                row_dirs.add(row_dir)
                jobs.append((axis, label, FinetuneConfig.from_dict({
                    "backbone": bb_dir, "dataset": ds_dir, "train": dict(train, seed=seed),
                    "out": row_dir})))
    results = _run_jobs(jobs)
    os.makedirs(out, exist_ok=True)
    for axis, rows, _ in axes:
        _write_axis_summary(out, axis, [label for label, _ in rows], results)
    return results


def _refuse_empty(cfg, *keys):
    """Refuse an empty list at any of `keys`: a study of no runs."""
    for key in keys:
        if not getattr(cfg, key):
            cfg.refuse(key, "must not be empty", ConfigError)


@dataclass
class AblateConfig(Record):
    what = "ablate config"
    backbone: str
    dataset: str
    out: str
    seeds: list[int] = field(default_factory=lambda: [0])
    axes: list[str] = field(default_factory=lambda: list(ABLATE_DEFAULT_AXES))
    # a plain dict: each row patches it by dotted path before it is read as
    # a TrainConfig, and a seed set in it is refused
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        _refuse_empty(self, "seeds", "axes")


def cmd_ablate(cfg):
    cfg = AblateConfig.from_dict(cfg)
    _require_out(cfg.out)
    bb_dir = _require_dir(cfg.backbone, "backbone")
    ds_dir = _require_dir(cfg.dataset, "dataset")
    TrainConfig.from_dict(cfg.train, "train.")  # validate early

    layers = load_backbone(bb_dir).config.layers
    for axis in cfg.axes:
        if axis not in ABLATION_AXES:
            raise ConfigError(f"unknown ablation axis {axis!r}")
    results = _run_axes(bb_dir, ds_dir, cfg.out, cfg.train, cfg.seeds, [
        (axis, ABLATION_AXES[axis] or _rows("prompt_depth", range(1, layers + 1)),
         os.path.join(cfg.out, "rows", axis)) for axis in cfg.axes])
    write_json(os.path.join(cfg.out, "results.json"),
               {"results": results, "component_aliases": COMPONENT_ALIASES})
    _echo_config(cfg.out, cfg.to_dict())
    print(f"ablation complete: {len(results)} runs across {len(cfg.axes)} axes -> {cfg.out}")
    return 0


@dataclass
class SweepConfig(Record):
    what = "sweep config"
    backbone: str
    dataset: str
    out: str
    axis: str
    values: list
    seeds: list[int] = field(default_factory=lambda: [0])
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        _refuse_empty(self, "seeds", "values")


def cmd_sweep(cfg):
    cfg = SweepConfig.from_dict(cfg)
    _require_out(cfg.out)
    bb_dir = _require_dir(cfg.backbone, "backbone")
    ds_dir = _require_dir(cfg.dataset, "dataset")
    results = _run_axes(bb_dir, ds_dir, cfg.out, cfg.train, cfg.seeds,
                        [(cfg.axis, _rows(cfg.axis, cfg.values), os.path.join(cfg.out, "rows"))])
    write_json(os.path.join(cfg.out, "results.json"), {"results": results})
    _echo_config(cfg.out, cfg.to_dict())
    print(f"sweep complete: {len(results)} runs -> {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coprompt",
        description="consistency-guided prompt/adapter tuning on synthetic benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "pretrain", "finetune", "eval", "ablate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        if name in ("gen-data", "pretrain"):  # the only configs with a top-level seed
            p.add_argument("--seed", type=int, default=None, help="override top-level seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="patch a config path (repeatable)")
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "sweep": cmd_sweep,
}

_USAGE_ERRORS = (ConfigError, DatasetError, CheckpointError, VocabularyError,
                 FileNotFoundError)
_NUMERIC_ERRORS = (NonFiniteLossError, GradError, DomainError, ShapeError,
                   FloatingPointError)


def _pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds at 32 and 64 MB, where its own
    dynamic thresholds settle once a 32 MB block has been freed.

    A pretrain step frees its whole graph before the next step's forward.
    With the thresholds still low, as in a fresh process, glibc returns that
    memory to the system and faults it back in every step (at the default
    config, 3-4k minor faults and about 10 ms of kernel time per step).
    Pinned, the freed memory is reused. A C library other than glibc is
    left alone."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None):
    _pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        return COMMANDS[args.command](cfg)
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
