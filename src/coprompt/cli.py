"""Operator surface: dataset generation, pre-training, fine-tuning,
evaluation, and the ablation/sweep runners.

Configs are strict JSON (unknown keys are errors), `--override key=value`
patches dot-separated paths, and every run directory receives the fully
resolved config it can be reproduced from. Exit codes: 0 success, 1
internal numeric failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .autodiff import DomainError, GradError, ShapeError
from .checkpoints import CheckpointError, read_json, write_json
from .consistency import DescriptionStore
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
    backbone_hash,
    build_pretrain_split,
    contrastive_pretrain,
    load_backbone,
    save_backbone,
)
from .evaluation import (
    base_to_novel_eval,
    cross_dataset_eval,
    domain_gen_eval,
    write_eval_outputs,
)
from .training import (
    NonFiniteLossError,
    TrainConfig,
    check_max_steps,
    finetune,
    load_finetune_checkpoint,
    measure_train_state,
    read_history_csv,
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
        if p not in node or not isinstance(node[p], dict):
            node[p] = {}
        node = node[p]
    node[parts[-1]] = value


def load_config(path, args):
    if path is None:
        cfg = {}
    else:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as f:
            try:
                cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e}") from None
    for ov in args.override or []:
        key, value = _parse_override(ov)
        _apply_override(cfg, key, value)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    return cfg


def _check_keys(cfg, allowed, where):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {sorted(unknown)}")


def _require(cfg, key, where):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"{where} config requires {key!r}")
    return cfg[key]


def _require_dir(path, what):
    if not os.path.isdir(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _echo_config(out_dir, resolved):
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "resolved_config.json"), resolved)


def _worker_count(n_jobs):
    return max(1, min(int(os.environ.get(THREADS_ENV, "1")), n_jobs))


# ---------------------------------------------------------------------------
# gen-data


GEN_DEFAULTS = {
    "seed": 7,
    "source_counts": [24, 4, 24],
    "target_counts": [20, 4, 8],
    "noise": 0.03,
    "export_ppm": 0,
}


def cmd_gen_data(cfg):
    _check_keys(cfg, {"out", *GEN_DEFAULTS}, "gen-data")
    out = _require(cfg, "out", "gen-data")
    merged = dict(GEN_DEFAULTS, **cfg)
    suite = build_default_suite(
        out, seed=int(merged["seed"]),
        source_counts=tuple(merged["source_counts"]),
        target_counts=tuple(merged["target_counts"]),
        noise=float(merged["noise"]))
    resolved = dict(merged, out=out,
                    datasets={name: ds.content_hash for name, ds in suite.items()})
    _echo_config(out, resolved)
    if int(merged["export_ppm"]) > 0:
        for name, ds in suite.items():
            export_ppm(ds, os.path.join(out, "ppm", name),
                       per_class=int(merged["export_ppm"]))
    print(f"generated {len(suite)} datasets under {out}")
    return 0


# ---------------------------------------------------------------------------
# pretrain


PRETRAIN_DEFAULTS = {
    "seed": 0,
    "epochs": 14,
    "lr": 0.05,
    "batch_size": 32,
    "momentum": 0.9,
    "encoder": {},
}


def cmd_pretrain(cfg):
    _check_keys(cfg, {"datasets", "out", *PRETRAIN_DEFAULTS}, "pretrain")
    paths = _require(cfg, "datasets", "pretrain")
    out = _require(cfg, "out", "pretrain")
    merged = dict(PRETRAIN_DEFAULTS, **cfg)
    datasets = [Dataset.load(_require_dir(p, "dataset")) for p in paths]
    tokenizer = Tokenizer.from_manifests([d.manifest for d in datasets])
    enc_config = EncoderConfig.from_dict(merged["encoder"])
    try:
        split = build_pretrain_split(datasets, tokenizer)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    start = time.time()
    enc = DualEncoder(enc_config, tokenizer, seed=int(merged["seed"]))
    enc, history = contrastive_pretrain(
        enc, split, epochs=int(merged["epochs"]), lr=float(merged["lr"]),
        batch_size=int(merged["batch_size"]), momentum=float(merged["momentum"]),
        seed=int(merged["seed"]))
    enc.set_frozen(True)
    chash = save_backbone(out, enc)
    metrics = {
        "steps": len(history["loss"]),
        "final_loss": history["loss"][-1],
        "retrieval_accuracy": history.get("retrieval_accuracy"),
        "chance": history.get("chance"),
        "tau": history["tau"],
        "runtime_seconds": time.time() - start,
        "content_hash": chash,
    }
    write_json(os.path.join(out, "pretrain_metrics.json"), metrics)
    with open(os.path.join(out, "pretrain_loss.csv"), "w") as f:
        f.write("step,loss\n")
        for i, v in enumerate(history["loss"]):
            f.write(f"{i + 1},{v!r}\n")
    resolved = dict(merged, datasets=list(paths), out=out,
                    dataset_hashes=[d.content_hash for d in datasets])
    _echo_config(out, resolved)
    print(f"backbone {chash[:12]} written to {out} "
          f"({metrics['runtime_seconds']:.0f}s, retrieval "
          f"{metrics['retrieval_accuracy']})")
    return 0


# ---------------------------------------------------------------------------
# finetune


def cmd_finetune(cfg):
    _check_keys(cfg, {"backbone", "dataset", "out", "train", "max_steps"}, "finetune")
    bb_dir = _require_dir(_require(cfg, "backbone", "finetune"), "backbone")
    ds_dir = _require_dir(_require(cfg, "dataset", "finetune"), "dataset")
    out = _require(cfg, "out", "finetune")
    try:
        train_cfg = TrainConfig.from_dict(cfg.get("train", {}))
        max_steps = check_max_steps(cfg.get("max_steps"))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    backbone = load_backbone(bb_dir)
    dataset = Dataset.load(ds_dir)
    split = make_fewshot_split(dataset, train_cfg.shots, train_cfg.seed)
    result = finetune(backbone, train_cfg, split, out_dir=out,
                      max_steps=max_steps, backbone_ref=bb_dir)
    resolved = {"backbone": bb_dir, "dataset": ds_dir, "out": out,
                "train": train_cfg.to_dict(), "max_steps": max_steps,
                "backbone_hash": backbone_hash(bb_dir),
                "dataset_hash": dataset.content_hash}
    _echo_config(out, resolved)
    print(f"finetune checkpoint {result.content_hash[:12]} written to {out} "
          f"(final ce {result.metrics['final_train_ce']:.4f})")
    return 0


# ---------------------------------------------------------------------------
# eval


def _load_model(checkpoint_dir, backbone_dir=None):
    """Accepts a backbone dir or a finetune checkpoint dir."""
    if os.path.exists(os.path.join(checkpoint_dir, "manifest.json")):
        return load_backbone(checkpoint_dir), None, None
    model, train_cfg, manifest = load_finetune_checkpoint(
        checkpoint_dir, backbone_dir=backbone_dir)
    return model, train_cfg, manifest


def cmd_eval(cfg):
    allowed = {"checkpoint", "backbone", "protocol", "dataset", "targets",
               "variants", "out"}
    _check_keys(cfg, allowed, "eval")
    ckpt = _require_dir(_require(cfg, "checkpoint", "eval"), "checkpoint")
    protocol = _require(cfg, "protocol", "eval")
    out = _require(cfg, "out", "eval")
    model, train_cfg, manifest = _load_model(ckpt, cfg.get("backbone"))

    resolved = dict(cfg)
    if protocol == "base_to_novel":
        ds = Dataset.load(_require_dir(_require(cfg, "dataset", "eval"), "dataset"))
        report = base_to_novel_eval(model, ds, fingerprint=ckpt)
        write_eval_outputs(out, "base_to_novel",
                           [[report.base_acc, report.novel_acc, report.hm]],
                           ["base", "novel", "hm"])
        write_json(os.path.join(out, "report.json"), report.to_dict())
        print(f"base={report.base_acc:.2f} novel={report.novel_acc:.2f} hm={report.hm:.2f}")
    elif protocol == "cross_dataset":
        ds = Dataset.load(_require_dir(_require(cfg, "dataset", "eval"), "dataset"))
        targets = [Dataset.load(_require_dir(p, "target dataset"))
                   for p in _require(cfg, "targets", "eval")]
        source_ids = [c.id for c in ds.manifest.classes]
        from .evaluation import _pool_accuracy
        source_acc, _ = _pool_accuracy(model, ds, source_ids)
        table = cross_dataset_eval(model, ds.manifest.name, targets)
        header = ["source"] + [name for name, _ in table["rows"]] + ["average"]
        row = [source_acc] + [acc for _, acc in table["rows"]] + [table.get("average", "")]
        write_eval_outputs(out, "cross_dataset", [row], header)
        write_json(os.path.join(out, "report.json"),
                   {"source": {"name": ds.manifest.name, "accuracy": source_acc},
                    "rows": table["rows"], "average": table.get("average")})
        print(f"cross-dataset average={table.get('average')}")
    elif protocol == "domain_gen":
        variants = [Dataset.load(_require_dir(p, "variant dataset"))
                    for p in _require(cfg, "variants", "eval")]
        table = domain_gen_eval(model, variants)
        header = [name for name, _ in table["rows"]] + ["average"]
        row = [acc for _, acc in table["rows"]] + [table.get("average", "")]
        write_eval_outputs(out, "domain_gen", [row], header)
        write_json(os.path.join(out, "report.json"), table)
        print(f"domain-gen average={table.get('average')}")
    elif protocol == "train_ce":
        if train_cfg is None:
            raise ConfigError("train_ce protocol requires a finetune checkpoint")
        ds = Dataset.load(_require_dir(_require(cfg, "dataset", "eval"), "dataset"))
        if ds.content_hash != manifest["dataset_hash"]:
            raise CheckpointError("dataset hash does not match the checkpoint")
        split = make_fewshot_split(ds, train_cfg.shots, train_cfg.seed)
        store = DescriptionStore.from_manifest(ds.manifest, model.tokenizer,
                                               model.backbone.config.text_len)
        measured = measure_train_state(model, split, store, train_cfg.consistency)
        recorded = [r for r in read_history_csv(os.path.join(ckpt, "history.csv"))
                    if r["kind"] == "final"][-1]
        os.makedirs(out, exist_ok=True)
        write_json(os.path.join(out, "train_ce.json"),
                   {"recomputed_ce": measured["final_train_ce"],
                    "recorded_ce": recorded["ce"],
                    "difference": abs(measured["final_train_ce"] - recorded["ce"])})
        print(f"recomputed ce={measured['final_train_ce']!r} recorded={recorded['ce']!r}")
    else:
        raise ConfigError(f"unknown eval protocol {protocol!r}")
    _echo_config(out, resolved)
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


def _run_job(payload):
    """One (row, seed) fine-tune + evaluation; runs in a worker process."""
    backbone = load_backbone(payload["backbone"])
    dataset = Dataset.load(payload["dataset"])
    train = dict(payload["train"])
    train["seed"] = payload["seed"]
    cfg = TrainConfig.from_dict(train)
    split = make_fewshot_split(dataset, cfg.shots, cfg.seed)
    result = finetune(backbone, cfg, split, out_dir=payload["out"],
                      backbone_ref=payload["backbone"])
    report = base_to_novel_eval(result.model, dataset, fingerprint=payload["out"])
    _echo_config(payload["out"], {
        "backbone": payload["backbone"], "dataset": payload["dataset"],
        "train": cfg.to_dict(), "dataset_hash": dataset.content_hash,
        "axis": payload["axis"], "row": payload["row"], "seed": payload["seed"],
    })
    return {
        "axis": payload["axis"], "row": payload["row"], "seed": payload["seed"],
        "base": report.base_acc, "novel": report.novel_acc, "hm": report.hm,
        "checkpoint_hash": result.content_hash,
        "text_deviation": result.metrics["text_deviation"],
        "image_deviation": result.metrics["image_deviation"],
        "final_cc": result.metrics["final_train_cc"],
    }


def _run_jobs(jobs):
    workers = _worker_count(len(jobs))
    if workers <= 1:
        return [_run_job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))


def _emit_axis_tables(out, axis, labels, results):
    rows = [r for r in results if r["axis"] == axis]
    per_seed = [[r["row"], r["seed"], r["base"], r["novel"], r["hm"]] for r in rows]
    write_eval_outputs(out, f"ablation_{axis}", per_seed,
                       ["row", "seed", "base", "novel", "hm"])
    summary = []
    for label in labels:
        matching = [r for r in rows if r["row"] == label]
        if not matching:
            continue
        summary.append([
            label,
            statistics.median(r["base"] for r in matching),
            statistics.median(r["novel"] for r in matching),
            statistics.median(r["hm"] for r in matching),
        ])
    write_eval_outputs(out, f"ablation_{axis}_summary", summary,
                       [axis, "median_base", "median_novel", "median_hm"])


def _run_axes(bb_dir, ds_dir, out, base_train, seeds, axes):
    """Fine-tune and evaluate every (row, seed) of every axis, then write a
    per-seed and a median table per axis; returns the per-run results.

    `axes` holds (axis, rows, rows_dir) triples. A row is (label, {dotted
    train-config path: value}); it runs under `rows_dir/<label>_seed<seed>`.
    """
    jobs = []
    for axis, rows, rows_dir in axes:
        for label, paths in rows:
            train = json.loads(json.dumps(base_train))  # deep copy
            for path, value in paths.items():
                _apply_override(train, path, value)
            TrainConfig.from_dict(train)
            for seed in seeds:
                jobs.append({
                    "backbone": bb_dir, "dataset": ds_dir, "train": train,
                    "seed": seed, "axis": axis, "row": label,
                    "out": os.path.join(rows_dir, f"{label}_seed{seed}"),
                })
    results = _run_jobs(jobs)
    os.makedirs(out, exist_ok=True)
    for axis, rows, _ in axes:
        _emit_axis_tables(out, axis, [label for label, _ in rows], results)
    return results


def cmd_ablate(cfg):
    allowed = {"backbone", "dataset", "out", "seeds", "axes", "train"}
    _check_keys(cfg, allowed, "ablate")
    bb_dir = _require_dir(_require(cfg, "backbone", "ablate"), "backbone")
    ds_dir = _require_dir(_require(cfg, "dataset", "ablate"), "dataset")
    out = _require(cfg, "out", "ablate")
    seeds = cfg.get("seeds", [0])
    axes = cfg.get("axes", ABLATE_DEFAULT_AXES)
    base_train = cfg.get("train", {})
    TrainConfig.from_dict(base_train)  # validate early

    layers = EncoderConfig.from_dict(
        read_json(os.path.join(bb_dir, "manifest.json"))["config"]).layers
    for axis in axes:
        if axis not in ABLATION_AXES:
            raise ConfigError(f"unknown ablation axis {axis!r}")
    results = _run_axes(bb_dir, ds_dir, out, base_train, seeds, [
        (axis, ABLATION_AXES[axis] or _rows("prompt_depth", range(1, layers + 1)),
         os.path.join(out, "rows", axis)) for axis in axes])
    write_json(os.path.join(out, "results.json"),
               {"results": results, "component_aliases": COMPONENT_ALIASES})
    _echo_config(out, {"backbone": bb_dir, "dataset": ds_dir, "out": out,
                       "seeds": seeds, "axes": axes, "train": base_train,
                       "backbone_hash": backbone_hash(bb_dir)})
    print(f"ablation complete: {len(results)} runs across {len(axes)} axes -> {out}")
    return 0


def cmd_sweep(cfg):
    allowed = {"backbone", "dataset", "out", "seeds", "axis", "values", "train"}
    _check_keys(cfg, allowed, "sweep")
    bb_dir = _require_dir(_require(cfg, "backbone", "sweep"), "backbone")
    ds_dir = _require_dir(_require(cfg, "dataset", "sweep"), "dataset")
    out = _require(cfg, "out", "sweep")
    axis = _require(cfg, "axis", "sweep")
    values = _require(cfg, "values", "sweep")
    seeds = cfg.get("seeds", [0])
    base_train = cfg.get("train", {})

    results = _run_axes(bb_dir, ds_dir, out, base_train, seeds,
                        [(axis, _rows(axis, values), os.path.join(out, "rows"))])
    write_json(os.path.join(out, "results.json"), {"results": results})
    _echo_config(out, {"backbone": bb_dir, "dataset": ds_dir, "out": out,
                       "seeds": seeds, "axis": axis, "values": values,
                       "train": base_train})
    print(f"sweep complete: {len(results)} runs -> {out}")
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


def main(argv=None):
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
