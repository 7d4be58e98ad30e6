"""Supervised + consistency objective and the fine-tuning loop.

The backbone stays frozen and doubles as the consistency teacher. Per step:
sample a batch, perturb inputs, compute frozen embeddings without a graph
and tuned (prompted + adapted) embeddings with one, apply
``ce + lambda * cc``, and step SGD over the tuning parameters only. Every
encoder call takes the whole batch at once. Class text embeddings for the
supervised term are recomputed every step; the frozen text teacher only
ever sees the fixed base-class sentences, so it is encoded once, at set-up.

Training state (parameters, momentum, rng streams, epoch permutation) is
serializable at full precision, so a restored run continues bit-for-bit.
Final checkpoints narrow to float32; the end-of-run metrics row is computed
from the narrowed weights so re-deriving it from the checkpoint matches.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import SGD
from .checkpoints import (
    CheckpointError,
    canonical_json,
    read_checkpoint,
    write_checkpoint,
    write_json,
)
from .consistency import (
    Augmenter,
    ConsistencyConfig,
    DescriptionStore,
    consistency_loss,
    perturb_image,
    perturb_text,
)
from .datasets import FewShotSplit
from .encoders import DualEncoder, backbone_hash, load_backbone
from .tuning import PromptSet, apply_adapter, make_adapters, trainable_parameters


class NonFiniteLossError(RuntimeError):
    """Training aborted on a NaN/Inf loss; carries the offending step."""

    def __init__(self, step, ce, cc):
        self.step = step
        super().__init__(f"non-finite loss at step {step}: ce={ce}, cc={cc}")


@dataclass
class TrainConfig:
    lambda_: float = 8.0
    lr: float = 0.035
    momentum: float = 0.9
    batch_size: int = 4
    epochs: int = 8
    shots: int = 16
    seed: int = 0
    consistency: ConsistencyConfig = field(default_factory=ConsistencyConfig)
    prompt_m: int = 2
    prompt_depth: int | None = None
    adapter_modality: str = "both"
    adapter_layers: int = 2
    detach_consistency: bool = False

    def __post_init__(self):
        if self.lambda_ < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lambda_}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")

    def to_dict(self):
        d = {
            "lambda": self.lambda_,
            "lr": self.lr,
            "momentum": self.momentum,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "shots": self.shots,
            "seed": self.seed,
            "consistency": self.consistency.to_dict(),
            "prompt_m": self.prompt_m,
            "prompt_depth": self.prompt_depth,
            "adapter_modality": self.adapter_modality,
            "adapter_layers": self.adapter_layers,
            "detach_consistency": self.detach_consistency,
        }
        return d

    @staticmethod
    def from_dict(d):
        d = dict(d)
        allowed = {
            "lambda", "lr", "momentum", "batch_size", "epochs", "shots", "seed",
            "consistency", "prompt_m", "prompt_depth", "adapter_modality",
            "adapter_layers", "detach_consistency",
        }
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        if "lambda" in d:
            d["lambda_"] = d.pop("lambda")
        if "consistency" in d and not isinstance(d["consistency"], ConsistencyConfig):
            d["consistency"] = ConsistencyConfig.from_dict(d["consistency"])
        return TrainConfig(**d)


# ---------------------------------------------------------------------------
# losses


def supervised_loss(image_emb, class_embs, label, tau):
    """-log softmax at the label over similarity logits scaled by 1/tau.

    Embeddings are expected unit-norm, so the dot products are cosine
    similarities. Accepts a single (E,) embedding with an int label or a
    batched (B, E) with (B,) labels (batch mean).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    single = image_emb.ndim == 1
    if single:
        image_emb = ad.reshape(image_emb, (1, image_emb.shape[0]))
        label = np.asarray([int(label)])
    logits = ad.matmul(image_emb, ad.transpose(class_embs, (1, 0))) * (1.0 / tau)
    return ad.cross_entropy_from_logits(logits, label)


def total_loss(ce, cc, lam):
    """Final objective ce + lam * cc; cc may be None (supervised only)."""
    if not np.all(np.isfinite(ce.data)):
        raise ValueError("total_loss: non-finite supervised loss")
    if cc is None:
        return ce
    if not np.all(np.isfinite(cc.data)):
        raise ValueError("total_loss: non-finite consistency loss")
    return ce + lam * cc


# ---------------------------------------------------------------------------
# tuned model wrapper (shared by the trainer and every evaluation path)


class TunedModel:
    """Frozen backbone plus prompt/adapter parameters: the deployable model."""

    def __init__(self, backbone: DualEncoder, prompt_set: PromptSet, adapters):
        self.backbone = backbone
        self.prompt_set = prompt_set
        self.adapters = adapters
        self.params = trainable_parameters(prompt_set, adapters)

    @property
    def tau(self):
        return self.backbone.tau

    @property
    def tokenizer(self):
        return self.backbone.tokenizer

    def text_embedding(self, tokens):
        """One token sequence -> (E,), or a batch of them -> (B, E); see
        `DualEncoder.encode_text`."""
        e = self.backbone.encode_text(tokens, prompts=self.prompt_set.text_schedule())
        return apply_adapter(self.adapters.get("text"), e)

    def image_embedding(self, images):
        """One (H, W, C) image -> (E,), or a (B, H, W, C) batch -> (B, E)."""
        _, vision_sched = self.prompt_set.schedules()
        e = self.backbone.encode_image(images, prompts=vision_sched)
        return apply_adapter(self.adapters.get("image"), e)

    def class_matrix(self, token_lists):
        """(C, E) tuned text embeddings of a batch of class sentences."""
        return self.text_embedding(token_lists)


# ---------------------------------------------------------------------------
# trainer


def check_max_steps(max_steps):
    """Return `max_steps` if it is None or a non-negative int, else raise ValueError."""
    if max_steps is None:
        return None
    if (not isinstance(max_steps, (int, np.integer)) or isinstance(max_steps, bool)
            or max_steps < 0):
        raise ValueError(f"max_steps must be a non-negative integer, got {max_steps!r}")
    return int(max_steps)


def _seed_streams(seed):
    init_ss, batch_ss, perturb_ss = np.random.SeedSequence([seed, 31415]).spawn(3)
    return (np.random.default_rng(init_ss), np.random.default_rng(batch_ss),
            np.random.default_rng(perturb_ss))


def tuned_model(backbone: DualEncoder, cfg: TrainConfig) -> TunedModel:
    """Fresh prompts and adapters shaped by `cfg`, drawn from the seed's init
    stream: the trainer's starting point and the layout a checkpoint loads into."""
    init_rng, _, _ = _seed_streams(cfg.seed)
    layers = backbone.config.layers
    depth = layers if cfg.prompt_depth is None else cfg.prompt_depth
    prompt_set = PromptSet(backbone.config.width, layers, m=cfg.prompt_m, depth=depth,
                           rng=init_rng)
    adapters = make_adapters(backbone.config.embed_dim, cfg.adapter_modality,
                             cfg.adapter_layers, rng=init_rng)
    return TunedModel(backbone, prompt_set, adapters)


class Trainer:
    """One fine-tuning run; strictly sequential and fully deterministic."""

    def __init__(self, backbone: DualEncoder, cfg: TrainConfig, data: FewShotSplit):
        if not backbone.frozen:
            raise ValueError("finetune requires a frozen backbone")
        if not data.items:
            raise ValueError("finetune: empty few-shot split")
        self.backbone = backbone
        self.backbone_fingerprint = backbone.weight_fingerprint()
        self.cfg = cfg
        self.data = data
        self.store = DescriptionStore.from_manifest(
            data.dataset.manifest, backbone.tokenizer, backbone.config.text_len)

        _, self.batch_rng, self.perturb_rng = _seed_streams(cfg.seed)
        self.model = tuned_model(backbone, cfg)
        self.adapters = self.model.adapters
        self.params = self.model.params
        self.opt = SGD([t for _, t in self.params], lr=cfg.lr, momentum=cfg.momentum)
        self.augmenter = Augmenter(cfg.consistency.perturb_image)

        names = data.base_class_names
        self.class_tokens = [tuple(self.store.template_tokens(n)) for n in names]
        # frozen teacher row of every sentence the text branch is fed: the
        # plain templates and every base-class description
        sentences = list(dict.fromkeys(self.class_tokens + [
            tuple(t) for n in names for t in self.store.description_tokens(n)]))
        with ad.no_grad():
            rows = backbone.encode_text(sentences).data
        self.frozen_text = dict(zip(sentences, rows))
        self.history = []
        self.step = 0
        self.perm = None
        self.pos = 0

        n = len(data.items)
        self.steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
        self.total_steps = cfg.epochs * self.steps_per_epoch

    # -- single step ----------------------------------------------------------

    def _next_batch(self):
        n = len(self.data.items)
        if self.perm is None or self.pos >= n:
            self.perm = self.batch_rng.permutation(n)
            self.pos = 0
        idx = self.perm[self.pos:self.pos + self.cfg.batch_size]
        self.pos += self.cfg.batch_size
        return [self.data.items[int(i)] for i in idx]

    def train_step(self):
        cfg = self.cfg
        cons = cfg.consistency
        batch = self._next_batch()
        labels = np.asarray([item.label for item in batch])

        class_embs = self.model.class_matrix(self.class_tokens)

        views_frozen, views_tuned = [], []
        for item in batch:
            if cons.enabled and cons.perturb_image != "none":
                va, vb = perturb_image(self.augmenter, item.pixels, self.perturb_rng)
            else:
                va = vb = item.pixels
            views_frozen.append(va)
            views_tuned.append(vb)

        img_batch = self.model.image_embedding(np.stack(views_tuned))

        ce = supervised_loss(img_batch, class_embs, labels, self.backbone.tau)
        ce_val = ce.item()
        # every tuned input of the consistency term also feeds ce, so a
        # finite ce means finite inputs there
        if not np.isfinite(ce_val):
            raise NonFiniteLossError(self.step, ce_val, float("nan"))

        cc = None
        if cons.enabled:
            frozen_text = np.stack([
                self.frozen_text[tuple(perturb_text(self.store,
                                                    self.data.base_class_names[item.label],
                                                    self.perturb_rng,
                                                    descriptive=cons.perturb_text))]
                for item in batch])
            with ad.no_grad():
                frozen_img = self.backbone.encode_image(np.stack(views_frozen)).data
            tuned_text = ad.slice_(class_embs, labels)
            cc = consistency_loss(cons, frozen_text, tuned_text, frozen_img, img_batch)

        coupled = cc is not None and not cfg.detach_consistency
        cc_val = cc.item() if cc is not None else 0.0
        total_val = ce_val + cfg.lambda_ * cc_val if coupled else ce_val
        if not np.isfinite(total_val):
            raise NonFiniteLossError(self.step, ce_val, cc_val)
        total = total_loss(ce, cc, cfg.lambda_) if coupled else ce

        ad.backward(total)
        self.opt.step()
        self.step += 1
        self.history.append({"step": self.step, "kind": "step",
                             "ce": ce_val, "cc": cc_val, "total": total_val})

    def run(self, max_steps=None):
        """Train until the run has taken `max_steps` steps in total.

        `max_steps=None` runs the epoch budget, ``epochs * steps_per_epoch``.
        An explicit count is honoured even past that budget: batching keeps
        drawing a fresh permutation each time an epoch is exhausted, so a
        restored run still continues bit-for-bit. The count is absolute, not
        relative to a restored step; a run already at or past it does nothing.
        """
        max_steps = check_max_steps(max_steps)
        limit = self.total_steps if max_steps is None else max_steps
        while self.step < limit:
            self.train_step()

    # -- post-training measurements --------------------------------------------

    def narrow_to_f32(self):
        """Round every tuning parameter through float32, matching a checkpoint."""
        for _, t in self.params:
            t.data = t.data.astype("<f4").astype(np.float64)

    def final_metrics(self):
        """Deterministic post-training measurements on unperturbed inputs."""
        m = measure_train_state(self.model, self.data, self.store, self.cfg.consistency)
        m["final_train_total"] = m["final_train_ce"] + self.cfg.lambda_ * m["final_train_cc"]
        m["tau"] = self.backbone.tau
        return m

    # -- full-precision state (mid-run resume) ---------------------------------

    def save_state(self, directory):
        tensors = [("param." + name, t.data) for name, t in self.params]
        tensors += [("vel." + name, v) for (name, _), v in zip(self.params, self.opt.velocities)]
        write_checkpoint(directory, {
            "kind": "train_state",
            "step": self.step,
            "pos": self.pos,
            "perm": None if self.perm is None else [int(i) for i in self.perm],
            "batch_rng": self.batch_rng.bit_generator.state,
            "perturb_rng": self.perturb_rng.bit_generator.state,
            "history": self.history,
            "config": self.cfg.to_dict(),
        }, tensors, manifest=STATE_MANIFEST, dtype="f64")

    @staticmethod
    def restore(backbone, cfg, data, directory):
        """A trainer at the saved step; refuses a state saved under another config."""
        trainer = Trainer(backbone, cfg, data)
        names = [p + name for p in ("param.", "vel.") for name, _ in trainer.params]
        state, arrays = read_checkpoint(directory, "train_state", lambda _: names,
                                        manifest=STATE_MANIFEST)
        if canonical_json(state["config"]) != canonical_json(cfg.to_dict()):
            raise CheckpointError(f"train state in {directory} was saved under another "
                                  "config than the one given")
        for i, (name, t) in enumerate(trainer.params):
            t.data = arrays["param." + name]
            trainer.opt.velocities[i] = arrays["vel." + name]
        trainer.step = int(state["step"])
        trainer.pos = int(state["pos"])
        trainer.perm = None if state["perm"] is None else np.asarray(state["perm"])
        trainer.batch_rng.bit_generator.state = state["batch_rng"]
        trainer.perturb_rng.bit_generator.state = state["perturb_rng"]
        trainer.history = list(state["history"])
        return trainer


# shared post-training measurement helper (also backs `eval --protocol train_ce`)


def measure_train_state(model: TunedModel, data: FewShotSplit,
                        store: DescriptionStore, cons: ConsistencyConfig):
    """Mean CE, consistency value, and per-branch embedding deviation over
    the whole few-shot split on unperturbed inputs."""
    templates = [tuple(store.template_tokens(n)) for n in data.base_class_names]
    images = np.stack([item.pixels for item in data.items])
    labels = np.asarray([item.label for item in data.items])
    with ad.no_grad():
        class_embs = model.class_matrix(templates).data
        frozen_cls = model.backbone.encode_text(templates).data
        tuned_img = model.image_embedding(images).data
        frozen_img = model.backbone.encode_image(images).data
        cc = float(consistency_loss(cons,
                                    frozen_cls[labels], class_embs[labels],
                                    frozen_img, tuned_img).item())
    z = (tuned_img @ class_embs.T) / model.tau
    z = z - z.max(axis=1, keepdims=True)
    ce = np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(labels)), labels]
    return {
        "final_train_ce": float(ce.mean()),
        "final_train_cc": cc,
        "text_deviation": float(np.mean(np.linalg.norm(class_embs - frozen_cls, axis=1))),
        "image_deviation": float(np.mean(np.linalg.norm(tuned_img - frozen_img, axis=1))),
    }


# ---------------------------------------------------------------------------
# finetune checkpoints


FINETUNE_MANIFEST = "config.json"
TUNED_DIR = "tuned"
STATE_MANIFEST = "state.json"


@dataclass
class FinetuneResult:
    model: TunedModel
    config: TrainConfig
    history: list
    metrics: dict
    content_hash: str | None = None
    directory: str | None = None


def _write_history_csv(path, history):
    with open(path, "w") as f:
        f.write("step,kind,ce,cc,total\n")
        for row in history:
            f.write(f"{row['step']},{row['kind']},{row['ce']!r},{row['cc']!r},{row['total']!r}\n")


def read_history_csv(path):
    rows = []
    with open(path) as f:
        next(f)
        for line in f:
            step, kind, ce, cc, total = line.strip().split(",")
            rows.append({"step": int(step), "kind": kind, "ce": float(ce),
                         "cc": float(cc), "total": float(total)})
    return rows


def save_finetune_checkpoint(directory, trainer: Trainer, metrics, backbone_ref=None):
    meta = {
        "kind": "finetune",
        "format_version": 1,
        "train": trainer.cfg.to_dict(),
        "backbone_fingerprint": trainer.backbone_fingerprint,
        "backbone_hash": backbone_hash(backbone_ref) if backbone_ref else None,
        "backbone_path": backbone_ref,
        "dataset_hash": trainer.data.dataset.content_hash,
        "base_class_ids": list(trainer.data.base_class_ids),
        "shots_seed": trainer.data.seed,
    }
    chash = write_checkpoint(directory, meta, [(n, t.data) for n, t in trainer.params],
                             manifest=FINETUNE_MANIFEST, subdir=TUNED_DIR)
    write_json(os.path.join(directory, "metrics.json"), metrics)
    _write_history_csv(os.path.join(directory, "history.csv"), trainer.history)
    return chash


def load_finetune_checkpoint(directory, backbone: DualEncoder | None = None,
                             backbone_dir=None):
    """Rebuild the tuned model; refuses to run on a hash-mismatched backbone."""
    model = None

    def tuned_names(manifest):
        nonlocal backbone, model
        if backbone is None:
            bb_dir = backbone_dir or manifest.get("backbone_path")
            if bb_dir is None:
                raise CheckpointError("no backbone supplied and none recorded in checkpoint")
            if manifest["backbone_hash"] is not None and backbone_hash(bb_dir) != manifest["backbone_hash"]:
                raise CheckpointError("backbone hash mismatch: checkpoint was trained "
                                      "on a different backbone")
            backbone = load_backbone(bb_dir)
        if backbone.weight_fingerprint() != manifest["backbone_fingerprint"]:
            raise CheckpointError("backbone weights do not match the checkpoint's "
                                  "recorded fingerprint")
        model = tuned_model(backbone, TrainConfig.from_dict(manifest["train"]))
        return [name for name, _ in model.params]

    manifest, arrays = read_checkpoint(directory, "finetune", tuned_names,
                                       manifest=FINETUNE_MANIFEST, subdir=TUNED_DIR)
    for name, t in model.params:
        t.data = arrays[name]
        t.requires_grad = False
    return model, TrainConfig.from_dict(manifest["train"]), manifest


def finetune(backbone: DualEncoder, cfg: TrainConfig, data: FewShotSplit,
             out_dir=None, max_steps=None, backbone_ref=None) -> FinetuneResult:
    """Run a full fine-tune; optionally persist a checkpoint directory.

    `max_steps=None` trains for the config's epoch budget; a non-negative int
    trains for exactly that many steps, past the epoch budget if need be (see
    `Trainer.run`).
    """
    start = time.time()
    trainer = Trainer(backbone, cfg, data)
    trainer.run(max_steps=max_steps)
    trainer.narrow_to_f32()
    metrics = trainer.final_metrics()
    metrics["steps"] = trainer.step
    metrics["runtime_seconds"] = time.time() - start
    trainer.history.append({
        "step": trainer.step, "kind": "final",
        "ce": metrics["final_train_ce"], "cc": metrics["final_train_cc"],
        "total": metrics["final_train_total"],
    })
    chash = None
    if out_dir is not None:
        chash = save_finetune_checkpoint(out_dir, trainer, metrics,
                                         backbone_ref=backbone_ref)
    return FinetuneResult(trainer.model, cfg, trainer.history, metrics,
                          content_hash=chash, directory=out_dir)
