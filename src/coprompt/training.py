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

A fine-tune checkpoint names its teacher by content hash (`backbone_hash`,
see `encoders.backbone_identity`) and its data by `dataset_hash`; the
backbone's directory is only a hint outside the hash, used when the loader
is given no backbone. Whichever backbone is used must have that hash.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import SGD
from .checkpoints import (
    FORMAT_VERSION,
    HINT,
    CheckpointError,
    Record,
    canonical_json,
    read_checkpoint,
    write_checkpoint,
    write_json,
)
from .consistency import (
    Augmenter,
    ConsistencyConfig,
    consistency_loss,
    perturb_image,
    perturb_text,
)
from .datasets import FewShotSplit
from .encoders import (
    DualEncoder,
    backbone_identity,
    class_sentences,
    load_backbone,
    template_tokens,
)
from .tuning import (
    ADAPTER_MODALITIES,
    PromptSet,
    apply_adapter,
    make_adapters,
    trainable_parameters,
)


class NonFiniteLossError(RuntimeError):
    """Training aborted on a NaN/Inf loss; the message names the step."""


def check_sgd(cfg):
    """Refuse a config's `lr` unless it is > 0, and its `momentum` unless it
    is in [0, 1): the values `SGD` takes."""
    if not cfg.lr > 0:
        cfg.refuse("lr", f"must be > 0, got {cfg.lr}")
    if not 0 <= cfg.momentum < 1:
        cfg.refuse("momentum", f"must be in [0, 1), got {cfg.momentum}")


@dataclass
class TrainConfig(Record):
    what = "train config"
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
        for key, value, least in (("lambda", self.lambda_, 0), ("shots", self.shots, 1),
                                  ("batch_size", self.batch_size, 1), ("epochs", self.epochs, 0),
                                  ("prompt_m", self.prompt_m, 0),
                                  ("prompt_depth", self.prompt_depth or 0, 0)):
            if value < least:
                self.refuse(key, f"must be >= {least}, got {value}")
        check_sgd(self)
        if self.adapter_modality not in ADAPTER_MODALITIES:
            self.refuse("adapter_modality", f"must be one of {list(ADAPTER_MODALITIES)}, "
                                            f"got {self.adapter_modality!r}")
        if not 1 <= self.adapter_layers <= 3:
            self.refuse("adapter_layers", f"must be in 1-3, got {self.adapter_layers}")


# ---------------------------------------------------------------------------
# losses


def supervised_loss(image_emb, class_embs, labels, tau):
    """-log softmax at each row's label over similarity logits scaled by 1/tau.

    Embeddings are expected unit-norm, so the dot products are cosine
    similarities. Takes (B, E) embeddings with (B,) labels and returns the
    batch mean.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    logits = ad.matmul(image_emb, ad.transpose(class_embs, (1, 0))) * (1.0 / tau)
    return ad.cross_entropy_from_logits(logits, labels)


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
        """A batch of token sequences -> (B, E); see `DualEncoder.encode_text`."""
        e = self.backbone.encode_text(tokens, prompts=self.prompt_set.text_schedule())
        return apply_adapter(self.adapters.get("text"), e)

    def image_embedding(self, images):
        """A sequence of B (H, W, C) images -> (B, E); see `DualEncoder.encode_image`."""
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
    if depth > layers:  # the config alone cannot know the backbone's layer count
        cfg.refuse("train.prompt_depth", f"must be <= the backbone's {layers} layers, got {depth}")
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
        if len(data.indices) == 0:
            raise ValueError("finetune: empty few-shot split")
        self.backbone = backbone
        self.cfg = cfg
        self.data = data
        # novel classes too: finetune refuses a class name outside the vocabulary
        self.sentences = {c.name: class_sentences(backbone.tokenizer, c, backbone.config.text_len)
                          for c in data.dataset.manifest.classes}

        _, self.batch_rng, self.perturb_rng = _seed_streams(cfg.seed)
        self.model = tuned_model(backbone, cfg)
        self.adapters = self.model.adapters
        self.params = self.model.params
        self.opt = SGD([t for _, t in self.params], lr=cfg.lr, momentum=cfg.momentum)
        self.augmenter = Augmenter(cfg.consistency.perturb_image)

        names = data.base_class_names
        self.class_tokens = [self.sentences[n][0] for n in names]
        prompts = self.model.prompt_set.text_schedule()
        m = prompts[0].shape[0] if prompts else 0
        longest = max(len(t) for t in self.class_tokens)
        if longest + m > backbone.config.text_len:
            raise ValueError(f"a class template of {longest} tokens plus {m} prompts "
                             f"exceeds text_len {backbone.config.text_len}")
        # frozen teacher row of every sentence the text branch is fed: the
        # plain templates and every base-class description
        sentences = list(dict.fromkeys(self.class_tokens + [
            t for n in names for t in self.sentences[n][1:]]))
        with ad.no_grad():
            rows = backbone.encode_text(sentences).data
        self.frozen_text = dict(zip(sentences, rows))
        self.history = []
        self.step = 0
        self.perm = None
        self.pos = 0

        n = len(data.indices)
        self.steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
        self.total_steps = cfg.epochs * self.steps_per_epoch

    # -- single step ----------------------------------------------------------

    def _next_batch(self):
        """(images, labels) of the next batch, gathered from the split."""
        n = len(self.data.indices)
        if self.perm is None or self.pos >= n:
            self.perm = self.batch_rng.permutation(n)
            self.pos = 0
        idx = self.perm[self.pos:self.pos + self.cfg.batch_size]
        self.pos += self.cfg.batch_size
        return self.data.dataset.pixels[self.data.indices[idx]], self.data.labels[idx]

    def train_step(self):
        cfg = self.cfg
        cons = cfg.consistency
        images, labels = self._next_batch()

        class_embs = self.model.class_matrix(self.class_tokens)

        views_frozen = views_tuned = images
        if cons.enabled and cons.perturb_image != "none":
            views = [perturb_image(self.augmenter, img, self.perturb_rng) for img in images]
            views_frozen = np.stack([va for va, _ in views])
            views_tuned = np.stack([vb for _, vb in views])

        img_batch = self.model.image_embedding(views_tuned)

        ce = supervised_loss(img_batch, class_embs, labels, self.backbone.tau)
        ce_val = ce.item()
        # every tuned input of the consistency term also feeds ce, so a
        # finite ce means finite inputs there
        if not np.isfinite(ce_val):
            raise NonFiniteLossError(f"non-finite loss at step {self.step}: ce={ce_val}, cc=nan")

        cc = None
        if cons.enabled:
            frozen_text = np.stack([
                self.frozen_text[perturb_text(self.sentences[self.data.base_class_names[label]],
                                              self.perturb_rng, descriptive=cons.perturb_text)]
                for label in labels])
            with ad.no_grad():
                frozen_img = self.backbone.encode_image(views_frozen).data
            tuned_text = ad.slice_(class_embs, labels)
            cc = consistency_loss(cons, frozen_text, tuned_text, frozen_img, img_batch)

        coupled = cc is not None and not cfg.detach_consistency
        cc_val = cc.item() if cc is not None else 0.0
        total_val = ce_val + cfg.lambda_ * cc_val if coupled else ce_val
        if not np.isfinite(total_val):
            raise NonFiniteLossError(
                f"non-finite loss at step {self.step}: ce={ce_val}, cc={cc_val}")
        total = total_loss(ce, cc, cfg.lambda_) if coupled else ce

        ad.backward(total)
        self.opt.step()
        self.step += 1
        self.history.append({"step": self.step, "ce": ce_val, "cc": cc_val, "total": total_val})

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
        m = measure_train_state(self.model, self.data, self.cfg.consistency)
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
            "format_version": FORMAT_VERSION,
        }, tensors)

    @staticmethod
    def restore(backbone, cfg, data, directory):
        """A trainer at the saved step; refuses a state saved under another config."""
        trainer = Trainer(backbone, cfg, data)
        state, load = read_checkpoint(directory, "train_state")
        if canonical_json(state["config"]) != canonical_json(cfg.to_dict()):
            raise CheckpointError(f"train state in {directory} was saved under another "
                                  "config than the one given")
        arrays = load({p + n: t.shape for p in ("param.", "vel.") for n, t in trainer.params})
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


# shared post-training measurements (`train_ce` also backs `eval --protocol train_ce`)


def _split_inputs(model: TunedModel, data: FewShotSplit):
    """The split's base-class template sentences and its image rows."""
    return ([tuple(template_tokens(model.tokenizer, n)) for n in data.base_class_names],
            [data.dataset.pixels[i] for i in data.indices])


def train_ce(model: TunedModel, data: FewShotSplit, inputs=None):
    """Mean CE of the tuned model over the whole few-shot split on
    unperturbed inputs, with the (C, E) class and (N, E) image embeddings it
    scored: (ce, class_embs, tuned_img). `inputs` is `_split_inputs(model,
    data)` when the caller already has it."""
    templates, images = inputs or _split_inputs(model, data)
    with ad.no_grad():
        class_embs = model.class_matrix(templates).data
        tuned_img = model.image_embedding(images).data
    z = (tuned_img @ class_embs.T) / model.tau
    z = z - z.max(axis=1, keepdims=True)
    ce = np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(images)), data.labels]
    return float(ce.mean()), class_embs, tuned_img


def measure_train_state(model: TunedModel, data: FewShotSplit, cons: ConsistencyConfig):
    """Mean CE, consistency value, and per-branch embedding deviation over
    the whole few-shot split on unperturbed inputs."""
    templates, images = inputs = _split_inputs(model, data)
    ce, class_embs, tuned_img = train_ce(model, data, inputs)
    labels = data.labels
    with ad.no_grad():
        frozen_cls = model.backbone.encode_text(templates).data
        frozen_img = model.backbone.encode_image(images).data
        cc = float(consistency_loss(cons,
                                    frozen_cls[labels], class_embs[labels],
                                    frozen_img, tuned_img).item())
    return {
        "final_train_ce": ce,
        "final_train_cc": cc,
        "text_deviation": float(np.mean(np.linalg.norm(class_embs - frozen_cls, axis=1))),
        "image_deviation": float(np.mean(np.linalg.norm(tuned_img - frozen_img, axis=1))),
    }


# ---------------------------------------------------------------------------
# finetune checkpoints


@dataclass
class FinetuneResult:
    model: TunedModel
    config: TrainConfig
    history: list
    metrics: dict
    content_hash: str | None = None


def _write_history_csv(path, history):
    with open(path, "w") as f:
        f.write("step,ce,cc,total\n")
        for row in history:
            f.write(f"{row['step']},{row['ce']!r},{row['cc']!r},{row['total']!r}\n")


def save_finetune_checkpoint(directory, trainer: Trainer, metrics):
    meta = {
        "kind": "finetune",
        "format_version": FORMAT_VERSION,
        "train": trainer.cfg.to_dict(),
        "backbone_hash": backbone_identity(trainer.backbone),
        "dataset_hash": trainer.data.dataset.content_hash,
        "base_class_ids": list(trainer.data.base_class_ids),
        "shots_seed": trainer.data.seed,
        HINT: {"backbone_dir": trainer.backbone.directory},
    }
    chash = write_checkpoint(directory, meta, [(n, t.data) for n, t in trainer.params])
    write_json(os.path.join(directory, "metrics.json"), metrics)
    _write_history_csv(os.path.join(directory, "history.csv"), trainer.history)
    return chash


def load_finetune_checkpoint(directory, backbone: DualEncoder | None = None,
                             backbone_dir=None):
    """Rebuild the tuned model on `backbone`, else the one in `backbone_dir`,
    else the one in the directory the checkpoint's hint names; refuses a
    backbone whose content hash is not the recorded `backbone_hash`."""
    manifest, load = read_checkpoint(directory, "finetune")
    if backbone is None:
        hint = manifest.get(HINT)  # unhashed: any JSON value may stand here
        bb_dir = backbone_dir or (hint.get("backbone_dir") if isinstance(hint, dict) else None)
        if not isinstance(bb_dir, str) or not os.path.isdir(bb_dir):
            raise CheckpointError(f"backbone of {directory} not found at {bb_dir}; "
                                  "name the backbone it was trained on")
        backbone = load_backbone(bb_dir)
    if backbone_identity(backbone) != manifest["backbone_hash"]:
        raise CheckpointError("backbone content hash does not match the checkpoint's "
                              "backbone_hash: it was trained on another backbone")
    cfg = TrainConfig.from_dict(manifest["train"])
    model = tuned_model(backbone, cfg)
    arrays = load({name: t.shape for name, t in model.params})
    for name, t in model.params:
        t.data = arrays[name]
        t.requires_grad = False
    return model, cfg, manifest


def finetune(backbone: DualEncoder, cfg: TrainConfig, data: FewShotSplit,
             out_dir=None, max_steps=None) -> FinetuneResult:
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
    chash = None
    if out_dir is not None:
        chash = save_finetune_checkpoint(out_dir, trainer, metrics)
    return FinetuneResult(trainer.model, cfg, trainer.history, metrics, content_hash=chash)
