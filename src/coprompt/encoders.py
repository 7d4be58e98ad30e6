"""Miniature image/text dual encoder and its contrastive pre-trainer.

Both branches are small pre-LN transformers sharing a joint embedding space:
the text branch pools at the end-of-sequence position, the image branch
mean-pools its patch positions, and both project to the joint dimension and
L2-normalize. Each prompted layer prepends its prompt vectors to its input.
Past attention, a block computes only the rows its output feeds (the last
block: the EOS row or the patch rows); a weight product's rows do not depend
on how many rows ride along, so those rows are bitwise a full pass's.

The pre-trainer plays the role of the large-scale pretraining this kind of
model normally assumes: a symmetric in-batch contrastive loss over
cosine-similarity logits scaled by a learned temperature. Its data, a
`PretrainSplit`, holds row views into the datasets' pixel arrays, a class
index per row and one caption list per class; batches gather rows by index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeError
from .checkpoints import FORMAT_VERSION, Record, checkpoint_hash, read_checkpoint, write_checkpoint
from .datasets import TEMPLATE_PROMPT

PAD_ID, SOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
SPECIALS = ("<pad>", "<sos>", "<eos>", "<unk>")

TAU_MIN, TAU_MAX = 0.01, 100.0
TAU_INIT = 0.5

# contrastive pre-training guards; `contrastive_pretrain` gives the reasons
WARMUP_STEPS = 30
TAU_LR_SCALE = 0.05
CLIP_NORM = 1.0
IMAGE_TILE = 32  # most images per graph-free pass: smaller peak temporaries


def _rows(x, rows):
    """`rows` of the (B, S, ...) batch `x` along axis 1; every row for None."""
    return x if rows is None else ad.slice_(x, (slice(None), rows))


class VocabularyError(ValueError):
    """Words outside the tokenizer vocabulary where UNK is not allowed."""


class Tokenizer:
    """Lowercase whitespace word tokenizer with PAD/SOS/EOS/UNK specials."""

    def __init__(self, words):
        self.vocab = {w: i for i, w in enumerate(SPECIALS)}
        for w in sorted(set(words)):
            if w not in self.vocab:
                self.vocab[w] = len(self.vocab)

    @property
    def size(self):
        return len(self.vocab)

    @staticmethod
    def normalize(text):
        return re.sub(r"[^\w\s]", " ", text.lower()).split()

    def encode(self, text, strict=False):
        words = self.normalize(text)
        if strict:
            unknown = [w for w in words if w not in self.vocab]
            if unknown:
                raise VocabularyError(f"unknown words: {', '.join(sorted(set(unknown)))}")
        return [SOS_ID] + [self.vocab.get(w, UNK_ID) for w in words] + [EOS_ID]

    @staticmethod
    def from_manifests(manifests):
        words = list(Tokenizer.normalize(TEMPLATE_PROMPT.format(name="")))
        for m in manifests:
            for cls in m.classes:
                words.extend(Tokenizer.normalize(cls.name))
                for desc in cls.descriptions:
                    words.extend(Tokenizer.normalize(desc))
        return Tokenizer(words)

    def to_dict(self):
        return dict(self.vocab)

    @staticmethod
    def from_dict(vocab):
        tok = Tokenizer([])
        tok.vocab = {w: int(i) for w, i in vocab.items()}
        return tok


def template_tokens(tokenizer, name):
    """Token ids of the class template sentence. The class name must be in
    the vocabulary: as <unk>, every such class would share one template.
    The template's other words may be <unk>."""
    tokenizer.encode(name, strict=True)
    return tokenizer.encode(TEMPLATE_PROMPT.format(name=name))


def class_sentences(tokenizer, cls, text_len):
    """Token-id tuples of the class's template, then of each description;
    refuses (ValueError) a sentence longer than `text_len`."""
    sentences = [tuple(template_tokens(tokenizer, cls.name))]
    sentences += [tuple(tokenizer.encode(d)) for d in cls.descriptions]
    longest = max(len(t) for t in sentences)
    if longest > text_len:
        raise ValueError(f"a sentence of class {cls.name!r} has {longest} tokens, "
                         f"more than text_len {text_len}")
    return sentences


@dataclass(frozen=True)
class EncoderConfig(Record):
    what = "encoder config"
    layers: int = 4
    width: int = 64
    heads: int = 4
    text_len: int = 16
    patch_grid: int = 4
    image_size: int = 32
    channels: int = 3
    embed_dim: int = 32

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.image_size % self.patch_grid != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_grid {self.patch_grid}")

    @property
    def num_patches(self):
        return self.patch_grid * self.patch_grid

    @property
    def patch_dim(self):
        side = self.image_size // self.patch_grid
        return side * side * self.channels


def patchify(images, grid):
    """(..., H, W, C) -> (..., grid*grid, patch_dim), non-overlapping row-major patches."""
    *lead, h, w, c = images.shape
    side = h // grid
    patches = images.reshape(*lead, grid, side, grid, side, c)
    patches = np.swapaxes(patches, -4, -3)
    return patches.reshape(*lead, grid * grid, side * side * c)


def weight_spec(config: EncoderConfig, vocab_size):
    """Every encoder weight as (name, shape, init), in the one order used to
    draw, store and hash them. `init` is ("normal", std), a zero-mean normal
    draw, or ("fill", value). Attention has no key bias: it would add the
    same `q . bk` to every key's score, which the softmax cancels."""
    w = config.width

    def normal(name, shape, std):
        return name, shape, ("normal", std)

    def matrix(name, fan_in, fan_out):
        return normal(name, (fan_in, fan_out), 1.0 / np.sqrt(fan_in))

    def zeros(name, n=w):
        return name, (n,), ("fill", 0.0)

    def ones(name):
        return name, (w,), ("fill", 1.0)

    def branch(b):
        out = []
        for j in range(config.layers):
            p = f"{b}.h{j}."
            out += [ones(p + "ln1.g"), zeros(p + "ln1.b")]
            for c in "qkvo":
                out.append(matrix(p + "attn.w" + c, w, w))
                if c != "k":
                    out.append(zeros(p + "attn.b" + c))
            out += [ones(p + "ln2.g"), zeros(p + "ln2.b"),
                    matrix(p + "mlp.w1", w, 4 * w), zeros(p + "mlp.b1", 4 * w),
                    matrix(p + "mlp.w2", 4 * w, w), zeros(p + "mlp.b2")]
        return out + [ones(f"{b}.lnf.g"), zeros(f"{b}.lnf.b"),
                      matrix(f"{b}.proj.w", w, config.embed_dim),
                      zeros(f"{b}.proj.b", config.embed_dim)]

    # temperature is learned through its log so the contrastive loss
    # cannot run away by inflating tau early in training
    return ([("log_tau", (), ("fill", np.log(TAU_INIT))),
             normal("text.tok_emb", (vocab_size, w), 0.02),
             normal("text.pos_emb", (config.text_len, w), 0.01)]
            + branch("text")
            + [matrix("img.patch.w", config.patch_dim, w), zeros("img.patch.b"),
               normal("img.pos_emb", (config.num_patches, w), 0.01)]
            + branch("img"))


class DualEncoder:
    """Paired text/image transformer with a learned temperature.

    Weight buffers live in an ordered name->Tensor dict, so initialization,
    checkpointing, and hashing are all deterministic. A frozen instance
    never changes and records no gradients on its own account; gradient
    tracking through a frozen encoder happens only when prompt inputs
    require it.
    """

    directory = None  # where `load_backbone` found it: a hint, not its identity

    def __init__(self, config: EncoderConfig, tokenizer: Tokenizer, seed=0, frozen=False):
        self.config = config
        self.tokenizer = tokenizer
        self.frozen = frozen
        rng = np.random.default_rng(np.random.SeedSequence([seed, 20317]))
        self.weights = {}
        for name, shape, (kind, value) in weight_spec(config, tokenizer.size):
            array = rng.normal(0.0, value, shape) if kind == "normal" else np.full(shape, value)
            self.weights[name] = Tensor(array, requires_grad=not frozen)

    @classmethod
    def _holding(cls, config, tokenizer, weights):
        """A frozen encoder over a ready name->Tensor dict; draws nothing."""
        enc = cls.__new__(cls)
        enc.config, enc.tokenizer, enc.frozen, enc.weights = config, tokenizer, True, weights
        return enc

    # -- parameter plumbing --------------------------------------------------

    def param_items(self):
        return list(self.weights.items())

    def set_frozen(self, frozen):
        self.frozen = frozen
        for t in self.weights.values():
            t.requires_grad = not frozen

    @property
    def tau(self):
        return float(np.exp(self.weights["log_tau"].item()))

    # -- forward -------------------------------------------------------------

    def _attention(self, p, h, rows):
        """Self-attention of a (B, S, width) batch, output-projected on `rows`."""
        w = self.weights
        cfg = self.config
        b, s = h.shape[0], h.shape[1]
        heads, hd = cfg.heads, cfg.width // cfg.heads
        split = (b, s, heads, hd)

        def heads_of(c, axes):
            y = ad.matmul(h, w[p + "attn.w" + c], bias=w.get(p + "attn.b" + c))
            return ad.transpose(ad.reshape(y, split), axes)

        q = heads_of("q", (0, 2, 1, 3))
        k = heads_of("k", (0, 2, 3, 1))
        v = heads_of("v", (0, 2, 1, 3))
        att = ad.softmax(ad.matmul(q, k) * (1.0 / np.sqrt(hd)), axis=-1)
        o = _rows(ad.transpose(ad.matmul(att, v), (0, 2, 1, 3)), rows)
        o = ad.reshape(o, o.shape[:-2] + (cfg.width,))
        return ad.matmul(o, w[p + "attn.wo"], bias=w[p + "attn.bo"])

    def _block(self, branch, j, x, rows=None):
        w = self.weights
        p = f"{branch}.h{j}."
        a = self._attention(p, ad.layernorm(x, w[p + "ln1.g"], w[p + "ln1.b"]), rows)
        x = _rows(x, rows) + a
        h = ad.layernorm(x, w[p + "ln2.g"], w[p + "ln2.b"])
        h = ad.gelu(ad.matmul(h, w[p + "mlp.w1"], bias=w[p + "mlp.b1"]))
        return x + ad.matmul(h, w[p + "mlp.w2"], bias=w[p + "mlp.b2"])

    def _run_layers(self, branch, x, prompts, out_rows):
        """Run the (B, S, width) batch through every block; returns the last
        block's `out_rows`, indexed from the end (prompts precede the S rows).

        Layer j's (m, width) prompt is broadcast over the batch and prepended.
        Past attention, a block computes only the rows someone reads: a
        prompted layer whose successor brings its own prompt drops its prompt
        rows, and the last block keeps `out_rows`. A dropped row is still a
        key, a value and a query; after attention, rows meet only row-wise
        ops and weight products, whose rows do not depend on how many rows
        ride along. So a kept row is bitwise a full pass's, unless it is
        alone: a (1, width) product may take another kernel.
        """
        prompts = [ad.broadcast_to(u, (x.shape[0],) + u.shape) for u in prompts or ()]
        tokens, layers = slice(-x.shape[1], None), self.config.layers
        for j in range(layers):
            if j < len(prompts):
                x = ad.concat([prompts[j], x], axis=1)
            rows = out_rows if j == layers - 1 else tokens if j + 1 < len(prompts) else None
            x = self._block(branch, j, x, rows)
        return x

    def _project(self, branch, pooled):
        """(B, width) pooled features -> (B, embed_dim) unit-norm embeddings."""
        w = self.weights
        return ad.l2_normalize(
            ad.matmul(pooled, w[f"{branch}.proj.w"], bias=w[f"{branch}.proj.b"]))

    def encode_text(self, tokens, prompts=None):
        """Encode token id sequences into unit-norm joint embeddings.

        `tokens` is a batch of int sequences; the result is (B, embed_dim)
        rows in input order. Pass it as a list of tuples: tuples hash, so
        callers can key results by sentence. Sequences may differ in length:
        each length runs as its own dense group, so no row sees padding, and a
        row agrees with a batch of one up to rounding. `prompts` is a list of
        per-layer (m, width) tensors (`_run_layers`). The last block computes
        only each sequence's EOS row, so a group of one takes a vector-matrix
        kernel there.
        """
        cfg = self.config
        seqs = list(tokens)
        if not seqs:
            raise ShapeError("encode_text: empty batch")
        m = prompts[0].shape[0] if prompts else 0
        groups = {}
        for i, seq in enumerate(seqs):
            if np.ndim(seq) != 1:
                raise ShapeError(f"encode_text: row {i} is not a token sequence; pass a batch")
            n = len(seq)
            if n == 0:
                raise ShapeError("encode_text: empty token sequence")
            if n + m > cfg.text_len:
                raise ShapeError(
                    f"text sequence of {n} tokens plus {m} prompts exceeds text_len {cfg.text_len}")
            groups.setdefault(n, []).append(i)
        w = self.weights
        pooled, order = [], []
        for n, rows in groups.items():
            ids = np.asarray([seqs[i] for i in rows], dtype=np.int64)
            x = ad.embedding_lookup(w["text.tok_emb"], ids) + ad.slice_(w["text.pos_emb"], slice(0, n))
            pooled.append(self._run_layers("text", x, prompts, -1))  # the EOS row
            order.extend(rows)
        # one concat and one gather put the length groups back in input order
        x = ad.slice_(ad.concat(pooled, axis=0), np.argsort(order))
        x = ad.layernorm(x, w["text.lnf.g"], w["text.lnf.b"])
        return self._project("text", x)

    def encode_image(self, images, prompts=None):
        """Encode images with pixel values in [0, 1].

        A (B, image_size, image_size, channels) batch gives (B, embed_dim)
        rows. `prompts` is a list of per-layer (m, width) vision prompt
        tensors, injected as in `encode_text`.
        """
        cfg = self.config
        imgs = np.asarray(images)
        expected = (cfg.image_size, cfg.image_size, cfg.channels)
        if imgs.ndim != 4 or imgs.shape[1:] != expected:
            raise ShapeError(f"image shape {imgs.shape} does not match (B,) + {expected}")
        if imgs.shape[0] == 0:
            raise ShapeError("encode_image: empty batch")
        # near-equal tiles: a tile of one image would take other BLAS kernels
        n = 1 if ad.records([*self.weights.values(), *(prompts or ())]) else -(-len(imgs) // IMAGE_TILE)
        rows = [self._encode_image_tile(t, prompts) for t in np.array_split(imgs, n)]
        return rows[0] if n == 1 else Tensor(np.concatenate([r.data for r in rows]))

    def _encode_image_tile(self, imgs, prompts):
        cfg = self.config
        w = self.weights
        patches = Tensor(patchify(imgs, cfg.patch_grid))
        x = ad.matmul(patches, w["img.patch.w"], bias=w["img.patch.b"]) + w["img.pos_emb"]
        x = self._run_layers("img", x, prompts, slice(-cfg.num_patches, None))
        x = ad.layernorm(x, w["img.lnf.g"], w["img.lnf.b"])
        return self._project("img", ad.mean(x, axis=1))


# ---------------------------------------------------------------------------
# contrastive pre-training


@dataclass
class PretrainSplit:
    """Image/caption pairs over combined class sets. Images are (H, W, C)
    row views into their datasets; no image set is copied or concatenated."""
    images: list              # every "train" pool row
    classes: np.ndarray       # combined class index of each image
    heldout_images: list      # every "val" pool row
    heldout_classes: np.ndarray
    captions: list            # per combined class: its template, then its descriptions

    @property
    def class_templates(self):
        return [c[0] for c in self.captions]

    @property
    def num_classes(self):
        return len(self.captions)


def build_pretrain_split(datasets, tokenizer, text_len):
    """Image/caption pairs over full class sets, mirroring broad pretraining;
    a class's captions are its `class_sentences`, ready for a batched
    `encode_text` call, and held-out images come from the "val" pool."""
    images, classes, captions = {"train": [], "val": []}, {"train": [], "val": []}, []
    for ds in datasets:
        for cls in ds.manifest.classes:
            for pool in images:
                rows = ds.pool_indices(cls.id, pool)
                images[pool] += [ds.pixels[i] for i in rows]
                classes[pool] += [len(captions)] * len(rows)
            captions.append(class_sentences(tokenizer, cls, text_len))
    return PretrainSplit(images["train"], np.asarray(classes["train"]),
                         images["val"], np.asarray(classes["val"]), captions)


def _clip_global_norm(params, max_norm):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale  # gradient arrays may be shared


def retrieval_accuracy(enc, images, classes, class_templates):
    """Image-to-text retrieval over the class template sentences."""
    with ad.no_grad():
        text = enc.encode_text(class_templates).data
        img = enc.encode_image(np.stack(images)).data
    predicted = np.argmax(img @ text.T, axis=1)
    return float(np.mean(predicted == classes))


def _pretrain_step(enc, images, captions, opt, opt_tau):
    """One contrastive SGD step on the paired `images` and `captions`;
    returns its loss as a float.

    The step's graph is local to this call, so it is freed before the next
    step's forward is built rather than living through it."""
    log_tau = enc.weights["log_tau"]
    img = enc.encode_image(images)
    txt = enc.encode_text(captions)
    logits = ad.matmul(img, ad.transpose(txt, (1, 0))) / ad.exp(log_tau)
    labels = np.arange(len(images))
    loss = 0.5 * (ad.cross_entropy_from_logits(logits, labels)
                  + ad.cross_entropy_from_logits(ad.transpose(logits, (1, 0)), labels))
    ad.backward(loss)
    _clip_global_norm(opt.params + opt_tau.params, CLIP_NORM)
    opt.step()
    opt_tau.step()
    log_tau.data = np.clip(log_tau.data, np.log(TAU_MIN), np.log(TAU_MAX))
    return loss.item()


def contrastive_pretrain(enc, split: PretrainSplit, epochs=6, lr=0.05,
                         batch_size=32, momentum=0.9, seed=0):
    """Train the dual encoder with a symmetric in-batch contrastive loss.

    Batches are class-stratified (distinct classes, one example each): with
    class-level captions, same-class in-batch negatives are label noise, and
    removing them also keeps per-batch difficulty constant. Small-batch SGD
    on a contrastive objective is unstable without the standard guards, so
    the schedule warms up linearly over `WARMUP_STEPS` then cosine-decays,
    gradients are clipped at the global norm `CLIP_NORM`, and the
    temperature learns at `TAU_LR_SCALE` times the rate (in log space,
    clamped to [`TAU_MIN`, `TAU_MAX`] after every step).

    The clip keeps small batches out of a collapsed optimum. The first
    gradients have global norms of 2-4, mostly from the text branch. Taken
    at full size, those steps settle both branches on the easiest attribute,
    the palette, and merge the pattern classes that share it. That optimum
    is nearly flat (loss ln(classes per palette in the batch), gradient
    norms near 0.005), so training never leaves it. On 8 classes (2 palettes
    x 4 patterns) at batch 8 and lr 0.08, a clip of 5.0 fires on 1% of steps
    and ends there, at retrieval 0.25; a `CLIP_NORM` of 1.0 fires on about
    half of them and reaches 0.71.

    Returns (encoder, history) with per-step losses and held-out retrieval
    accuracy.
    """
    if enc.frozen:
        raise ValueError("contrastive_pretrain: encoder is frozen")
    if split.num_classes < 2:
        raise ValueError("contrastive_pretrain: need at least 2 classes")
    if not split.images:
        raise ValueError("contrastive_pretrain: empty dataset")

    log_tau = enc.weights["log_tau"]
    params = [t for name, t in enc.param_items() if name != "log_tau"]
    opt = ad.SGD(params, lr=lr, momentum=momentum)
    opt_tau = ad.SGD([log_tau], lr=lr * TAU_LR_SCALE, momentum=momentum)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77001]))
    losses = []

    by_class = {}
    for i, c in enumerate(split.classes):
        by_class.setdefault(int(c), []).append(i)
    class_ids = sorted(by_class)
    per_batch = min(batch_size, len(class_ids))

    n = len(split.images)
    steps = epochs * max(1, n // max(2, per_batch))
    for step in range(steps):
        if step < WARMUP_STEPS:
            scale = (step + 1) / WARMUP_STEPS
        else:
            progress = (step - WARMUP_STEPS) / max(1, steps - WARMUP_STEPS)
            scale = 0.1 + 0.9 * 0.5 * (1.0 + np.cos(np.pi * progress))
        opt.lr = lr * scale
        opt_tau.lr = lr * TAU_LR_SCALE * scale

        chosen = [class_ids[int(c)]
                  for c in rng.choice(len(class_ids), size=per_batch, replace=False)]
        rows = [by_class[c][int(rng.integers(len(by_class[c])))] for c in chosen]
        captions = [split.captions[c][int(rng.integers(len(split.captions[c])))]
                    for c in chosen]
        images = np.stack([split.images[i] for i in rows])
        losses.append(_pretrain_step(enc, images, captions, opt, opt_tau))

    history = {"loss": losses, "tau": enc.tau}
    if split.heldout_images:
        history["retrieval_accuracy"] = retrieval_accuracy(
            enc, split.heldout_images, split.heldout_classes, split.class_templates)
        history["chance"] = 1.0 / split.num_classes
    return enc, history


# ---------------------------------------------------------------------------
# backbone checkpoints


BACKBONE_MANIFEST = "manifest.json"


def _backbone_checkpoint(enc: DualEncoder):
    """(metadata, tensors) of `enc`'s backbone checkpoint."""
    # displayed tau comes from the narrowed (f32) log_tau so that
    # save -> load -> save is a fixed point
    tau_meta = float(np.exp(enc.weights["log_tau"].data.astype("<f4").astype(np.float64)))
    meta = {
        "kind": "backbone",
        "format_version": FORMAT_VERSION,
        "config": enc.config.to_dict(),
        "vocab": enc.tokenizer.to_dict(),
        "tau": tau_meta,
    }
    return meta, [(n, t.data) for n, t in enc.param_items()]


def backbone_identity(enc: DualEncoder) -> str:
    """The content hash `save_backbone` writes for `enc`, computed in memory:
    the one name of a backbone, wherever it is stored."""
    return checkpoint_hash(*_backbone_checkpoint(enc))


def save_backbone(directory, enc: DualEncoder):
    """Write config + vocab + per-weight f32 tensor files; returns the content hash."""
    return write_checkpoint(directory, *_backbone_checkpoint(enc), manifest=BACKBONE_MANIFEST)


def load_backbone(directory) -> DualEncoder:
    """Load a frozen backbone through the verifying `read_checkpoint`; the
    weight names and shapes come from `weight_spec`, so nothing is drawn at
    random. The encoder records `directory`."""

    def weight_shapes(manifest):
        config = EncoderConfig.from_dict(manifest["config"])
        return {name: shape for name, shape, _ in weight_spec(config, len(manifest["vocab"]))}

    manifest, arrays = read_checkpoint(directory, "backbone", weight_shapes,
                                       manifest=BACKBONE_MANIFEST)
    # pop as we copy: one copy of the weights at a time
    weights = {name: Tensor(arrays.pop(name)) for name in list(arrays)}
    enc = DualEncoder._holding(EncoderConfig.from_dict(manifest["config"]),
                               Tokenizer.from_dict(manifest["vocab"]), weights)
    enc.directory = directory
    return enc
