"""Input perturbations and the frozen-vs-tuned consistency loss family.

The teacher is always the frozen pre-trained encoder pair. Text perturbation
swaps the plain template for a stored descriptive sentence of the class;
image perturbation draws two independent augmented views of one source
image, one per branch. The loss compares frozen and tuned embeddings under
a selectable criterion (cosine distance by default, L1 or MSE otherwise)
over a selectable set of modalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .datasets import TEMPLATE_PROMPT

CRITERIA = ("cosine", "l1", "mse")
MODALITIES = ("text_only", "image_only", "both")
IMAGE_MODES = ("none", "simple", "hard")


@dataclass
class ConsistencyConfig:
    criterion: str = "cosine"
    modality: str = "both"
    perturb_text: bool = True
    perturb_image: str = "simple"
    enabled: bool = True

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if self.modality not in MODALITIES:
            raise ValueError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if self.perturb_image not in IMAGE_MODES:
            raise ValueError(
                f"perturb_image must be one of {IMAGE_MODES}, got {self.perturb_image!r}")

    def to_dict(self):
        return {"criterion": self.criterion, "modality": self.modality,
                "perturb_text": self.perturb_text, "perturb_image": self.perturb_image,
                "enabled": self.enabled}

    @staticmethod
    def from_dict(d):
        allowed = set(ConsistencyConfig.__dataclass_fields__)
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown consistency config keys: {sorted(unknown)}")
        return ConsistencyConfig(**d)


class DescriptionStore:
    """Per-class descriptive sentences, pre-tokenized and length-checked.

    Descriptions come from the dataset manifest (deterministic template
    expansion standing in for an external language model); sampling one per
    step keeps the single-sentence-on-the-fly behavior.
    """

    def __init__(self, descriptions, tokenizer, text_len):
        self.tokenizer = tokenizer
        self._tokens = {}
        self._templates = {}
        for name, sentences in descriptions.items():
            if not sentences:
                raise ValueError(f"class {name!r} has no descriptions")
            toks = [tokenizer.encode(s) for s in sentences]
            for s, t in zip(sentences, toks):
                if len(t) > text_len:
                    raise ValueError(
                        f"description for {name!r} has {len(t)} tokens > text_len {text_len}: {s!r}")
            self._tokens[name] = toks
            # a class name outside the vocabulary would encode as <unk>, and
            # every such class would share one template; descriptions may
            # hold <unk> words, class names may not
            tokenizer.encode(name, strict=True)
            self._templates[name] = tokenizer.encode(TEMPLATE_PROMPT.format(name=name))

    @staticmethod
    def from_manifest(manifest, tokenizer, text_len):
        return DescriptionStore({c.name: c.descriptions for c in manifest.classes},
                                tokenizer, text_len)

    def template_tokens(self, class_name):
        if class_name not in self._templates:
            raise KeyError(f"unknown class {class_name!r}")
        return self._templates[class_name]

    def description_tokens(self, class_name):
        if class_name not in self._tokens:
            raise KeyError(f"unknown class {class_name!r}")
        return self._tokens[class_name]

    def sample_tokens(self, class_name, rng):
        choices = self.description_tokens(class_name)
        return choices[int(rng.integers(len(choices)))]


def perturb_text(store: DescriptionStore, class_name, rng, descriptive=True):
    """One sampled description's tokens, or the plain template when disabled."""
    if not descriptive:
        return store.template_tokens(class_name)
    return store.sample_tokens(class_name, rng)


# ---------------------------------------------------------------------------
# image augmentation


def _bilinear_resize(img, out_size):
    h, w, _ = img.shape
    ys = np.clip((np.arange(out_size) + 0.5) * h / out_size - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_size) + 0.5) * w / out_size - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


class Augmenter:
    """Seeded image augmentation: none, simple (crop+flip), or hard.

    Simple mode uses only value-preserving ops (random resized crop with
    area scale in [0.6, 1.0], horizontal flip at p=0.5). Hard mode adds
    per-channel brightness/contrast jitter (+-0.4) and erases one patch,
    standing in for a heavier augmentation policy.
    """

    def __init__(self, mode="simple"):
        if mode not in IMAGE_MODES:
            raise ValueError(f"augmenter mode must be one of {IMAGE_MODES}, got {mode!r}")
        self.mode = mode

    def __call__(self, image, rng):
        if self.mode == "none":
            return image.copy()
        img = np.asarray(image, dtype=np.float64)
        size = img.shape[0]

        scale = rng.uniform(0.6, 1.0)
        side = max(4, int(round(size * np.sqrt(scale))))
        side = min(side, size)
        y0 = int(rng.integers(0, size - side + 1))
        x0 = int(rng.integers(0, size - side + 1))
        crop = img[y0:y0 + side, x0:x0 + side]
        out = _bilinear_resize(crop, size) if side != size else crop.copy()
        if rng.uniform() < 0.5:
            out = out[:, ::-1].copy()

        if self.mode == "hard":
            brightness = rng.uniform(-0.4, 0.4, 3)
            contrast = rng.uniform(0.6, 1.4, 3)
            mean = out.mean(axis=(0, 1))
            out = (out - mean) * contrast + mean + brightness
            out = np.clip(out, 0.0, 1.0)
            block = max(2, size // 4)
            ey = int(rng.integers(0, size - block + 1))
            ex = int(rng.integers(0, size - block + 1))
            out[ey:ey + block, ex:ex + block] = rng.uniform(0.0, 1.0, (block, block, img.shape[2]))

        return out.astype(np.float32)


def perturb_image(aug: Augmenter, image, rng):
    """Two independently augmented views of one source image."""
    return aug(image, rng), aug(image, rng)


# ---------------------------------------------------------------------------
# loss


def _as_batch(x, name):
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(t.data)):
        raise ValueError(f"consistency_loss: non-finite values in {name}")
    if t.ndim == 1:
        t = ad.reshape(t, (1, t.shape[0]))
    if t.ndim != 2:
        raise ShapeError(f"consistency_loss: {name} must be 1-D or 2-D, got {t.shape}")
    return t


def _branch_term(criterion, frozen, tuned):
    if frozen.shape != tuned.shape:
        raise ShapeError(
            f"consistency_loss: frozen {frozen.shape} vs tuned {tuned.shape} shape mismatch")
    if criterion == "cosine":
        return 1.0 - ad.mean(ad.cosine_similarity(frozen, tuned, axis=-1))
    diff = frozen - tuned
    if criterion == "l1":
        return ad.mean(power_abs(diff))
    return ad.mean(diff * diff)


def power_abs(t):
    # |x| with sign-split backward; exact away from 0, subgradient 0 at 0
    return ad.relu(t) + ad.relu(ad.neg(t))


def consistency_loss(cfg: ConsistencyConfig, frozen_text, tuned_text,
                     frozen_image, tuned_image):
    """Distance between frozen and tuned embeddings, summed over modalities.

    Cosine: sum of (1 - cos) per selected branch, so both-modality values
    live in [0, 4] and single-modality in [0, 2]. L1/MSE: mean elementwise
    absolute/squared difference per branch, summed over branches. Gradients
    flow only through the tuned arguments.
    """
    terms = []
    if cfg.modality in ("text_only", "both"):
        terms.append(_branch_term(cfg.criterion,
                                  _as_batch(frozen_text, "frozen_text"),
                                  _as_batch(tuned_text, "tuned_text")))
    if cfg.modality in ("image_only", "both"):
        terms.append(_branch_term(cfg.criterion,
                                  _as_batch(frozen_image, "frozen_image"),
                                  _as_batch(tuned_image, "tuned_image")))
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total
