"""Prediction and the three evaluation harnesses.

Prediction classifies an image by softmax over cosine similarities between
its embedding and per-class text embeddings, scaled by 1/tau. A raw frozen
backbone predicts through the plain template sentences; a tuned model runs
prompts and adapters on both branches. Harnesses: base-to-novel (with
harmonic mean), cross-dataset transfer, and domain-shifted variants.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from . import autodiff as ad
from .datasets import Dataset, DatasetError
from .encoders import DualEncoder, template_tokens
from .training import TunedModel
from .tuning import PromptSet


def _as_model(model):
    """A raw backbone becomes a TunedModel with no prompts and no adapters."""
    if isinstance(model, DualEncoder):
        cfg = model.config
        return TunedModel(model, PromptSet(cfg.width, cfg.layers, m=0, depth=0),
                          {"text": None, "image": None})
    if all(hasattr(model, a) for a in ("text_embedding", "image_embedding", "tau", "tokenizer")):
        return model
    raise TypeError(f"cannot evaluate object of type {type(model).__name__}")


def _class_matrix(model, class_names):
    """(C, E) text embeddings of the class template sentences, one batch."""
    tokens = [tuple(template_tokens(model.tokenizer, name)) for name in class_names]
    return model.text_embedding(tokens).data


# (backbone, tuned-parameter digest, class names, class matrix) of the last
# `predict`; holding the backbone keeps the `is` test from matching a new
# object at a recycled address
_predict_memo = None


def _predict_class_matrix(model, class_names):
    """`_class_matrix`, reused while the frozen backbone, the bytes of the
    tuned parameters and the class names stay the same."""
    global _predict_memo
    if not (isinstance(model, TunedModel) and model.backbone.frozen):
        return _class_matrix(model, class_names)
    h = hashlib.sha256()
    for name, t in model.params:
        h.update(f"{name}{t.data.shape}".encode())
        h.update(t.data.tobytes())
    key = (h.digest(), tuple(class_names))
    if _predict_memo is None or _predict_memo[0] is not model.backbone \
            or _predict_memo[1:3] != key:
        _predict_memo = (model.backbone, *key, _class_matrix(model, class_names))
    return _predict_memo[3]


def predict(model, image, class_names):
    """(argmax class index, probability vector) for one (H, W, C) image.

    The single-image entry point: the image runs as a batch of one.
    Probabilities are softmax(similarities / tau); ties break to the lowest
    class index.
    """
    if not class_names:
        raise ValueError("predict: empty class set")
    model = _as_model(model)
    with ad.no_grad():
        class_embs = _predict_class_matrix(model, class_names)
        emb = model.image_embedding(np.asarray(image)[None]).data[0]
    logits = (class_embs @ emb) / model.tau
    z = np.exp(logits - logits.max())
    probs = z / z.sum()
    return int(np.argmax(logits)), probs


def harmonic_mean(base, novel):
    """2ab/(a+b); defined as 0 (with a warning) when both inputs are zero."""
    if base < 0 or novel < 0:
        raise ValueError(f"harmonic_mean: negative inputs ({base}, {novel})")
    if base == 0 and novel == 0:
        warnings.warn("harmonic_mean of (0, 0) defined as 0")
        return 0.0
    return 2.0 * base * novel / (base + novel)


def _pool_accuracy(model, dataset: Dataset, class_ids, pool="test"):
    """Accuracy over a pool, predicting within the given class id set.

    Returns (accuracy %, per-class dict). The class text embeddings and the
    pool's image rows are each encoded in one call; prediction is argmax
    over similarity, identical to `predict`. A pool with no image is a
    `DatasetError`, raised before anything is encoded.
    """
    model = _as_model(model)
    names = [dataset.manifest.classes[cid].name for cid in class_ids]
    samples = dataset.pool(class_ids, pool)
    if not samples:
        raise DatasetError(f"{dataset.directory}: no image to score in the {pool!r} pool "
                           f"({len(class_ids)} classes, {getattr(dataset.manifest.split, pool)} "
                           "images per class)")
    with ad.no_grad():
        class_embs = _class_matrix(model, names)
        embs = model.image_embedding([pixels for pixels, _ in samples]).data
    predicted = np.argmax((embs @ class_embs.T) / model.tau, axis=1)
    position = {cid: pos for pos, cid in enumerate(class_ids)}
    truth = np.asarray([position[cid] for _, cid in samples])
    hits = predicted == truth
    per_class = {name: 100.0 * int(hits[truth == pos].sum()) / int((truth == pos).sum())
                 for pos, name in enumerate(names)}
    overall = 100.0 * int(hits.sum()) / len(samples)
    return overall, per_class


def base_to_novel_eval(model, dataset: Dataset):
    """Accuracy on held-out base images and on novel images, plus HM, as
    the `report.json` object."""
    split = dataset.manifest.split
    if set(split.base) & set(split.novel):
        raise DatasetError("base and novel class sets overlap")
    base_acc, base_pc = _pool_accuracy(model, dataset, split.base)
    novel_acc, novel_pc = _pool_accuracy(model, dataset, split.novel)
    return {"base_acc": base_acc, "novel_acc": novel_acc,
            "hm": harmonic_mean(base_acc, novel_acc),
            "per_class": {**base_pc, **novel_pc},
            "split_ids": {"dataset": dataset.manifest.name,
                          "base": list(split.base), "novel": list(split.novel)}}


def _score_each(model, datasets, same_classes=False):
    """[(name, accuracy)]: each dataset scored over its full class set on the
    test pool. `datasets` may be any iterable. No dataset is held past its
    turn, so a generator that loads each in turn has one mapped while
    scoring."""
    rows, first_names = [], None
    for ds in datasets:
        names = ds.manifest.class_names
        first_names = first_names or names
        if same_classes and names != first_names:
            raise DatasetError(f"variant {ds.manifest.name!r} has a different class set")
        acc, _ = _pool_accuracy(model, ds, [c.id for c in ds.manifest.classes])
        rows.append((ds.manifest.name, acc))
    return rows


def _average(rows):
    return float(np.mean([acc for _, acc in rows])) if rows else None


def cross_dataset_eval(model, datasets):
    """The source's accuracy, then zero-shot accuracy per target family and
    the targets' average. `datasets` is the source followed by the targets
    (see `_score_each`)."""
    (name, accuracy), *targets = _score_each(model, datasets)
    return {"source": {"name": name, "accuracy": accuracy},
            "rows": targets, "average": _average(targets)}


def domain_gen_eval(model, variants):
    """Accuracy per shifted variant plus the average; variants must share
    the source class set (see `_score_each`)."""
    rows = _score_each(model, variants, same_classes=True)
    return {"rows": rows, "average": _average(rows)}
