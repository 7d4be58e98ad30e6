"""Shared test oracles (central finite differences against analytic grads)
and helpers only tests call."""

import hashlib
import os

import numpy as np

import coprompt.autodiff as ad
from coprompt.autodiff import Tensor
from coprompt.encoders import SPECIALS, DualEncoder


def finite_diff_grad(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f(arrays) w.r.t. each array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(arrays)
            flat[i] = orig - h
            fm = f(arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    """Elementwise |a-b| / max(1, |a|, |b|): relative error with a unit floor."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def assert_grads_match(build, arrays, rtol=1e-6, h=1e-5):
    """Backward through `build` must match central finite differences.

    `build` maps a list of Tensors to a scalar Tensor and must be a pure
    function of its inputs.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(tensors)
    ad.backward(loss)
    analytic = [np.zeros_like(a) if t.grad is None else t.grad.copy()
                for a, t in zip(arrays, tensors)]

    def f(arrs):
        return build([Tensor(a) for a in arrs]).item()

    numeric = finite_diff_grad(f, [a.copy() for a in arrays], h=h)
    for an, nu in zip(analytic, numeric):
        worst = rel_err(an, nu).max() if an.size else 0.0
        assert worst < rtol, f"gradient mismatch: worst relative error {worst:.3e}"


def random_projection(rng, shape):
    """Fixed random linear functional to reduce a non-scalar op to a scalar."""
    return Tensor(rng.normal(size=shape))


def clone_frozen(enc):
    """A frozen encoder over copies of `enc`'s weights."""
    return DualEncoder._holding(enc.config, enc.tokenizer,
                                {name: Tensor(t.data) for name, t in enc.weights.items()})


def weight_digest(enc):
    """sha256 over `enc`'s float64 weight bytes. A "nothing moved" check
    needs it: the backbone's content hash narrows to float32 first, so it
    misses a change below float32 resolution."""
    return hashlib.sha256(b"".join(t.data.tobytes() for t in enc.weights.values())).hexdigest()


def decode(tokenizer, ids):
    """The words of token ids, specials dropped: `Tokenizer.encode` inverted."""
    inverse = {i: w for w, i in tokenizer.vocab.items()}
    return " ".join(inverse[i] for i in ids if i >= len(SPECIALS))


def nearest_centroid_accuracy(dataset, class_ids=None):
    """Pixel-space nearest-centroid accuracy: train centroids, test queries."""
    if class_ids is None:
        class_ids = [c.id for c in dataset.manifest.classes]
    flat = dataset.pixels.reshape(len(dataset.pixels), -1)
    centroids = np.stack([np.mean(flat[dataset.pool_indices(cid, "train")], axis=0)
                          for cid in class_ids])
    correct = total = 0
    for pos, cid in enumerate(class_ids):
        for i in dataset.pool_indices(cid, "test"):
            v = flat[i]
            pred = int(np.argmin(((centroids - v) ** 2).sum(axis=1)))
            correct += pred == pos
            total += 1
    return correct / total


def write_version_1_images(directory):
    """Rewrite a dataset's `images.bin` in the version-1 layout, which put a
    class id (u32) and a sample seed (u64) before each image."""
    path = os.path.join(directory, "images.bin")
    with open(path, "rb") as f:
        header, payload = f.read(12), f.read()
    pixels = np.frombuffer(payload, "<f4").reshape(-1, 32, 32, 3)
    rows = np.zeros(len(pixels), [("class_id", "<u4"), ("sample_seed", "<u8"),
                                  ("pixels", "<f4", (32, 32, 3))])
    rows["pixels"] = pixels
    with open(path, "wb") as f:
        f.write(header[:4] + np.asarray([1, len(rows)], "<u4").tobytes() + rows.tobytes())
