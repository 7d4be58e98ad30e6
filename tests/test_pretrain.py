"""Contrastive pre-training quality and behavior contracts."""

import math
import tracemalloc

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import Tensor
from coprompt.datasets import build_family_manifest, generate_dataset
from coprompt.encoders import (
    DualEncoder,
    EncoderConfig,
    Tokenizer,
    build_pretrain_split,
    contrastive_pretrain,
    retrieval_accuracy,
)

from helpers import clone_frozen, weight_digest


def test_pretrain_rejects_bad_inputs(tmp_path):
    manifest = build_family_manifest("t", ("crimson",), seed=0, split_counts=(2, 1, 1),
                                     base_count=2)
    ds = generate_dataset(manifest, str(tmp_path / "t"))
    tok = Tokenizer.from_manifests([manifest])
    enc = DualEncoder(EncoderConfig(layers=1, width=16, heads=2, embed_dim=8), tok)
    split = build_pretrain_split([ds], tok, 16)
    frozen = clone_frozen(enc)
    with pytest.raises(ValueError, match="frozen"):
        contrastive_pretrain(frozen, split)
    empty = build_pretrain_split([ds], tok, 16)
    empty.images = []
    with pytest.raises(ValueError, match="empty"):
        contrastive_pretrain(enc, empty)


def test_identical_pairs_loss_is_log_batch():
    """All-identical similarity rows give the uniform-softmax loss."""
    b = 6
    logits = Tensor(np.zeros((b, b)))
    labels = np.arange(b)
    ce = ad.cross_entropy_from_logits(logits, labels)
    assert ce.item() == pytest.approx(math.log(b), abs=1e-12)


def test_large_tau_drives_loss_to_log_batch(tmp_path):
    manifest = build_family_manifest("t2", ("crimson", "azure"), seed=1,
                                     split_counts=(2, 1, 0), base_count=4)
    ds = generate_dataset(manifest, str(tmp_path / "t2"))
    tok = Tokenizer.from_manifests([manifest])
    enc = DualEncoder(EncoderConfig(layers=1, width=16, heads=2, embed_dim=8), tok)
    enc.weights["log_tau"].data = np.asarray(np.log(100.0))
    split = build_pretrain_split([ds], tok, 16)
    b = 8
    with ad.no_grad():
        img = np.concatenate([enc.encode_image(pixels[None]).data for pixels in split.images[:b]])
        txt = np.concatenate([enc.encode_text([split.captions[c][0]]).data
                              for c in split.classes[:b]])
    logits = Tensor(img @ txt.T / enc.tau)
    ce = ad.cross_entropy_from_logits(logits, np.arange(b))
    assert ce.item() == pytest.approx(math.log(b), abs=5e-3)


def test_eight_class_retrieval_beats_twice_chance(tmp_path):
    """200 pre-training steps on an 8-class set: retrieval > 2x chance."""
    manifest = build_family_manifest("retr8", ("crimson", "azure"), seed=5,
                                     split_counts=(8, 3, 0), base_count=8)
    assert len(manifest.classes) == 8
    ds = generate_dataset(manifest, str(tmp_path / "retr8"))
    tok = Tokenizer.from_manifests([manifest])
    split = build_pretrain_split([ds], tok, 16)
    enc = DualEncoder(EncoderConfig(), tok, seed=0)
    # stratified batches of 8 over 64 examples: 8 steps/epoch, 25 epochs = 200 steps
    enc, hist = contrastive_pretrain(enc, split, epochs=25, lr=0.08, batch_size=8, seed=0)
    assert len(hist["loss"]) == 200
    assert hist["retrieval_accuracy"] > 2.0 / 8.0


def test_pretrain_steps_do_not_hold_each_others_graphs(tmp_path):
    """A step's graph and gradients are freed before the next step's
    forward, so three steps peak no higher than one (within 10%)."""
    manifest = build_family_manifest("mem8", ("crimson", "azure"), seed=5,
                                     split_counts=(1, 0, 0), base_count=8)
    tok = Tokenizer.from_manifests([manifest])
    split = build_pretrain_split([generate_dataset(manifest, str(tmp_path / "mem8"))],
                                 tok, 16)
    assert len(split.images) == 8  # batch 8: one epoch is one step

    def peak(epochs):
        enc = DualEncoder(EncoderConfig(), tok, seed=0)
        tracemalloc.start()
        try:
            contrastive_pretrain(enc, split, epochs=epochs, batch_size=8, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) <= 1.1 * peak(1)


def test_backward_peak_is_the_memory_its_graph_holds(tmp_path):
    """The sweep frees each op's saved arrays as it passes the op, so a
    contrastive loss's backward peaks within 5% of what its graph holds
    when the sweep starts, although the leaf gradients are new."""
    manifest = build_family_manifest("mem32", ("crimson", "azure"), seed=5,
                                     split_counts=(4, 0, 0), base_count=8)
    tok = Tokenizer.from_manifests([manifest])
    split = build_pretrain_split([generate_dataset(manifest, str(tmp_path / "mem32"))],
                                 tok, 16)
    assert len(split.images) == 32
    enc = DualEncoder(EncoderConfig(layers=2, width=32, heads=2, embed_dim=16), tok, seed=0)
    labels = np.arange(32)
    tracemalloc.start()
    try:
        img = enc.encode_image(split.images)
        txt = enc.encode_text([split.captions[c % 8][0] for c in labels])
        logits = ad.matmul(img, ad.transpose(txt, (1, 0))) / ad.exp(enc.weights["log_tau"])
        loss = 0.5 * (ad.cross_entropy_from_logits(logits, labels)
                      + ad.cross_entropy_from_logits(ad.transpose(logits, (1, 0)), labels))
        del img, txt, logits
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * held


# -- session backbone (CLI-default pre-training) --------------------------------


def test_default_pretrain_within_budget(pretrain_metrics):
    assert pretrain_metrics["runtime_seconds"] < 300.0


def test_default_pretrain_retrieval_above_chance(pretrain_metrics):
    assert pretrain_metrics["retrieval_accuracy"] > 2 * pretrain_metrics["chance"]


def test_default_pretrain_tau_in_clamp(pretrain_metrics):
    assert 0.01 <= pretrain_metrics["tau"] <= 100.0


def test_smoothed_loss_decreases_over_first_100_steps(pretrain_losses):
    """Window-10 means over the first 100 steps, strictly decreasing.

    Deterministic under the default seed; regression-locked by calibration.
    """
    assert len(pretrain_losses) >= 100
    decades = [np.mean(pretrain_losses[i:i + 10]) for i in range(0, 100, 10)]
    for a, b in zip(decades, decades[1:]):
        assert b < a, f"smoothed loss rose: {a:.4f} -> {b:.4f}"


def test_frozen_backbone_is_frozen(backbone, source):
    before = weight_digest(backbone)
    with ad.no_grad():
        backbone.encode_image(source.pixels[:1])
    assert weight_digest(backbone) == before
    assert backbone.frozen
