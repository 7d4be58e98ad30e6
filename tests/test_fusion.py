"""Fused graph nodes: the bias inside `matmul` and the gain/shift inside
`layernorm` compute exactly what the separate ops compute, and the graph a
block and a fine-tune step record stays at a pinned size."""

import tracemalloc

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import Tensor, backward
from coprompt.datasets import make_fewshot_split
from coprompt.encoders import DualEncoder, EncoderConfig, Tokenizer
from coprompt.training import TrainConfig, Trainer

# nodes one block records when its input requires a gradient
BLOCK_NODES = 23
COMPOSED_BLOCK_NODES = 32
# nodes one default fine-tune step records on the default suite's source
# (348 with separate bias and gain/shift nodes); the row selections of
# `encoders._rows` are 8 of them
TRAIN_STEP_NODES = 262
# rows the GELUs of that step take (832 when every block runs every row)
TRAIN_STEP_GELU_ROWS = 688


@pytest.fixture(scope="module")
def tok():
    return Tokenizer(["photo", "of", "zebra", "dots"])


def _composed_block(enc, branch, j, x):
    """`DualEncoder._block` with every bias add and layernorm gain/shift as
    an op of its own; a bias is added only where the weight exists."""
    w, cfg = enc.weights, enc.config
    p = f"{branch}.h{j}."

    def linear(h, weight, bias):
        y = ad.matmul(h, w[p + weight])
        return y + w[p + bias] if p + bias in w else y

    def norm(h, name):
        return ad.layernorm(h) * w[p + name + ".g"] + w[p + name + ".b"]

    b, s = x.shape[0], x.shape[1]
    heads, hd = cfg.heads, cfg.width // cfg.heads
    split = (b, s, heads, hd)
    h = norm(x, "ln1")
    q = ad.transpose(ad.reshape(linear(h, "attn.wq", "attn.bq"), split), (0, 2, 1, 3))
    k = ad.transpose(ad.reshape(linear(h, "attn.wk", "attn.bk"), split), (0, 2, 3, 1))
    v = ad.transpose(ad.reshape(linear(h, "attn.wv", "attn.bv"), split), (0, 2, 1, 3))
    att = ad.softmax(ad.matmul(q, k) * (1.0 / np.sqrt(hd)), axis=-1)
    o = ad.reshape(ad.transpose(ad.matmul(att, v), (0, 2, 1, 3)), (b, s, cfg.width))
    x = x + linear(o, "attn.wo", "attn.bo")
    h = ad.gelu(linear(norm(x, "ln2"), "mlp.w1", "mlp.b1"))
    return x + linear(h, "mlp.w2", "mlp.b2")


def _counted(fn):
    """(fn(), graph nodes it recorded)."""
    before = ad._seq_counter
    out = fn()
    return out, ad._seq_counter - before


def _block_run(enc, block, x0, r):
    """Output and every leaf gradient of one block under a fixed functional."""
    x = Tensor(x0, requires_grad=True)
    for t in enc.weights.values():
        t.grad = None
    out = block(enc, "img", 1, x)
    backward((out * Tensor(r)).sum())
    grads = {name: t.grad for name, t in enc.weights.items() if t.grad is not None}
    return out.data, x.grad, grads


@pytest.mark.parametrize("frozen", [False, True])
def test_fused_block_equals_composed_bitwise(tok, frozen):
    enc = DualEncoder(EncoderConfig(), tok, seed=4, frozen=frozen)
    rng = np.random.default_rng(8)
    # non-trivial gains and shifts, so a dropped term would show
    for name, t in enc.weights.items():
        if name.endswith((".g", ".b")) or ".attn.b" in name or ".mlp.b" in name:
            t.data = t.data + rng.normal(0.0, 0.1, t.shape)
    x0 = rng.normal(size=(3, 7, 64))
    r = rng.normal(size=(3, 7, 64))
    fused = _block_run(enc, DualEncoder._block, x0, r)
    composed = _block_run(enc, _composed_block, x0, r)
    assert np.array_equal(fused[0], composed[0])
    assert np.array_equal(fused[1], composed[1])
    assert sorted(fused[2]) == sorted(composed[2])
    assert len(fused[2]) == (0 if frozen else 15)
    for name in fused[2]:
        assert np.array_equal(fused[2][name], composed[2][name]), name


def test_block_node_count(tok):
    enc = DualEncoder(EncoderConfig(), tok, seed=0, frozen=True)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 64)), requires_grad=True)
    _, fused = _counted(lambda: enc._block("text", 0, x))
    _, composed = _counted(lambda: _composed_block(enc, "text", 0, x))
    assert (fused, composed) == (BLOCK_NODES, COMPOSED_BLOCK_NODES)


@pytest.mark.parametrize("frozen, most", [(False, 19.0), (True, 12.0)])
def test_block_graph_keeps_only_what_backward_reads(tok, frozen, most):
    """Bytes a recorded block holds, in units of its (8, 18, 64) input. The
    arrays its backward reads come to about 18.1 units: both layernorm outputs
    and normalized inputs, q, k, v, the attention weights and output, GELU's
    derivative and output, and the block's own output. With frozen weights the
    dense layers' inputs are not kept: about 11.1. Keeping every op's
    operands would hold 31.6 either way."""
    enc = DualEncoder(EncoderConfig(), tok, seed=0, frozen=frozen)
    x = Tensor(np.random.default_rng(0).normal(size=(8, 18, 64)), requires_grad=True)
    tracemalloc.start()
    try:
        out = enc._block("img", 0, x)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert retained <= most * x.data.nbytes


def test_train_step_node_count(source, monkeypatch):
    """A deterministic stand-in for step time: an edit that un-fuses a node
    fails here instead of silently slowing fine-tuning. The GELU rows pin
    the work: a block that runs rows nobody reads records fewer nodes, but
    it fails here too."""
    tok = Tokenizer.from_manifests([source.manifest])
    backbone = DualEncoder(EncoderConfig(), tok, seed=0, frozen=True)
    cfg = TrainConfig()
    trainer = Trainer(backbone, cfg, make_fewshot_split(source, cfg.shots, cfg.seed))
    gelu, rows = ad.gelu, []
    monkeypatch.setattr(ad, "gelu", lambda a: rows.append(a.data.size // a.shape[-1]) or gelu(a))
    _, nodes = _counted(trainer.train_step)
    assert (nodes, sum(rows)) == (TRAIN_STEP_NODES, TRAIN_STEP_GELU_ROWS)
