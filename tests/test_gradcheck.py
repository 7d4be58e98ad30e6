"""Every differentiable op against central finite differences.

Each op is exercised on >= 20 random small instances; non-scalar outputs
are reduced through a fixed random linear functional so the check stays a
scalar-to-scalar comparison.
"""

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import Tensor

from helpers import assert_grads_match

N_INSTANCES = 20


def _rngs():
    return [np.random.default_rng(1000 + i) for i in range(N_INSTANCES)]


@pytest.mark.parametrize("rng", _rngs())
def test_grad_add_mul_div_broadcast(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    r = rng.normal(size=(3, 4))
    assert_grads_match(lambda ts: ((ts[0] + ts[1]) * (ts[0] * ts[1]) * Tensor(r)).sum(),
                       [a, b + 2.5])
    assert_grads_match(lambda ts: ((ts[0] / ts[1]) * Tensor(r)).sum(), [a, b + 3.0])


@pytest.mark.parametrize("rng", _rngs())
def test_grad_matmul(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    r = rng.normal(size=(3, 2))
    assert_grads_match(lambda ts: (ad.matmul(ts[0], ts[1]) * Tensor(r)).sum(), [a, b])
    # batched with broadcast right operand
    a3 = rng.normal(size=(2, 3, 4))
    r3 = rng.normal(size=(2, 3, 2))
    assert_grads_match(lambda ts: (ad.matmul(ts[0], ts[1]) * Tensor(r3)).sum(), [a3, b])
    # a fused bias: its gradient sums over every leading axis
    bias = rng.normal(size=2)
    assert_grads_match(lambda ts: (ad.matmul(ts[0], ts[1], bias=ts[2]) * Tensor(r)).sum(),
                       [a, b, bias])
    assert_grads_match(lambda ts: (ad.matmul(ts[0], ts[1], bias=ts[2]) * Tensor(r3)).sum(),
                       [a3, b, bias])
    # a bias that needs no gradient gets none
    const = Tensor(bias)
    assert_grads_match(lambda ts: (ad.matmul(ts[0], ts[1], bias=const) * Tensor(r3)).sum(),
                       [a3, b])
    assert const.grad is None


@pytest.mark.parametrize("rng", _rngs())
def test_grad_one_operand_needs_grad(rng):
    # a recorded op keeps only the operand data the other's gradient reads
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 5))
    r = rng.normal(size=(2, 3, 5))
    frozen, patches = Tensor(w), Tensor(x)
    for act in (lambda t: t, ad.gelu, ad.relu):
        # a frozen weight, as in fine-tuning
        assert_grads_match(lambda ts: (act(ad.matmul(ts[0], frozen)) * Tensor(r)).sum(), [x])
        # a constant left operand, as in the patch embedding
        assert_grads_match(lambda ts: (act(ad.matmul(patches, ts[0])) * Tensor(r)).sum(), [w])
    assert frozen.grad is None and patches.grad is None
    b = rng.uniform(0.5, 2.0, size=4)
    divisor, dividend = Tensor(b), Tensor(x)
    assert_grads_match(lambda ts: ((ts[0] / divisor) * Tensor(x)).sum(), [x])
    assert_grads_match(lambda ts: ((dividend / ts[0]) * Tensor(x)).sum(), [b])
    assert divisor.grad is None and dividend.grad is None


@pytest.mark.parametrize("rng", _rngs())
def test_grad_layernorm_gain_shift(rng):
    a = rng.normal(size=(2, 3, 6)) * 2
    gamma = rng.normal(size=6)
    beta = rng.normal(size=6)
    r = rng.normal(size=(2, 3, 6))
    assert_grads_match(lambda ts: (ad.layernorm(ts[0], ts[1], ts[2]) * Tensor(r)).sum(),
                       [a, gamma, beta])
    assert_grads_match(lambda ts: (ad.layernorm(ts[0], gamma=ts[1]) * Tensor(r)).sum(),
                       [a, gamma])
    assert_grads_match(lambda ts: (ad.layernorm(ts[0], beta=ts[1]) * Tensor(r)).sum(),
                       [a, beta])
    # a frozen gain and shift, as in a frozen encoder
    g_const, b_const = Tensor(gamma), Tensor(beta)
    assert_grads_match(lambda ts: (ad.layernorm(ts[0], g_const, b_const) * Tensor(r)).sum(), [a])
    assert g_const.grad is None and b_const.grad is None


@pytest.mark.parametrize("rng", _rngs())
def test_grad_reductions_and_shapes(rng):
    a = rng.normal(size=(3, 5))
    r = rng.normal(size=(3, 1))
    r0 = rng.normal(size=5)
    assert_grads_match(lambda ts: (ts[0].sum(axis=1, keepdims=True) * Tensor(r)).sum(), [a])
    assert_grads_match(lambda ts: (ts[0].mean(axis=0) * Tensor(r0)).sum(), [a])
    assert_grads_match(lambda ts: ts[0].mean(), [a])
    assert_grads_match(
        lambda ts: (ad.transpose(ad.reshape(ts[0], (5, 3)), (1, 0)) * Tensor(a)).sum(), [a])
    # mean over a tuple of axes, and a broadcast over a new batch axis
    a3 = rng.normal(size=(2, 3, 4))
    r3 = rng.normal(size=3)
    assert_grads_match(lambda ts: (ad.mean(ts[0], axis=(0, 2)) * Tensor(r3)).sum(), [a3])
    rb = rng.normal(size=(2, 3, 5))
    assert_grads_match(lambda ts: (ad.broadcast_to(ts[0], (2, 3, 5)) * Tensor(rb)).sum(), [a])


@pytest.mark.parametrize("rng", _rngs())
def test_grad_concat_slice(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 3))
    r = rng.normal(size=(6, 3))
    assert_grads_match(lambda ts: (ad.concat(ts, axis=0) * Tensor(r)).sum(), [a, b])
    r2 = rng.normal(size=(2, 2))
    assert_grads_match(lambda ts: (ad.slice_(ts[0], (slice(1, 3), slice(0, 2))) * Tensor(r2)).sum(),
                       [rng.normal(size=(4, 5))])
    # a gather that repeats rows must add each copy's gradient
    rows = np.array([0, 0, 2, 1, 0])
    r5 = rng.normal(size=(5, 5))
    assert_grads_match(lambda ts: (ad.slice_(ts[0], rows) * Tensor(r5)).sum(),
                       [rng.normal(size=(4, 5))])


@pytest.mark.parametrize("rng", _rngs())
def test_grad_activations(rng):
    # keep relu inputs away from the kink
    a = rng.normal(size=(3, 4))
    a = np.where(np.abs(a) < 0.05, a + 0.2, a)
    r = rng.normal(size=(3, 4))
    assert_grads_match(lambda ts: (ad.relu(ts[0]) * Tensor(r)).sum(), [a])
    assert_grads_match(lambda ts: (ad.gelu(ts[0]) * Tensor(r)).sum(), [a])
    assert_grads_match(lambda ts: (ad.exp(ts[0]) * Tensor(r)).sum(), [a])


@pytest.mark.parametrize("rng", _rngs())
def test_grad_softmax_layernorm_l2norm(rng):
    a = rng.normal(size=(3, 6)) * 2
    r = rng.normal(size=(3, 6))
    assert_grads_match(lambda ts: (ad.softmax(ts[0], axis=-1) * Tensor(r)).sum(), [a])
    assert_grads_match(lambda ts: (ad.layernorm(ts[0], axis=-1) * Tensor(r)).sum(), [a])
    assert_grads_match(lambda ts: (ad.l2_normalize(ts[0], axis=-1) * Tensor(r)).sum(), [a])


@pytest.mark.parametrize("rng", _rngs())
def test_grad_cosine_and_cross_entropy(rng):
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    assert_grads_match(lambda ts: ad.cosine_similarity(ts[0], ts[1]), [a, b])
    logits = (rng.normal(size=5) * 3)[None]
    assert_grads_match(lambda ts: ad.cross_entropy_from_logits(ts[0], np.asarray([2])), [logits])
    batched = rng.normal(size=(4, 5)) * 3
    labels = rng.integers(0, 5, size=4)
    assert_grads_match(lambda ts: ad.cross_entropy_from_logits(ts[0], labels), [batched])


@pytest.mark.parametrize("rng", _rngs())
def test_grad_embedding_lookup(rng):
    table = rng.normal(size=(6, 4))
    ids = rng.integers(0, 6, size=5)
    r = rng.normal(size=(5, 4))
    assert_grads_match(lambda ts: (ad.embedding_lookup(ts[0], ids) * Tensor(r)).sum(), [table])


@pytest.mark.parametrize("rng", _rngs())
def test_grad_shared_subexpressions(rng):
    # one node feeding several paths: total grad is the sum of path contributions
    a = rng.normal(size=(3, 3))

    def build(ts):
        y = ts[0] * 2.0
        z = ad.matmul(y, ad.transpose(y, (1, 0)))
        return z.sum() + (y * y).sum() + y.mean()

    assert_grads_match(build, [a])


def test_grad_composite_mixed_graph():
    # a deeper composite touching most op families at once
    rng = np.random.default_rng(77)
    a = rng.normal(size=(4, 6))
    w = rng.normal(size=(6, 6))

    def build(ts):
        x, wt = ts
        h = ad.layernorm(ad.matmul(x, wt))
        h = ad.gelu(h)
        s = ad.softmax(h, axis=-1)
        e = ad.l2_normalize(s.sum(axis=0))
        return ad.cosine_similarity(e, Tensor(np.ones(6))) + s.mean()

    assert_grads_match(build, [a, w])
