"""Prompt sets, couplers, adapters, and the trainable-parameter inventory."""

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import ShapeError, Tensor
from coprompt.encoders import DualEncoder, EncoderConfig, Tokenizer
from coprompt.tuning import (
    Adapter,
    PromptSet,
    apply_adapter,
    make_adapters,
    trainable_parameters,
)

from helpers import assert_grads_match


def _unit(rng, n=32):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


# -- adapters -------------------------------------------------------------------


def test_adapter_identity_at_init():
    rng = np.random.default_rng(0)
    a = Adapter(32, n_layers=2, rng=np.random.default_rng(1))
    for _ in range(10):
        x = _unit(rng)
        out = apply_adapter(a, Tensor(x)).data
        assert np.linalg.norm(out - x) <= 1e-6 * np.linalg.norm(x)
        cos = float(np.dot(out, x))
        assert cos >= 1.0 - 1e-9


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_adapter_identity_at_init_all_depths(n_layers):
    rng = np.random.default_rng(2)
    a = Adapter(32, n_layers=n_layers, rng=np.random.default_rng(3))
    x = _unit(rng)
    out = apply_adapter(a, Tensor(x)).data
    assert np.linalg.norm(out - x) <= 1e-6


def test_adapter_zero_input_zero_prenorm_output():
    a = Adapter(32, n_layers=2, rng=np.random.default_rng(4))
    out = apply_adapter(a, Tensor(np.zeros(32))).data
    assert np.all(out == 0.0)


def test_adapter_matches_matrix_oracle():
    # independent plain-numpy reimplementation
    rng = np.random.default_rng(5)
    a = Adapter(32, n_layers=2, rng=np.random.default_rng(6))
    for w in a.ws:
        w.data = rng.normal(0, 0.3, w.data.shape)
    for b in a.bs:
        b.data = rng.normal(0, 0.1, b.data.shape)
    e = rng.normal(size=32)
    out = apply_adapter(a, Tensor(e)).data

    h = np.maximum(e @ a.ws[0].data + a.bs[0].data, 0.0)
    h = h @ a.ws[1].data + a.bs[1].data
    expect = e + h
    expect = expect / np.sqrt((expect ** 2).sum() + 1e-12)
    assert np.allclose(out, expect, atol=1e-12)


def test_adapter_dimension_error():
    a = Adapter(32, rng=np.random.default_rng(7))
    with pytest.raises(ShapeError, match="dim"):
        apply_adapter(a, Tensor(np.zeros(16)))


def test_adapter_invalid_layers():
    with pytest.raises(ValueError, match="1-3"):
        Adapter(32, n_layers=4)


def test_adapter_gradcheck():
    rng = np.random.default_rng(8)
    a = Adapter(8, n_layers=2, bottleneck=4, rng=np.random.default_rng(9))
    w0 = rng.normal(0, 0.3, (8, 4))
    w1 = rng.normal(0, 0.3, (4, 8))
    e = rng.normal(size=8)
    r = rng.normal(size=8)

    def build(ts):
        a.ws[0], a.ws[1] = ts[0], ts[1]
        return (a.apply(ts[2]) * Tensor(r)).sum()

    assert_grads_match(build, [w0, w1, e])


# -- prompt sets -----------------------------------------------------------------


def test_vision_prompts_are_coupled():
    ps = PromptSet(width=16, layers=3, m=2, rng=np.random.default_rng(10))
    vision = ps.vision_prompts()
    for j in range(3):
        expect = ps.text_prompts[j].data @ ps.coupler_w[j].data + ps.coupler_b[j].data
        assert np.allclose(vision[j].data, expect, atol=1e-12)


def test_vision_prompts_never_stale():
    ps = PromptSet(width=16, layers=2, m=1, rng=np.random.default_rng(11))
    v1 = ps.vision_prompts()[0].data.copy()
    ps.text_prompts[0].data = ps.text_prompts[0].data + 1.0
    v2 = ps.vision_prompts()[0].data
    assert not np.array_equal(v1, v2)


def test_depth_validation():
    with pytest.raises(ValueError, match="depth"):
        PromptSet(width=8, layers=2, m=1, depth=3)


def test_schedules_empty_for_m0():
    ps = PromptSet(width=8, layers=2, m=0, rng=np.random.default_rng(12))
    assert ps.schedules() == (None, None)
    assert ps.text_schedule() is None


def test_gradient_flows_into_text_prompts_through_coupler():
    """Image-branch loss must reach the text prompts via the coupler."""
    tok = Tokenizer(["photo"])
    enc = DualEncoder(EncoderConfig(layers=2, width=16, heads=2, embed_dim=8,
                                    text_len=8), tok, seed=1).clone_frozen()
    ps = PromptSet(width=16, layers=2, m=2, rng=np.random.default_rng(13))
    img = np.random.default_rng(14).uniform(0, 1, (32, 32, 3))

    _, vision_sched = ps.schedules()
    emb = enc.encode_image(img, prompts=vision_sched)
    loss = (emb * emb).sum()
    ad.backward(loss)
    grad = ps.text_prompts[0].grad
    assert grad is not None and np.abs(grad).max() > 0

    # finite-difference on one coupler weight
    def f(w00):
        ps.coupler_w[0].data[0, 0] = w00
        _, vs = ps.schedules()
        with ad.no_grad():
            e = enc.encode_image(img, prompts=vs)
            return float((e.data ** 2).sum())

    w0 = float(ps.coupler_w[0].data[0, 0])
    cg = ps.coupler_w[0].grad[0, 0]
    h = 1e-5
    fd = (f(w0 + h) - f(w0 - h)) / (2 * h)
    ps.coupler_w[0].data[0, 0] = w0
    assert abs(cg - fd) <= 1e-6 * max(1.0, abs(cg), abs(fd))


# -- trainable parameter inventory --------------------------------------------------


def test_trainable_parameter_count_closed_form():
    width, layers, m, embed = 64, 4, 2, 32
    ps = PromptSet(width=width, layers=layers, m=m, rng=np.random.default_rng(15))
    adapters = make_adapters(embed, "both", n_layers=2, rng=np.random.default_rng(16))
    items = trainable_parameters(ps, adapters)
    total = sum(t.data.size for _, t in items)
    bottleneck = embed // 4
    expect_prompts = layers * m * width
    expect_couplers = layers * (width * width + width)
    expect_adapters = 2 * (embed * bottleneck + bottleneck + bottleneck * embed + embed)
    assert total == expect_prompts + expect_couplers + expect_adapters


def test_adapters_disabled_not_in_inventory():
    ps = PromptSet(width=8, layers=2, m=1, rng=np.random.default_rng(17))
    items = trainable_parameters(ps, make_adapters(8, "none"))
    assert all(not name.startswith("adapter.") for name, _ in items)
    text_only = trainable_parameters(ps, make_adapters(8, "text"))
    assert any(name.startswith("adapter.text") for name, _ in text_only)
    assert all(not name.startswith("adapter.image") for name, _ in text_only)


def test_encoder_weights_never_in_inventory():
    ps = PromptSet(width=8, layers=2, m=1)
    items = trainable_parameters(ps, make_adapters(8, "both"))
    names = {name for name, _ in items}
    assert all(name.startswith(("prompt.", "adapter.")) for name in names)
