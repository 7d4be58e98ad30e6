"""Perturbations and the consistency loss family."""

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import ShapeError, Tensor
from coprompt.consistency import (
    Augmenter,
    ConsistencyConfig,
    consistency_loss,
    perturb_image,
    perturb_text,
)
from coprompt.datasets import ClassSpec
from coprompt.encoders import Tokenizer, class_sentences

from helpers import assert_grads_match


TIGER_TOKENIZER = Tokenizer(["photo", "tiger", "bold", "striped", "cat", "big"])


@pytest.fixture(scope="module")
def tiger():
    """The tiger's template and two descriptions, as `class_sentences` gives them."""
    cls = ClassSpec(0, "tiger", {}, ["a bold striped cat", "a big striped cat"])
    return class_sentences(TIGER_TOKENIZER, cls, text_len=16)


def _unit(rng, n=8):
    """One unit-norm embedding as a (1, n) batch."""
    v = rng.normal(size=(1, n))
    return v / np.linalg.norm(v)


# -- config --------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = ConsistencyConfig()
    assert (cfg.criterion, cfg.modality, cfg.perturb_text, cfg.perturb_image,
            cfg.enabled) == ("cosine", "both", True, "simple", True)
    with pytest.raises(ValueError, match="criterion"):
        ConsistencyConfig(criterion="l2")
    with pytest.raises(ValueError, match="modality"):
        ConsistencyConfig(modality="audio")
    with pytest.raises(ValueError, match="unknown consistency"):
        ConsistencyConfig.from_dict({"criterion": "mse", "typo": 1})


# -- text perturbation ------------------------------------------------------------


def test_perturb_text_template_path(tiger):
    toks = perturb_text(tiger, np.random.default_rng(0), descriptive=False)
    assert toks == tuple(TIGER_TOKENIZER.encode("a photo of a tiger"))


def test_perturb_text_single_description_deterministic():
    tok = Tokenizer(["photo", "dog", "good"])
    single = class_sentences(tok, ClassSpec(0, "dog", {}, ["a good dog"]), text_len=16)
    rng = np.random.default_rng(1)
    draws = {perturb_text(single, rng) for _ in range(10)}
    assert draws == {tuple(tok.encode("a good dog"))}


def test_perturb_text_uniform_sampling(tiger):
    # frequency over 10^4 draws within binomial 3 sigma of uniform
    rng = np.random.default_rng(2)
    n = 10_000
    counts = {}
    for _ in range(n):
        toks = perturb_text(tiger, rng)
        counts[toks] = counts.get(toks, 0) + 1
    assert set(counts) == set(tiger[1:])
    p = 0.5
    bound = 3 * np.sqrt(n * p * (1 - p))
    for c in counts.values():
        assert abs(c - n * p) <= bound


def test_description_length_validation():
    tok = Tokenizer(["x", "very", "long", "words"])
    with pytest.raises(ValueError, match="'x'.*text_len 8"):
        class_sentences(tok, ClassSpec(0, "x", {}, ["very " * 20 + "long"]), text_len=8)


# -- image perturbation ------------------------------------------------------------


def _image(seed=0):
    return np.random.default_rng(seed).uniform(0.2, 0.8, (32, 32, 3)).astype(np.float32)


def test_perturb_image_none_is_identity():
    img = _image()
    a, b = perturb_image(Augmenter("none"), img, np.random.default_rng(0))
    assert np.array_equal(a, img) and np.array_equal(b, img)


def test_perturb_image_seed_reproducible():
    img = _image(1)
    aug = Augmenter("simple")
    a1, b1 = perturb_image(aug, img, np.random.default_rng(7))
    a2, b2 = perturb_image(aug, img, np.random.default_rng(7))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)  # two independent draws


def test_simple_preserves_value_range():
    rng = np.random.default_rng(3)
    aug = Augmenter("simple")
    for seed in range(25):
        img = _image(seed)
        out = aug(img, rng)
        assert out.shape == img.shape
        assert out.min() >= img.min() - 1e-7
        assert out.max() <= img.max() + 1e-7


def test_hard_is_stronger_than_simple():
    # hard views deviate more from the source on average (measured property)
    rng_s = np.random.default_rng(4)
    rng_h = np.random.default_rng(4)
    img = _image(5)
    simple = np.mean([np.abs(Augmenter("simple")(img, rng_s) - img).mean()
                      for _ in range(30)])
    hard = np.mean([np.abs(Augmenter("hard")(img, rng_h) - img).mean()
                    for _ in range(30)])
    assert hard > simple


def test_augmenter_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        Augmenter("extreme")


# -- consistency loss ----------------------------------------------------------------


def test_loss_zero_at_perfect_agreement():
    rng = np.random.default_rng(6)
    t, i = _unit(rng), _unit(rng)
    cfg = ConsistencyConfig()
    loss = consistency_loss(cfg, t, Tensor(t.copy()), i, Tensor(i.copy()))
    assert loss.item() == pytest.approx(0.0, abs=1e-10)


def test_loss_four_at_antipodal():
    rng = np.random.default_rng(7)
    t, i = _unit(rng), _unit(rng)
    cfg = ConsistencyConfig()
    loss = consistency_loss(cfg, t, Tensor(-t), i, Tensor(-i))
    assert loss.item() == pytest.approx(4.0, abs=1e-10)


def test_loss_orthogonal_text_identical_image():
    t = np.array([[1.0, 0, 0, 0]])
    t_orth = np.array([[0.0, 1, 0, 0]])
    i = np.array([[0.0, 0, 1, 0]])
    cfg = ConsistencyConfig()
    loss = consistency_loss(cfg, t, Tensor(t_orth), i, Tensor(i.copy()))
    assert loss.item() == pytest.approx(1.0, abs=1e-10)


def test_l1_mse_match_scalar_oracle():
    rng = np.random.default_rng(8)
    ft, tt, fi, ti = (_unit(rng) for _ in range(4))
    l1 = consistency_loss(ConsistencyConfig(criterion="l1"),
                          ft, Tensor(tt), fi, Tensor(ti)).item()
    expect_l1 = np.abs(ft - tt).mean() + np.abs(fi - ti).mean()
    assert l1 == pytest.approx(expect_l1, abs=1e-12)

    mse = consistency_loss(ConsistencyConfig(criterion="mse"),
                           ft, Tensor(tt), fi, Tensor(ti)).item()
    expect_mse = ((ft - tt) ** 2).mean() + ((fi - ti) ** 2).mean()
    assert mse == pytest.approx(expect_mse, abs=1e-12)


def test_modality_selection():
    rng = np.random.default_rng(9)
    ft, tt, fi, ti = (_unit(rng) for _ in range(4))
    both = consistency_loss(ConsistencyConfig(modality="both"), ft, Tensor(tt), fi, Tensor(ti)).item()
    text = consistency_loss(ConsistencyConfig(modality="text_only"), ft, Tensor(tt), fi, Tensor(ti)).item()
    image = consistency_loss(ConsistencyConfig(modality="image_only"), ft, Tensor(tt), fi, Tensor(ti)).item()
    assert both == pytest.approx(text + image, abs=1e-12)
    assert 0 <= text <= 2 and 0 <= image <= 2


def test_loss_bounds_random_draws():
    rng = np.random.default_rng(10)
    cfg = ConsistencyConfig()
    single = ConsistencyConfig(modality="text_only")
    for _ in range(500):
        ft, tt, fi, ti = (_unit(rng) for _ in range(4))
        v = consistency_loss(cfg, ft, Tensor(tt), fi, Tensor(ti)).item()
        assert -1e-12 <= v <= 4.0 + 1e-12
        s = consistency_loss(single, ft, Tensor(tt), fi, Tensor(ti)).item()
        assert -1e-12 <= s <= 2.0 + 1e-12


def test_loss_symmetric_in_value_grads_only_tuned():
    rng = np.random.default_rng(11)
    for criterion in ("cosine", "l1", "mse"):
        cfg = ConsistencyConfig(criterion=criterion)
        ft, tt, fi, ti = (_unit(rng) for _ in range(4))
        a = consistency_loss(cfg, ft, Tensor(tt), fi, Tensor(ti)).item()
        b = consistency_loss(cfg, tt, Tensor(ft), ti, Tensor(fi)).item()
        assert a == pytest.approx(b, abs=1e-12)

        tuned_t, tuned_i = Tensor(tt, requires_grad=True), Tensor(ti, requires_grad=True)
        loss = consistency_loss(cfg, ft, tuned_t, fi, tuned_i)
        ad.backward(loss)
        assert tuned_t.grad is not None and tuned_i.grad is not None


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for criterion in ("cosine", "l1", "mse"):
        cfg = ConsistencyConfig(criterion=criterion)
        ft, fi = _unit(rng), _unit(rng)
        tt, ti = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        assert_grads_match(
            lambda ts: consistency_loss(cfg, ft, ts[0], fi, ts[1]), [tt, ti])


def test_loss_errors():
    rng = np.random.default_rng(13)
    t = _unit(rng)
    cfg = ConsistencyConfig()
    with pytest.raises(ShapeError):
        consistency_loss(cfg, t, Tensor(np.zeros((1, 4))), t, Tensor(t))
    with pytest.raises(ValueError, match="non-finite"):
        consistency_loss(cfg, t * np.nan, Tensor(t), t, Tensor(t))
