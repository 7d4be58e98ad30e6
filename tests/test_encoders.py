"""Tokenizer, encoder forward contracts, freezing, and backbone checkpoints."""

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import ShapeError, Tensor
from coprompt.checkpoints import CheckpointError
from coprompt.encoders import (
    DualEncoder,
    EncoderConfig,
    Tokenizer,
    VocabularyError,
    backbone_identity,
    load_backbone,
    save_backbone,
)

from helpers import clone_frozen, decode, weight_digest


@pytest.fixture(scope="module")
def tok():
    return Tokenizer(["photo", "of", "zebra", "dots", "stripes", "red"])


@pytest.fixture(scope="module")
def enc(tok):
    return DualEncoder(EncoderConfig(), tok, seed=123)


def _rand_image(seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (32, 32, 3))


# -- tokenizer -------------------------------------------------------------------


def test_tokenizer_roundtrip(tok):
    ids = tok.encode("a Zebra, of stripes!")
    assert ids[0] == 1 and ids[-1] == 2  # SOS/EOS
    assert decode(tok, ids) == "a zebra of stripes" or decode(tok, ids) == "zebra of stripes"


def test_tokenizer_roundtrip_in_vocab():
    tk = Tokenizer(["red", "dots"])
    assert decode(tk, tk.encode("red dots")) == "red dots"


def test_tokenizer_unknown_words(tok):
    ids = tok.encode("purple zebra")
    assert 3 in ids  # UNK
    with pytest.raises(VocabularyError, match="purple"):
        tok.encode("purple zebra", strict=True)


def test_tokenizer_deterministic_order():
    a = Tokenizer(["b", "a", "c"])
    b = Tokenizer(["c", "a", "b", "a"])
    assert a.vocab == b.vocab


# -- config ----------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ValueError, match="'heads' must divide width 64"):
        EncoderConfig(width=64, heads=5)
    with pytest.raises(ValueError, match="'patch_grid' must divide image_size 30"):
        EncoderConfig(image_size=30, patch_grid=4)
    cfg = EncoderConfig()
    assert cfg.num_patches == 16
    assert cfg.patch_dim == 8 * 8 * 3


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        EncoderConfig.from_dict({"layers": 4, "depth": 2})


# -- text encoding ----------------------------------------------------------------


def test_encode_text_deterministic_and_normed(enc, tok):
    ids = [tuple(tok.encode("a photo of zebra stripes"))]
    a = enc.encode_text(ids)
    b = enc.encode_text(ids)
    assert np.array_equal(a.data, b.data)
    assert abs(np.linalg.norm(a.data) - 1.0) <= 1e-12
    assert a.data.shape == (1, 32)


def test_encode_text_overlength(enc, tok):
    ids = [tuple(tok.encode(" ".join(["zebra"] * 20)))]
    with pytest.raises(ShapeError, match="text_len"):
        enc.encode_text(ids)


def test_encode_text_prompt_overlength(enc, tok):
    ids = [tuple(tok.encode(" ".join(["zebra"] * 13)))]  # 15 tokens with SOS/EOS
    prompts = [Tensor(np.zeros((2, 64)))] * 4
    with pytest.raises(ShapeError, match="prompts"):
        enc.encode_text(ids, prompts=prompts)


def test_zero_prompts_match_promptless_bitwise(enc, tok):
    ids = [tuple(tok.encode("a photo of dots"))]
    plain = enc.encode_text(ids)
    m0 = [Tensor(np.zeros((0, 64)))] * 4
    prompted = enc.encode_text(ids, prompts=m0)
    assert np.array_equal(plain.data, prompted.data)


def test_prompts_change_embedding(enc, tok):
    rng = np.random.default_rng(0)
    ids = [tuple(tok.encode("a photo of dots"))]
    plain = enc.encode_text(ids).data
    prompts = [Tensor(rng.normal(0, 0.02, (2, 64))) for _ in range(4)]
    prompted = enc.encode_text(ids, prompts=prompts).data
    assert np.linalg.norm(plain - prompted) > 0


# -- image encoding ----------------------------------------------------------------


def test_encode_image_zero_regression_lock(enc):
    # frozen on first implementation run (seed=123, vocab of 4 words + specials)
    tok = Tokenizer(["photo", "of", "zebra", "dots"])
    e = DualEncoder(EncoderConfig(), tok, seed=123)
    emb = e.encode_image(np.zeros((1, 32, 32, 3))).data[0]
    expected_first8 = np.array([
        -0.12663472, -0.04310246, -0.35317245, -0.16140069,
        -0.06877571, -0.02348168, -0.03233865, -0.08017688])
    assert np.allclose(emb[:8], expected_first8, atol=1e-7)
    assert abs(np.linalg.norm(emb) - 1.0) <= 1e-12


def test_encode_image_norm_and_shape_error(enc):
    emb = enc.encode_image(_rand_image()[None])
    assert abs(np.linalg.norm(emb.data) - 1.0) <= 1e-12
    with pytest.raises(ShapeError, match="image shape"):
        enc.encode_image(np.zeros((1, 16, 16, 3)))


def test_patch_permutation_changes_embedding(enc):
    img = _rand_image(7)
    base = enc.encode_image(img[None]).data
    permuted = img.copy()
    # swap two 8x8 patches
    permuted[0:8, 0:8], permuted[8:16, 0:8] = img[8:16, 0:8].copy(), img[0:8, 0:8].copy()
    other = enc.encode_image(permuted[None]).data
    assert np.linalg.norm(base - other) > 0


def test_vision_prompts_enter_image_branch(enc):
    rng = np.random.default_rng(1)
    img = _rand_image(3)
    plain = enc.encode_image(img[None]).data
    prompts = [Tensor(rng.normal(0, 0.02, (2, 64))) for _ in range(4)]
    prompted = enc.encode_image(img[None], prompts=prompts).data
    assert np.linalg.norm(plain - prompted) > 0


# -- freezing ---------------------------------------------------------------------


def test_clone_frozen_is_deep_and_idempotent(enc):
    clone = clone_frozen(enc)
    assert clone.frozen
    before = {n: t.data.copy() for n, t in clone.param_items()}
    # mutate the original; the clone must not move
    for _, t in enc.param_items():
        t.data = t.data + 1.0
    for n, t in clone.param_items():
        assert np.array_equal(t.data, before[n])
    for _, t in enc.param_items():
        t.data = t.data - 1.0
    clone2 = clone_frozen(clone)
    assert weight_digest(clone2) == weight_digest(clone)


def test_frozen_forward_records_no_graph(enc, tok):
    frozen = clone_frozen(enc)
    out = frozen.encode_text([tuple(tok.encode("a photo of dots"))])
    assert out._node is None
    assert not out.requires_grad


def test_trainable_forward_records_graph(tok):
    trainable = DualEncoder(EncoderConfig(), tok, seed=0)
    out = trainable.encode_text([tuple(tok.encode("a photo of dots"))])
    assert out.requires_grad and out._node._parents


# -- checkpoints -------------------------------------------------------------------


def test_backbone_checkpoint_roundtrip(tmp_path, enc, tok):
    frozen = clone_frozen(enc)
    h1 = save_backbone(str(tmp_path / "bb"), frozen)
    again = load_backbone(str(tmp_path / "bb"))
    assert again.frozen
    # save -> load -> save is a fixed point (f32 narrowing happens once)
    h2 = save_backbone(str(tmp_path / "bb2"), again)
    assert h1 == h2
    ids = [tuple(tok.encode("a photo of zebra"))]
    e1 = again.encode_text(ids).data
    e2 = load_backbone(str(tmp_path / "bb2")).encode_text(ids).data
    assert np.array_equal(e1, e2)


def test_backbone_identity_is_its_checkpoint_hash(tmp_path, enc):
    """An encoder in memory, its saved checkpoint and the encoder loaded back
    all have one identity, and it does not depend on where it is stored."""
    frozen = clone_frozen(enc)
    saved = save_backbone(str(tmp_path / "bb"), frozen)
    loaded = load_backbone(str(tmp_path / "bb"))
    assert saved == backbone_identity(frozen) == backbone_identity(loaded)
    assert loaded.directory == str(tmp_path / "bb") and frozen.directory is None
    assert save_backbone(str(tmp_path / "elsewhere" / "bb"), loaded) == saved
    assert not any(name.endswith(".attn.bk") for name in frozen.weights)


def test_load_backbone_draws_no_random_numbers(tmp_path, enc, monkeypatch):
    frozen = clone_frozen(enc)
    for t in frozen.weights.values():  # f32 values: the saved copy is exact
        t.data = t.data.astype(np.float32).astype(np.float64)
    save_backbone(str(tmp_path / "bb"), frozen)

    def refuse(*args, **kwargs):
        raise AssertionError("load_backbone drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded = load_backbone(str(tmp_path / "bb"))
    monkeypatch.undo()
    assert list(loaded.weights) == list(frozen.weights)
    assert weight_digest(loaded) == weight_digest(frozen)


def test_backbone_checkpoint_detects_corruption(tmp_path, enc):
    save_backbone(str(tmp_path / "bb"), clone_frozen(enc))
    victim = tmp_path / "bb" / "text.tok_emb.bin"
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="hash mismatch"):
        load_backbone(str(tmp_path / "bb"))


def test_same_seed_same_fingerprint(tok):
    a = DualEncoder(EncoderConfig(), tok, seed=9)
    b = DualEncoder(EncoderConfig(), tok, seed=9)
    assert weight_digest(a) == weight_digest(b)
    c = DualEncoder(EncoderConfig(), tok, seed=10)
    assert weight_digest(c) != weight_digest(a)
