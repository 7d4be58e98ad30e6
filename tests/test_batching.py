"""One embedding path, and it takes batches: a batch gives, row for row,
what batches of one give.

Every caller (pretrain, train step, train-state measurement, evaluation)
sends whole batches to the encoders; `evaluation.predict`, the one
single-image entry point, runs its image as a batch of one. These tests pin
a batch and its batches of one together at 1e-12, for embeddings and for the
gradients of the tuning parameters, and check that a one-example input is
refused.
"""

import tracemalloc

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import ShapeError, Tensor
from coprompt import encoders
from coprompt.encoders import IMAGE_TILE, DualEncoder, EncoderConfig, Tokenizer
from coprompt.training import TunedModel
from coprompt.tuning import PromptSet, make_adapters, trainable_parameters

TOL = 1e-12
WORDS = ["red", "dots", "stripes", "photo", "of", "zebra", "in", "tones"]
# mixed lengths, with a repeated sentence, in no length order
SENTENCES = ["red dots", "a photo of a zebra in red tones", "stripes", "red dots",
             "photo of stripes", "zebra"]


def _model(prompts, adapters):
    tok = Tokenizer(WORDS)
    cfg = EncoderConfig(layers=2, width=16, heads=2, text_len=12, image_size=16,
                        patch_grid=4, embed_dim=8)
    enc = DualEncoder(cfg, tok, seed=4, frozen=True)
    rng = np.random.default_rng(6)
    ps = PromptSet(cfg.width, cfg.layers, m=2 if prompts else 0, rng=rng)
    adapters = make_adapters(cfg.embed_dim, "both" if adapters else "none", rng=rng)
    # move the adapters off their identity start so they shape the output
    for _, t in trainable_parameters(ps, adapters):
        t.data = t.data + rng.normal(0.0, 0.1, t.shape)
    return TunedModel(enc, ps, adapters)


def _inputs(model, n_images=5):
    rng = np.random.default_rng(8)
    images = rng.uniform(0.0, 1.0, (n_images, 16, 16, 3))
    tokens = [tuple(model.tokenizer.encode(s)) for s in SENTENCES]
    return images, tokens


COMBOS = [(p, a) for p in (False, True) for a in (False, True)]


@pytest.mark.parametrize("prompts,adapters", COMBOS)
def test_batched_embeddings_match_per_example(prompts, adapters):
    model = _model(prompts, adapters)
    images, tokens = _inputs(model)
    with ad.no_grad():
        img = model.image_embedding(images).data
        txt = model.text_embedding(tokens).data
        img_rows = np.concatenate([model.image_embedding(x[None]).data for x in images])
        txt_rows = np.concatenate([model.text_embedding([t]).data for t in tokens])
    assert img.shape == (len(images), 8) and txt.shape == (len(tokens), 8)
    assert np.abs(img - img_rows).max() <= TOL
    assert np.abs(txt - txt_rows).max() <= TOL


def test_text_batch_accepts_lists_and_arrays_alike():
    enc = _model(False, False).backbone
    _, tokens = _inputs(_model(False, False))
    with ad.no_grad():
        as_tuples = enc.encode_text(tokens).data
        as_lists = enc.encode_text([list(t) for t in tokens]).data
        same_len = [t for t in tokens if len(t) == 4]
        as_array = enc.encode_text(np.asarray(same_len)).data
    assert np.array_equal(as_tuples, as_lists)
    assert np.array_equal(as_array, as_tuples[[len(t) == 4 for t in tokens]])


@pytest.mark.parametrize("prompts,adapters", COMBOS)
def test_batched_loss_gradients_match_per_example(prompts, adapters):
    model = _model(prompts, adapters)
    images, tokens = _inputs(model)
    params = [t for _, t in trainable_parameters(model.prompt_set, model.adapters)]
    rng = np.random.default_rng(9)
    r_img = rng.normal(size=(len(images), 8))
    r_txt = rng.normal(size=(len(tokens), 8))

    def grads(loss):
        for p in params:
            p.grad = None
        ad.backward(loss)
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    batched = grads((model.image_embedding(images) * Tensor(r_img)).sum()
                    + (model.text_embedding(tokens) * Tensor(r_txt)).sum())
    loss = None
    for i, x in enumerate(images):
        term = (model.image_embedding(x[None]) * Tensor(r_img[i:i + 1])).sum()
        loss = term if loss is None else loss + term
    for i, t in enumerate(tokens):
        loss = loss + (model.text_embedding([t]) * Tensor(r_txt[i:i + 1])).sum()
    per_example = grads(loss)

    reached = [gb for gb in batched if gb.size and np.abs(gb).max() > 0]
    assert len(reached) == (6 * prompts) + (8 * adapters)  # 3 tensors/layer, 4/adapter
    for gb, gp in zip(batched, per_example):
        assert gb.shape == gp.shape
        assert gb.size == 0 or np.abs(gb - gp).max() <= TOL


def test_empty_batches_and_bad_shapes_raise():
    enc = _model(True, False).backbone
    with pytest.raises(ShapeError, match="empty"):
        enc.encode_text([])
    with pytest.raises(ShapeError, match="empty"):
        enc.encode_text([(1, 2), ()])
    with pytest.raises(ShapeError, match="empty"):
        enc.encode_image(np.zeros((0, 16, 16, 3)))
    with pytest.raises(ShapeError, match="empty"):
        enc.encode_image([])
    with pytest.raises(ShapeError, match="image shape"):
        enc.encode_image(np.zeros((2, 8, 16, 16, 3)))
    with pytest.raises(ShapeError, match="image shape"):
        enc.encode_image([np.zeros((16, 16, 3)), np.zeros((16, 8, 3))])
    # one example, not a batch of one
    with pytest.raises(ShapeError):
        enc.encode_image(np.zeros((16, 16, 3)))
    with pytest.raises(ShapeError):
        enc.encode_text([1, 2, 3])
    with pytest.raises(ShapeError):
        ad.cross_entropy_from_logits(Tensor(np.zeros(4)), 1)
    adapter = make_adapters(8, "text")["text"]
    with pytest.raises(ShapeError):
        adapter.apply(Tensor(np.zeros(8)))


# tiles a graph-free image batch falls into: three near-equal ones
TILED_IMAGES = 2 * IMAGE_TILE + 3
# nodes one recording `image_embedding` call of the small model makes, for
# any batch size: the backbone is frozen, prompts and adapters require grad
RECORDED_IMAGE_NODES = {(False, True): 5, (True, False): 61, (True, True): 66}


# 2N + 1 images would leave a last tile of one image in fixed-size tiles
@pytest.mark.parametrize("n_images", [TILED_IMAGES, 2 * IMAGE_TILE + 1])
@pytest.mark.parametrize("prompts,adapters", COMBOS)
def test_graph_free_image_tiles_equal_one_pass_rows(prompts, adapters, n_images, monkeypatch):
    model = _model(prompts, adapters)
    images, _ = _inputs(model, n_images=n_images)
    with ad.no_grad():
        rows = model.image_embedding(images).data
        per_tile = np.concatenate([model.image_embedding(t).data
                                   for t in np.array_split(images, 3)])
        per_example = np.concatenate([model.image_embedding(x[None]).data for x in images])
        as_rows = model.image_embedding(list(images)).data
        monkeypatch.setattr(encoders, "IMAGE_TILE", n_images)
        one_pass = model.image_embedding(images).data
    assert rows.shape == (n_images, 8)
    assert np.array_equal(rows, as_rows)
    assert np.array_equal(rows, one_pass)
    assert np.array_equal(rows, per_tile)
    # a batch of one takes other BLAS kernels, so its rows agree to rounding
    assert np.abs(rows - per_example).max() <= TOL


@pytest.mark.parametrize("prompts,adapters", [c for c in COMBOS if any(c)])
def test_recording_image_call_is_one_graph(prompts, adapters):
    model = _model(prompts, adapters)
    images, _ = _inputs(model, n_images=TILED_IMAGES)
    nodes, recorded = [], []
    for batch in (images, images[:3]):
        before = ad._seq_counter
        recorded.append(model.image_embedding(batch))
        nodes.append(ad._seq_counter - before)
    assert nodes == [RECORDED_IMAGE_NODES[(prompts, adapters)]] * 2
    assert all(e.requires_grad for e in recorded)
    with ad.no_grad():
        assert np.array_equal(recorded[0].data, model.image_embedding(images).data)


def test_graph_free_image_peak_memory_is_one_tile():
    model = _model(False, False)
    enc = model.backbone
    images, _ = _inputs(model, n_images=4 * IMAGE_TILE)

    def peak(batch):
        tracemalloc.start()
        try:
            with ad.no_grad():
                enc.encode_image(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(images) < 1.5 * peak(images[:IMAGE_TILE])
