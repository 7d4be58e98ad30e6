"""Each block runs only the rows its output feeds; the results are those of
a full-rows reference that runs every row through every block and selects
rows at the end.

The cut comes after the attention core, so the attention is the same; the
kept rows then meet only weight products, whose rows do not depend on how
many rows ride along. So image embeddings, `predict` and a fine-tune step
(frozen backbone) are bitwise equal to the reference. A text length group
of one sequence keeps a single EOS row, which takes a vector-matrix kernel,
so it agrees to rounding. Pretraining's weight gradients now sum over the
kept rows only, so they agree to rounding too.
"""

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt import evaluation
from coprompt.datasets import make_fewshot_split
from coprompt.encoders import IMAGE_TILE, DualEncoder, EncoderConfig, Tokenizer
from coprompt.evaluation import predict
from coprompt.training import TrainConfig, Trainer, tuned_model

TOL = 1e-12
CLASSES = ["zebra", "dots", "stripes"]


def full_rows_run_layers(self, branch, x, prompts, out_rows):
    """`DualEncoder._run_layers` as it was before the row cut: every block
    runs every row, a deeper prompted layer swaps its prompts in for the
    first m rows, and `out_rows` are selected after the last block."""
    m = prompts[0].shape[0] if prompts else 0
    if m > 0:
        prompts = [ad.broadcast_to(u, (x.shape[0],) + u.shape) for u in prompts]
        x = ad.concat([prompts[0], x], axis=1)
    for j in range(self.config.layers):
        if m > 0 and 0 < j < len(prompts):
            x = ad.concat([prompts[j], ad.slice_(x, (slice(None), slice(m, None)))], axis=1)
        x = self._block(branch, j, x)
    return ad.slice_(x, (slice(None), out_rows))


def _full_rows(monkeypatch, fn):
    with monkeypatch.context() as mp:
        mp.setattr(DualEncoder, "_run_layers", full_rows_run_layers)
        return fn()


@pytest.fixture(scope="module")
def tok():
    return Tokenizer(["photo", "of", "red"] + CLASSES)


def _model(tok, depth):
    backbone = DualEncoder(EncoderConfig(), tok, seed=3, frozen=True)
    return tuned_model(backbone, TrainConfig(prompt_depth=depth))


@pytest.mark.parametrize("depth", [4, 2, 0])
def test_image_embeddings_equal_full_rows(tok, monkeypatch, depth):
    model = _model(tok, depth)
    images = np.random.default_rng(depth).uniform(0.0, 1.0, (2 * IMAGE_TILE + 3, 32, 32, 3))

    def embed():
        with ad.no_grad():
            return model.image_embedding(images).data

    assert np.array_equal(embed(), _full_rows(monkeypatch, embed))

    def predictions():
        monkeypatch.setattr(evaluation, "_predict_memo", None)
        return [predict(model, image, CLASSES) for image in images[:4]]

    for (i, p), (i_ref, p_ref) in zip(predictions(), _full_rows(monkeypatch, predictions)):
        assert i == i_ref and np.array_equal(p, p_ref)


def test_train_step_equals_full_rows(source, monkeypatch):
    """ce, cc and every tuned parameter's gradient of a default step."""
    def step():
        tok = Tokenizer.from_manifests([source.manifest])
        backbone = DualEncoder(EncoderConfig(), tok, seed=0, frozen=True)
        cfg = TrainConfig()
        trainer = Trainer(backbone, cfg, make_fewshot_split(source, cfg.shots, cfg.seed))
        grads, opt_step = {}, trainer.opt.step

        def snapshot():
            grads.update((name, t.grad.copy()) for name, t in trainer.params)
            opt_step()

        monkeypatch.setattr(trainer.opt, "step", snapshot)
        trainer.train_step()
        return trainer.history[-1], grads

    (row, grads), (row_ref, grads_ref) = step(), _full_rows(monkeypatch, step)
    assert row["cc"] > 0.0
    assert (row["ce"], row["cc"]) == (row_ref["ce"], row_ref["cc"])
    assert grads.keys() == grads_ref.keys()
    for name, g in grads.items():
        assert np.array_equal(g, grads_ref[name]), name


def test_text_group_of_one_agrees_to_rounding(tok, monkeypatch):
    model = _model(tok, 4)
    tokens = [tuple(tok.encode("a photo of red stripes"))]

    def embed():
        with ad.no_grad():
            return model.text_embedding(tokens).data

    assert np.abs(embed() - _full_rows(monkeypatch, embed)).max() <= TOL


def test_pretrain_weight_gradients_agree_to_rounding(tok, monkeypatch):
    """One contrastive step's loss and every weight gradient, relative to
    the largest entry of that gradient."""
    rng = np.random.default_rng(5)
    images = rng.uniform(0.0, 1.0, (6, 32, 32, 3))
    captions = [tuple(tok.encode(s)) for s in
                ["zebra", "red dots", "a photo of stripes", "dots", "photo of red zebra",
                 "stripes"]]

    def grads():
        enc = DualEncoder(EncoderConfig(), tok, seed=3)
        logits = ad.matmul(enc.encode_image(images),
                           ad.transpose(enc.encode_text(captions), (1, 0)))
        loss = ad.cross_entropy_from_logits(logits, np.arange(len(images)))
        ad.backward(loss)
        return loss.item(), {name: t.grad for name, t in enc.param_items()}

    (loss, g), (loss_ref, g_ref) = grads(), _full_rows(monkeypatch, grads)
    assert abs(loss - loss_ref) <= TOL * abs(loss_ref)
    for name, ref in g_ref.items():
        if ref is None:
            assert g[name] is None, name
            continue
        assert np.abs(g[name] - ref).max() <= TOL * np.abs(ref).max(), name
