"""Objective assembly and the fine-tuning loop: freeze/determinism contracts,
configuration collapses, state restore, and loss decomposition."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import Tensor, backward
from coprompt.checkpoints import CheckpointError
from coprompt.consistency import ConsistencyConfig
from coprompt.datasets import build_family_manifest, generate_dataset, make_fewshot_split
from coprompt.encoders import (
    IMAGE_TILE,
    DualEncoder,
    EncoderConfig,
    Tokenizer,
    build_pretrain_split,
)
from coprompt.training import (
    NonFiniteLossError,
    TrainConfig,
    Trainer,
    finetune,
    measure_train_state,
    supervised_loss,
    total_loss,
    tuned_model,
)

from helpers import assert_grads_match, clone_frozen, weight_digest


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


# -- supervised loss ------------------------------------------------------------


def test_supervised_loss_single_class_is_zero():
    rng = np.random.default_rng(0)
    e = Tensor(_unit(rng, 8)[None])
    cls = Tensor(_unit(rng, 8).reshape(1, 8))
    assert supervised_loss(e, cls, np.asarray([0]), tau=0.07).item() == pytest.approx(0.0, abs=1e-12)


def test_supervised_loss_equidistant_is_log_c():
    # image embedding orthogonal to every class embedding: uniform softmax
    c = 5
    eye = np.eye(8)
    img = Tensor(eye[7:8])
    cls = Tensor(eye[:c])
    loss = supervised_loss(img, cls, np.asarray([2]), tau=0.3)
    assert loss.item() == pytest.approx(math.log(c), abs=1e-12)


def test_supervised_loss_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    img = _unit(rng, 8)
    cls = np.stack([_unit(rng, 8) for _ in range(3)])
    tau = 0.07
    loss = supervised_loss(Tensor(img[None]), Tensor(cls), np.asarray([1]), tau=tau).item()
    sims = cls @ img / tau
    expect = -np.log(np.exp(sims[1]) / np.exp(sims).sum())
    assert loss == pytest.approx(expect, abs=1e-10)


def test_supervised_loss_label_out_of_range():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="out of range"):
        supervised_loss(Tensor(_unit(rng, 4)[None]), Tensor(np.eye(4)[:2]), np.asarray([2]), tau=0.1)


def test_supervised_loss_gradcheck():
    rng = np.random.default_rng(3)
    img = _unit(rng, 6)[None]
    cls = np.stack([_unit(rng, 6) for _ in range(4)])
    assert_grads_match(
        lambda ts: supervised_loss(ts[0], ts[1], np.asarray([2]), tau=0.2), [img, cls])


# -- total loss -------------------------------------------------------------------


def test_total_loss_lambda_zero_equals_ce():
    ce = Tensor(0.5)
    cc = Tensor(0.25)
    assert total_loss(ce, cc, 0.0).item() == 0.5
    assert total_loss(ce, None, 8.0).item() == 0.5


def test_total_loss_arithmetic():
    assert total_loss(Tensor(0.5), Tensor(0.25), 8.0).item() == pytest.approx(2.5, abs=1e-15)


def test_total_loss_gradient_additivity():
    # grad(total) == grad(ce) + lambda * grad(cc), two backwards vs one
    rng = np.random.default_rng(4)
    lam = 8.0
    x0 = rng.normal(size=6)

    def make_losses(x):
        ce = (x * x).sum() * 0.1
        cc = ad.cosine_similarity(x, Tensor(np.ones(6)))
        return ce, cc

    x = Tensor(x0, requires_grad=True)
    ce, cc = make_losses(x)
    backward(total_loss(ce, cc, lam))
    combined = x.grad.copy()

    x1 = Tensor(x0, requires_grad=True)
    ce1, _ = make_losses(x1)
    backward(ce1)
    g_ce = x1.grad.copy()
    x2 = Tensor(x0, requires_grad=True)
    _, cc2 = make_losses(x2)
    backward(cc2)
    g_cc = x2.grad.copy()
    assert np.allclose(combined, g_ce + lam * g_cc, atol=1e-10)


def test_total_loss_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        total_loss(Tensor(np.nan), Tensor(1.0), 1.0)


# -- finetune mechanics -------------------------------------------------------------


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """Small frozen encoder + 4-base-class dataset; quality-free mechanics rig."""
    manifest = build_family_manifest("mini", ("crimson", "azure", "jade"), seed=11,
                                     split_counts=(6, 1, 2), base_count=4)
    ds = generate_dataset(manifest, str(tmp_path_factory.mktemp("mini")))
    tok = Tokenizer.from_manifests([manifest])
    enc = DualEncoder(EncoderConfig(layers=2, width=32, heads=2, embed_dim=16),
                      tok, seed=5)
    backbone = clone_frozen(enc)
    split = make_fewshot_split(ds, shots=4, seed=0)
    return backbone, ds, split


def test_train_state_peak_memory_is_one_tile(tmp_path):
    """The split's images reach the encoders as dataset rows and are stacked
    one tile at a time, so measuring 8 tiles peaks where measuring one does."""
    manifest = build_family_manifest("tiles", ("crimson", "azure", "jade"), seed=2,
                                     split_counts=(IMAGE_TILE, 0, 1))
    ds = generate_dataset(manifest, str(tmp_path))
    backbone = DualEncoder(EncoderConfig(), Tokenizer.from_manifests([manifest]), seed=0,
                           frozen=True)

    def peak(shots):
        split = make_fewshot_split(ds, shots, seed=0)
        model = tuned_model(backbone, TrainConfig(shots=shots))
        tracemalloc.start()
        try:
            measure_train_state(model, split, ConsistencyConfig())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_tile = peak(IMAGE_TILE // 8)  # 8 base classes: 32 images
    assert peak(IMAGE_TILE) < 1.1 * one_tile


def _cfg(**kw):
    base = dict(lambda_=2.0, lr=0.05, momentum=0.9, batch_size=2, epochs=1,
                shots=4, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def test_finetune_freezes_backbone(mini):
    backbone, _, split = mini
    before = weight_digest(backbone)
    finetune(backbone, _cfg(), split)
    assert weight_digest(backbone) == before


def test_finetune_requires_frozen_backbone(mini):
    _, ds, split = mini
    tok = Tokenizer.from_manifests([ds.manifest])
    live = DualEncoder(EncoderConfig(layers=2, width=32, heads=2, embed_dim=16), tok)
    with pytest.raises(ValueError, match="frozen"):
        finetune(live, _cfg(), split)


def test_finetune_deterministic(mini):
    backbone, _, split = mini
    r1 = finetune(backbone, _cfg(), split, max_steps=6)
    r2 = finetune(backbone, _cfg(), split, max_steps=6)
    for (n1, t1), (n2, t2) in zip(
            _params_of(r1), _params_of(r2)):
        assert n1 == n2
        assert np.array_equal(t1, t2)
    assert [h["total"] for h in r1.history] == [h["total"] for h in r2.history]
    drop_runtime = [{k: v for k, v in r.metrics.items() if k != "runtime_seconds"}
                    for r in (r1, r2)]
    assert drop_runtime[0] == drop_runtime[1]


def _params_of(result):
    from coprompt.tuning import trainable_parameters
    return [(n, t.data) for n, t in
            trainable_parameters(result.model.prompt_set, result.model.adapters)]


def test_history_decomposition_exact(mini):
    backbone, _, split = mini
    cfg = _cfg(lambda_=8.0, epochs=2)
    result = finetune(backbone, cfg, split)
    for row in result.history:
        assert row["total"] == row["ce"] + 8.0 * row["cc"]


def test_lambda_zero_matches_detached_bitwise(mini):
    backbone, _, split = mini
    n_steps = 8
    a = finetune(backbone, _cfg(lambda_=0.0, epochs=4), split, max_steps=n_steps)
    b = finetune(backbone, _cfg(lambda_=8.0, epochs=4, detach_consistency=True),
                 split, max_steps=n_steps)
    for (n1, t1), (n2, t2) in zip(_params_of(a), _params_of(b)):
        assert np.array_equal(t1, t2), f"trajectory diverged at {n1}"
    assert [h["ce"] for h in a.history] == [h["ce"] for h in b.history]
    assert a.metrics["final_train_ce"] == b.metrics["final_train_ce"]


def test_consistency_disabled_collapses_to_prompts_only(mini):
    # all-off configuration equals a supervised prompts-only run bit for bit
    backbone, _, split = mini
    off = ConsistencyConfig(enabled=False)
    a = finetune(backbone, _cfg(consistency=off, adapter_modality="none"), split)
    b = finetune(backbone, _cfg(consistency=off, adapter_modality="none"), split)
    for (_, t1), (_, t2) in zip(_params_of(a), _params_of(b)):
        assert np.array_equal(t1, t2)
    # no step carries a consistency term
    assert all(h["cc"] == 0.0 for h in a.history)


def test_perturb_ignored_when_consistency_disabled(mini):
    # perturbation toggles are inert without the consistency branch
    backbone, _, split = mini
    off_none = ConsistencyConfig(enabled=False, perturb_image="none")
    off_simple = ConsistencyConfig(enabled=False, perturb_image="simple")
    a = finetune(backbone, _cfg(consistency=off_none), split, max_steps=5)
    b = finetune(backbone, _cfg(consistency=off_simple), split, max_steps=5)
    for (_, t1), (_, t2) in zip(_params_of(a), _params_of(b)):
        assert np.array_equal(t1, t2)


def test_state_restore_continues_identically(mini, tmp_path):
    backbone, _, split = mini
    cfg = _cfg(epochs=6)

    straight = Trainer(backbone, cfg, split)
    straight.run(max_steps=22)

    first = Trainer(backbone, cfg, split)
    first.run(max_steps=10)
    first.save_state(str(tmp_path / "state"))

    resumed = Trainer.restore(backbone, cfg, split, str(tmp_path / "state"))
    resumed.run(max_steps=22)

    assert [h["total"] for h in resumed.history] == [h["total"] for h in straight.history]
    for (_, t1), (_, t2) in zip(straight.params, resumed.params):
        assert np.array_equal(t1.data, t2.data)


def test_state_restore_refuses_another_config(mini, tmp_path):
    backbone, _, split = mini
    first = Trainer(backbone, _cfg(epochs=6), split)
    first.run(max_steps=3)
    first.save_state(str(tmp_path / "state"))
    with pytest.raises(CheckpointError, match="config"):
        Trainer.restore(backbone, _cfg(epochs=6, lambda_=3.0), split, str(tmp_path / "state"))


def test_max_steps_runs_past_epoch_budget(mini):
    # the epoch budget only sets the default length: an explicit max_steps
    # continues the permutation stream exactly as a longer budget would
    backbone, _, split = mini
    short = Trainer(backbone, _cfg(epochs=1), split)
    assert short.total_steps == 8
    short.run(max_steps=11)
    long = Trainer(backbone, _cfg(epochs=2), split)
    long.run(max_steps=11)
    assert short.step == 11 and len(short.history) == 11
    assert [h["total"] for h in short.history] == [h["total"] for h in long.history]
    for (_, t1), (_, t2) in zip(short.params, long.params):
        assert np.array_equal(t1.data, t2.data)


@pytest.mark.parametrize("bad", ["abc", -1, 2.5, True])
def test_max_steps_must_be_non_negative_int(mini, bad):
    backbone, _, split = mini
    trainer = Trainer(backbone, _cfg(), split)
    with pytest.raises(ValueError, match="max_steps"):
        trainer.run(max_steps=bad)
    assert trainer.step == 0


def test_nonfinite_loss_aborts_with_step(mini):
    backbone, _, split = mini
    # pure supervised path: the trainer's own total check must fire
    trainer = Trainer(backbone, _cfg(consistency=ConsistencyConfig(enabled=False)), split)
    trainer.adapters["text"].ws[0].data[:] = np.nan
    with pytest.raises(NonFiniteLossError, match="step"):
        trainer.run(max_steps=1)
    # with the consistency branch on, its input check aborts with the same error
    trainer2 = Trainer(backbone, _cfg(), split)
    trainer2.adapters["text"].ws[0].data[:] = np.nan
    with pytest.raises(NonFiniteLossError):
        trainer2.run(max_steps=1)


def test_pretrain_captions_are_the_trainer_sentences(suite):
    """Pretraining and the fine-tune teacher turn a class into the same
    sentences, for every class of the family, novel ones included."""
    ds = suite["fields_a"]
    tok = Tokenizer.from_manifests([ds.manifest])
    backbone = clone_frozen(DualEncoder(EncoderConfig(layers=1, width=16, heads=2,
                                                      embed_dim=8), tok, seed=0))
    trainer = Trainer(backbone, _cfg(), make_fewshot_split(ds, shots=4, seed=0))
    split = build_pretrain_split([ds], tok, backbone.config.text_len)
    assert len(split.captions) == len(ds.manifest.classes) == len(trainer.sentences)
    for cls, captions in zip(ds.manifest.classes, split.captions):
        assert trainer.sentences[cls.name] == captions


def test_empty_split_rejected(mini):
    backbone, ds, split = mini
    from dataclasses import replace
    empty = replace(split, indices=split.indices[:0], labels=split.labels[:0])
    with pytest.raises(ValueError, match="empty"):
        finetune(backbone, _cfg(), empty)


def test_checkpoint_roundtrip_and_backbone_guard(mini, tmp_path):
    from coprompt.checkpoints import CheckpointError
    from coprompt.encoders import save_backbone, load_backbone
    from coprompt.training import load_finetune_checkpoint

    backbone, _, split = mini
    bb_dir = str(tmp_path / "bb")
    save_backbone(bb_dir, backbone)
    reloaded_bb = load_backbone(bb_dir)

    out = str(tmp_path / "ft")
    result = finetune(reloaded_bb, _cfg(), split, out_dir=out)
    model, cfg, manifest = load_finetune_checkpoint(out, backbone_dir=bb_dir)
    # tuned parameters survive the roundtrip exactly (already narrowed)
    for (n1, t1), (n2, t2) in zip(
            _params_of(result),
            [(n, t.data) for n, t in __import__("coprompt.tuning", fromlist=["trainable_parameters"]).trainable_parameters(model.prompt_set, model.adapters)]):
        assert np.array_equal(t1, t2), n1

    wrong = clone_frozen(DualEncoder(EncoderConfig(layers=2, width=32, heads=2, embed_dim=16),
                                     backbone.tokenizer, seed=99))
    with pytest.raises(CheckpointError, match="trained on another backbone"):
        load_finetune_checkpoint(out, backbone=wrong)


def test_config_from_dict_strict():
    with pytest.raises(ValueError, match="unknown train config"):
        TrainConfig.from_dict({"lambda": 1.0, "learning_rate": 0.1})
    cfg = TrainConfig.from_dict({"lambda": 2.0, "consistency": {"criterion": "l1"}})
    assert cfg.lambda_ == 2.0 and cfg.consistency.criterion == "l1"
    assert TrainConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_readme_train_config_table_lists_exactly_the_accepted_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Train-config reference", 1)[1].split("\n\n", 2)[1]
    documented = {key for row in table.splitlines()[2:]
                  for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    accepted = set()
    for key, value in TrainConfig().to_dict().items():
        accepted |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
    assert documented == accepted
