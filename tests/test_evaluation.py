"""Prediction, harmonic mean, and the three evaluation harnesses."""

import numpy as np
import pytest

from coprompt.autodiff import Tensor
from coprompt.datasets import DatasetError, build_default_suite
from coprompt.encoders import DualEncoder, EncoderConfig, Tokenizer, VocabularyError
from coprompt.evaluation import (
    base_to_novel_eval,
    cross_dataset_eval,
    domain_gen_eval,
    harmonic_mean,
    predict,
)

from helpers import clone_frozen


class StubTokenizer:
    def __init__(self, names):
        self.names = list(names)

    def encode(self, text, strict=False):
        for i, n in enumerate(self.names):
            if n in text:
                return [i]
        raise VocabularyError(f"unknown words: {text}")


class StubModel:
    """Fixed class/image embeddings; lets prediction math be tested exactly."""

    def __init__(self, class_vecs, img_vec, tau=1.0):
        self.class_vecs = np.asarray(class_vecs, dtype=float)
        self.img_vec = np.asarray(img_vec, dtype=float)
        self.tau = tau
        self.tokenizer = StubTokenizer([f"class{i}" for i in range(len(class_vecs))])

    def text_embedding(self, tokens):
        # evaluation embeds the class sentences as one batch
        return Tensor(self.class_vecs[[t[0] for t in tokens]])

    def image_embedding(self, images):
        # `predict` runs its one image as a batch of one
        return Tensor(self.img_vec[None])


def test_predict_dominant_similarity():
    eye = np.eye(4)
    model = StubModel(eye[:3], eye[2])
    idx, probs = predict(model, None, ["class0", "class1", "class2"])
    assert idx == 2
    assert probs.argmax() == 2
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_predict_tie_breaks_lowest_index():
    eye = np.eye(4)
    model = StubModel([eye[3], eye[3], eye[3]], eye[3])
    idx, probs = predict(model, None, ["class0", "class1", "class2"])
    assert idx == 0
    assert np.allclose(probs, 1 / 3)


def test_predict_matches_softmax_oracle():
    rng = np.random.default_rng(0)
    cls = rng.normal(size=(5, 8))
    cls /= np.linalg.norm(cls, axis=1, keepdims=True)
    img = rng.normal(size=8)
    img /= np.linalg.norm(img)
    tau = 0.07
    model = StubModel(cls, img, tau=tau)
    idx, probs = predict(model, None, [f"class{i}" for i in range(5)])
    logits = cls @ img / tau
    expect = np.exp(logits - logits.max())
    expect /= expect.sum()
    assert np.allclose(probs, expect, atol=1e-10)
    assert idx == int(np.argmax(logits))


def test_predict_argmax_invariant_under_tau():
    rng = np.random.default_rng(1)
    cls = rng.normal(size=(6, 8))
    img = rng.normal(size=8)
    idx1, p1 = predict(StubModel(cls, img, tau=0.05), None, [f"class{i}" for i in range(6)])
    idx2, p2 = predict(StubModel(cls, img, tau=5.0), None, [f"class{i}" for i in range(6)])
    assert idx1 == idx2
    assert not np.allclose(p1, p2)


def test_predict_empty_class_set():
    with pytest.raises(ValueError, match="empty"):
        predict(StubModel(np.eye(2), np.eye(2)[0]), None, [])


def test_predict_unknown_class_words():
    model = StubModel(np.eye(2), np.eye(2)[0])
    with pytest.raises(VocabularyError):
        predict(model, None, ["classX9"])


# -- harmonic mean -----------------------------------------------------------------


def test_harmonic_mean_reference_pairs():
    # published averages for two methods on the 11-dataset suite
    assert harmonic_mean(82.69, 63.22) == pytest.approx(71.66, abs=0.01)
    assert harmonic_mean(84.00, 77.23) == pytest.approx(80.48, abs=0.01)


def test_harmonic_mean_identity_and_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(1, 99)
        assert harmonic_mean(x, x) == pytest.approx(x, rel=1e-12)
        a, b = rng.uniform(1, 99, 2)
        hm = harmonic_mean(a, b)
        assert hm <= (a + b) / 2 + 1e-12
        if abs(a - b) > 1e-6:
            assert hm < (a + b) / 2


def test_harmonic_mean_both_zero_warns():
    with pytest.warns(UserWarning):
        assert harmonic_mean(0.0, 0.0) == 0.0


# -- harnesses ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    return build_default_suite(str(tmp_path_factory.mktemp("evalsuite")))


@pytest.fixture(scope="module")
def frozen(suite):
    tok = Tokenizer.from_manifests([suite[k].manifest for k in
                                    ("fields_a", "fields_b", "fields_c", "fields_d")])
    return clone_frozen(DualEncoder(EncoderConfig(), tok, seed=0))


def _chance_bands(dataset):
    split = dataset.manifest.split
    n_base = len(split.base) * split.test
    n_novel = len(split.novel) * split.test
    p_base, p_novel = 1 / len(split.base), 1 / len(split.novel)
    return (100 * p_base, 3 * 100 * np.sqrt(p_base * (1 - p_base) / n_base),
            100 * p_novel, 3 * 100 * np.sqrt(p_novel * (1 - p_novel) / n_novel))


def test_null_inputs_score_chance(suite, frozen):
    """Label-free inputs (all-noise variant) must score chance exactly on
    balanced pools: the harness itself adds no information."""
    rep = base_to_novel_eval(frozen, suite["fields_a-noise"])
    chance_base, band_base, chance_novel, band_novel = _chance_bands(suite["fields_a"])
    assert abs(rep["base_acc"] - chance_base) <= band_base
    assert abs(rep["novel_acc"] - chance_novel) <= band_novel


def test_information_free_model_scores_chance(suite):
    """A model whose image embedding ignores the input is a null predictor."""
    class Null(StubModel):
        def __init__(self, n_cls):
            rng = np.random.default_rng(3)
            cls = rng.normal(size=(n_cls, 8))
            super().__init__(cls, rng.normal(size=8))
            self.tokenizer = Tokenizer.from_manifests([suite["fields_a"].manifest])

        def text_embedding(self, tokens):
            return Tensor(np.stack([
                np.random.default_rng(hash(tuple(t)) % (2 ** 31)).normal(size=8)
                for t in tokens]))

        def image_embedding(self, images):
            # keyed on the image bytes: uniform over classes, input-blind order
            return Tensor(np.stack([
                np.random.default_rng(
                    int.from_bytes(np.asarray(image).tobytes()[:8], "little")).normal(size=8)
                for image in images]))

    rep = base_to_novel_eval(Null(12), suite["fields_a"])
    chance_base, band_base, chance_novel, band_novel = _chance_bands(suite["fields_a"])
    assert abs(rep["base_acc"] - chance_base) <= band_base
    assert abs(rep["novel_acc"] - chance_novel) <= band_novel


def test_base_to_novel_overlap_error(suite, frozen):
    from copy import deepcopy
    ds = deepcopy(suite["fields_a"])
    ds.manifest.split.novel[0] = ds.manifest.split.base[0]
    with pytest.raises(DatasetError, match="overlap"):
        base_to_novel_eval(frozen, ds)


def test_eval_side_effect_free(suite, frozen):
    r1 = base_to_novel_eval(frozen, suite["fields_a"])
    r2 = base_to_novel_eval(frozen, suite["fields_a"])
    assert r1 == r2


def test_hm_recomputable_from_report(suite, frozen):
    rep = base_to_novel_eval(frozen, suite["fields_a"])
    assert rep["hm"] == pytest.approx(harmonic_mean(rep["base_acc"], rep["novel_acc"]), abs=1e-12)


def test_cross_dataset_matches_per_image_recomputation(suite, frozen):
    targets = [suite["fields_b"], suite["fields_c"]]
    table = cross_dataset_eval(frozen, [suite["fields_a"], *targets])
    assert table["source"]["name"] == "fields_a"
    for (name, acc), ds in zip(table["rows"], targets):
        class_names = [c.name for c in ds.manifest.classes]
        correct = total = 0
        for pos, cls in enumerate(ds.manifest.classes):
            for pixels, _ in ds.pool([cls.id], "test"):
                idx, _ = predict(frozen, pixels, class_names)
                correct += idx == pos
                total += 1
        assert abs(acc - 100.0 * correct / total) <= 1e-12
    assert table["average"] == pytest.approx(
        np.mean([a for _, a in table["rows"]]), abs=1e-12)


def test_cross_dataset_empty_targets(suite, frozen):
    table = cross_dataset_eval(frozen, [suite["fields_a"]])
    assert table["rows"] == []
    assert table["average"] is None


def test_cross_dataset_vocabulary_miss(suite, tmp_path):
    # a backbone whose vocabulary never saw the target family's class names
    tok = Tokenizer.from_manifests([suite["fields_a"].manifest])
    narrow = clone_frozen(DualEncoder(EncoderConfig(), tok, seed=0))
    with pytest.raises(VocabularyError, match="amber"):
        cross_dataset_eval(narrow, [suite["fields_a"], suite["fields_b"]])


def test_domain_identity_reproduces_source_exactly(suite, frozen):
    table = domain_gen_eval(frozen, [suite["fields_a"], suite["fields_a-identity"]])
    accs = dict(table["rows"])
    assert accs["fields_a"] == accs["fields_a-identity"]


def test_domain_class_set_mismatch(suite, frozen):
    with pytest.raises(DatasetError, match="class set"):
        domain_gen_eval(frozen, [suite["fields_a"], suite["fields_b"]])


def test_predict_reuses_the_class_matrix_while_its_inputs_hold(suite, frozen, monkeypatch):
    """One class-matrix encode serves repeated predicts; new tuned-parameter
    bytes (even written straight into `.data`) or new class names re-encode,
    and every answer equals an uncached one."""
    from coprompt import evaluation
    from coprompt.training import TrainConfig, tuned_model

    ds = suite["fields_a"]
    names = [c.name for c in ds.manifest.classes]
    images = [pixels for pixels, _ in ds.pool([0, 1], "test")[:3]]
    model = tuned_model(frozen, TrainConfig(seed=0))
    encode_text, encodes = frozen.encode_text, []

    def counting(*args, **kwargs):
        encodes.append(1)
        return encode_text(*args, **kwargs)

    monkeypatch.setattr(frozen, "encode_text", counting)

    def uncached(image, class_names):
        monkeypatch.setattr(evaluation, "_predict_memo", None)
        return predict(model, image, class_names)

    monkeypatch.setattr(evaluation, "_predict_memo", None)
    answers = [predict(model, image, names) for image in images]
    assert len(encodes) == 1
    for image, (idx, probs) in zip(images, answers):
        want_idx, want_probs = uncached(image, names)
        assert idx == want_idx and np.array_equal(probs, want_probs)

    w = model.adapters["text"].ws[-1]
    w.data = w.data + 0.01
    before = len(encodes)
    _, probs = predict(model, images[0], names)
    assert len(encodes) == before + 1
    assert not np.array_equal(probs, answers[0][1])
    assert np.array_equal(probs, uncached(images[0], names)[1])

    before = len(encodes)
    predict(model, images[0], names[::-1])
    assert len(encodes) == before + 1

