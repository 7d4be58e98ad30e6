"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy shared computations (default pre-trained backbone, the 5-seed
consistency-on/off study) live in session fixtures; see conftest.py.
"""

import os
import time
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import Tensor
from coprompt.consistency import Augmenter, ConsistencyConfig, consistency_loss, perturb_image
from coprompt.datasets import make_fewshot_split
from coprompt.evaluation import cross_dataset_eval, domain_gen_eval, harmonic_mean, predict
from coprompt.training import (
    TrainConfig,
    Trainer,
    finetune,
    load_finetune_checkpoint,
    supervised_loss,
    total_loss,
)
from coprompt.tuning import PromptSet, apply_adapter, make_adapters, trainable_parameters

from helpers import assert_grads_match, weight_digest


@contextmanager
def criterion(name):
    try:
        yield
        print(f"[ACCEPTANCE] PASS  {name}")
    except Exception:
        print(f"[ACCEPTANCE] FAIL  {name}")
        raise


def _unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# -- 1. gradient correctness -----------------------------------------------------


def test_gradient_correctness_ops_and_losses():
    """Every differentiable op and composite loss vs central differences."""
    start = time.time()
    with criterion("gradient correctness (ops + composite losses, <1 min)"):
        rng0 = np.random.default_rng(2024)
        proj = {}

        def lin(shape):
            key = shape
            if key not in proj:
                proj[key] = Tensor(rng0.normal(size=shape))
            return proj[key]

        op_cases = {
            "matmul": lambda ts: (ad.matmul(ts[0], ts[1]) * lin((3, 2))).sum(),
            "add": lambda ts: ((ts[0] + ts[1][0, :4]) * lin((3, 4))).sum(),
            "mul": lambda ts: ((ts[0] * ts[1][:, :4]) * lin((3, 4))).sum(),
            "concat": lambda ts: (ad.concat(ts, axis=0) * lin((7, 4))).sum(),
            "slice": lambda ts: (ad.slice_(ts[0], (slice(0, 2), slice(1, 3))) * lin((2, 2))).sum(),
            "mean": lambda ts: (ts[0].mean(axis=1) * lin((3,))).sum(),
            "layernorm": lambda ts: (ad.layernorm(ts[0]) * lin((3, 4))).sum(),
            "gelu": lambda ts: (ad.gelu(ts[0]) * lin((3, 4))).sum(),
            "relu": lambda ts: (ad.relu(ts[0] + 0.3) * lin((3, 4))).sum(),
            "softmax": lambda ts: (ad.softmax(ts[0], axis=-1) * lin((3, 4))).sum(),
            "exp": lambda ts: (ad.exp(ts[0]) * lin((3, 4))).sum(),
            "l2_normalize": lambda ts: (ad.l2_normalize(ts[0]) * lin((3, 4))).sum(),
            "cosine_similarity": lambda ts: ad.cosine_similarity(ts[0][0], ts[1][0, :4]),
            "cross_entropy_from_logits": lambda ts: ad.cross_entropy_from_logits(
                ts[0] * 3.0, np.asarray([0, 2, 1])),
        }
        for name, build in op_cases.items():
            for i in range(20):
                rng = np.random.default_rng(zlib.crc32(name.encode()) % 10_000 + i)
                a = rng.normal(size=(3, 4))
                b = rng.normal(size=(4, 2)) if name == "matmul" else rng.normal(size=(1, 5))
                if name == "concat":
                    b = rng.normal(size=(4, 4))
                assert_grads_match(build, [a, b] if name != "concat" else [a, b])

        # composite losses: consistency (all criteria), supervised, total
        for i in range(20):
            rng = np.random.default_rng(31_000 + i)
            ft, fi = _unit_rows(rng, (1, 8)), _unit_rows(rng, (1, 8))
            tt, ti = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
            for crit in ("cosine", "l1", "mse"):
                cfg = ConsistencyConfig(criterion=crit)
                assert_grads_match(
                    lambda ts: consistency_loss(cfg, ft, ts[0], fi, ts[1]), [tt, ti])
            cls = _unit_rows(rng, (4, 8))
            img = _unit_rows(rng, (1, 8))
            assert_grads_match(
                lambda ts: supervised_loss(ts[0], ts[1], np.asarray([1]), tau=0.2), [img, cls])
            lam = 4.0
            cfg = ConsistencyConfig()

            def total_build(ts):
                ce = supervised_loss(ts[0], ts[1], np.asarray([1]), tau=0.2)
                cc = consistency_loss(cfg, ft, ad.slice_(ts[1], slice(1, 2)), fi, ts[0])
                return total_loss(ce, cc, lam)

            assert_grads_match(total_build, [img, cls])
        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# -- 2. metric exactness -----------------------------------------------------------


def test_harmonic_mean_reference_values():
    with criterion("harmonic mean reproduces the reference pairs to +-0.01"):
        assert harmonic_mean(82.69, 63.22) == pytest.approx(71.66, abs=0.01)
        assert harmonic_mean(84.00, 77.23) == pytest.approx(80.48, abs=0.01)


# -- 3. equation-collapse identities ------------------------------------------------


def test_equation_collapse_identities(backbone, source):
    with criterion("equation-collapse identities (adapters, perturbation, lambda)"):
        tok = backbone.tokenizer
        rng = np.random.default_rng(5)
        cfg = ConsistencyConfig()

        # adapters at init: full loss equals the adapterless loss within 1e-6
        name = source.manifest.classes[0].name
        tokens = [tuple(tok.encode(f"a photo of a {name}"))]
        image = source.pixels[0]
        with ad.no_grad():
            f_text = backbone.encode_text(tokens).data
            f_img = backbone.encode_image(image[None]).data
        ps = PromptSet(backbone.config.width, backbone.config.layers, m=2,
                       rng=np.random.default_rng(6))
        text_sched, vision_sched = ps.schedules()
        with ad.no_grad():
            t_text = backbone.encode_text(tokens, prompts=text_sched)
            t_img = backbone.encode_image(image[None], prompts=vision_sched)
            adapters = make_adapters(backbone.config.embed_dim, "both",
                                     rng=np.random.default_rng(7))
            with_adp = consistency_loss(cfg,
                                        f_text, apply_adapter(adapters["text"], t_text),
                                        f_img, apply_adapter(adapters["image"], t_img))
            without = consistency_loss(cfg, f_text, t_text, f_img, t_img)
        assert abs(with_adp.item() - without.item()) <= 1e-6

        # perturbations disabled: identical inputs bitwise, loss values bitwise
        aug = Augmenter("none")
        va, vb = perturb_image(aug, image, rng)
        assert np.array_equal(va, image) and np.array_equal(vb, image)
        with ad.no_grad():
            f_img_a = backbone.encode_image(va[None]).data
            direct = consistency_loss(cfg, f_text, t_text, f_img, t_img).item()
            through_views = consistency_loss(cfg, f_text, t_text, f_img_a, t_img).item()
        assert direct == through_views

        # lambda=0 vs consistency-detached: bitwise-identical 50-step trajectories
        split = make_fewshot_split(source, shots=4, seed=0)
        base = dict(lr=0.035, momentum=0.9, batch_size=4, epochs=8, shots=4, seed=0)
        a = finetune(backbone, TrainConfig(lambda_=0.0, **base), split, max_steps=50)
        b = finetune(backbone, TrainConfig(lambda_=8.0, detach_consistency=True, **base),
                     split, max_steps=50)
        pa = trainable_parameters(a.model.prompt_set, a.model.adapters)
        pb = trainable_parameters(b.model.prompt_set, b.model.adapters)
        for (n1, t1), (_, t2) in zip(pa, pb):
            assert np.array_equal(t1.data, t2.data), n1
        assert [h["ce"] for h in a.history] == [h["ce"] for h in b.history]


# -- 4. freeze / determinism --------------------------------------------------------


def test_freeze_and_determinism_contract(backbone, source, tmp_path):
    with criterion("freeze + determinism + mid-run restore"):
        fingerprint = weight_digest(backbone)
        cfg = TrainConfig(seed=1, shots=4, epochs=2)
        split = make_fewshot_split(source, cfg.shots, cfg.seed)

        r1 = finetune(backbone, cfg, split, out_dir=str(tmp_path / "a"))
        r2 = finetune(backbone, cfg, split, out_dir=str(tmp_path / "b"))
        assert weight_digest(backbone) == fingerprint
        assert r1.content_hash == r2.content_hash

        straight = Trainer(backbone, cfg, split)
        straight.run(max_steps=25)
        first = Trainer(backbone, cfg, split)
        first.run(max_steps=12)
        first.save_state(str(tmp_path / "state"))
        resumed = Trainer.restore(backbone, cfg, split, str(tmp_path / "state"))
        resumed.run(max_steps=25)
        tail_a = [h["total"] for h in straight.history[12:25]]
        tail_b = [h["total"] for h in resumed.history[12:25]]
        assert len(tail_a) == 13 and tail_a == tail_b
        for (_, t1), (_, t2) in zip(straight.params, resumed.params):
            assert np.array_equal(t1.data, t2.data)


# -- 5. loss bounds ------------------------------------------------------------------


def test_loss_bound_suite(seed_study):
    with criterion("cosine consistency in [0,4]; total = ce + lambda*cc exactly"):
        rng = np.random.default_rng(99)
        cfg = ConsistencyConfig()
        for _ in range(10_000):
            ft, tt, fi, ti = (_unit_rows(rng, (1, 8)) for _ in range(4))
            v = consistency_loss(cfg, ft, Tensor(tt), fi, Tensor(ti)).item()
            assert -1e-12 <= v <= 4.0 + 1e-12
        for label, lam in (("on", 8.0), ("off", 0.0)):
            for run in seed_study["runs"][label]:
                for row in run["history"]:
                    assert -1e-12 <= row["cc"] <= 4.0 + 1e-12
                    assert row["total"] == row["ce"] + lam * row["cc"]
                assert -1e-12 <= run["metrics"]["final_train_cc"] <= 4.0 + 1e-12


# -- 6. directional generalization ----------------------------------------------------


def test_directional_generalization(seed_study):
    with criterion("consistency-on beats lambda=0 on median novel and HM (<20 min)"):
        on = seed_study["runs"]["on"]
        off = seed_study["runs"]["off"]
        novel_on = np.median([r["report"]["novel_acc"] for r in on])
        novel_off = np.median([r["report"]["novel_acc"] for r in off])
        hm_on = np.median([r["report"]["hm"] for r in on])
        hm_off = np.median([r["report"]["hm"] for r in off])
        print(f"   novel: on={novel_on:.2f} off={novel_off:.2f} | "
              f"hm: on={hm_on:.2f} off={hm_off:.2f} | "
              f"elapsed={seed_study['elapsed']:.0f}s")
        assert novel_on > novel_off
        assert hm_on > hm_off
        assert seed_study["elapsed"] < 20 * 60


# -- 7. overfitting telemetry ----------------------------------------------------------


def test_overfitting_telemetry(seed_study):
    with criterion("embedding deviation strictly smaller under lambda=8 (both branches)"):
        def med(label, key):
            return np.median([r["metrics"][key] for r in seed_study["runs"][label]])

        assert med("on", "text_deviation") < med("off", "text_deviation")
        assert med("on", "image_deviation") < med("off", "image_deviation")
        # the constraint binds: final consistency value lower when trained on
        assert med("on", "final_train_cc") < med("off", "final_train_cc")


# -- 8. ablation runner structure -------------------------------------------------------


def test_ablation_runner_structure(backbone_dir, source, tmp_path):
    with criterion("ablate emits the six component rows and all required axes"):
        import json

        from coprompt.checkpoints import read_json
        from coprompt.cli import main as cli_main

        out = tmp_path / "ablate"
        cfg_path = tmp_path / "ablate.json"
        cfg_path.write_text(json.dumps({
            "backbone": backbone_dir,
            "dataset": source.directory,
            "out": str(out),
            "seeds": [0],
            "axes": ["components", "criterion", "augmentation",
                     "adapter_layers", "lambda"],
            "train": {"epochs": 1, "shots": 2, "batch_size": 2},
        }))
        assert cli_main(["ablate", "--config", str(cfg_path)]) == 0
        results = read_json(out / "results.json")["results"]
        rows = {(r["axis"], r["row"]) for r in results}
        assert {r for a, r in rows if a == "components"} == {
            "full", "no_adapter", "no_perturb", "consistency_only",
            "adapter_no_consistency", "baseline"}
        assert {r for a, r in rows if a == "criterion"} == {"cosine", "l1", "mse"}
        assert {r for a, r in rows if a == "augmentation"} == {"same", "simple", "hard"}
        assert {r for a, r in rows if a == "adapter_layers"} == {"1", "2", "3"}
        assert {r for a, r in rows if a == "lambda"} == {"0.1", "1.0", "2.0", "8.0"}
        for r in results:
            assert np.isfinite(r["base"]) and np.isfinite(r["novel"]) and np.isfinite(r["hm"])
            row_dir = out / "rows" / r["axis"] / f"{r['row']}_seed{r['seed']}"
            assert (row_dir / "resolved_config.json").exists()


# -- 9. harness cross-checks --------------------------------------------------------------


def test_harness_cross_checks(backbone, suite, source, seed_study):
    with criterion("identity-shift exact; all-noise at chance; cross-dataset recomputation"):
        # the default study's seed-0 model, consistency on
        tuned = load_finetune_checkpoint(os.path.join(seed_study["dir"], "rows", "8.0_seed0"),
                                         backbone=backbone)[0]

        table = domain_gen_eval(tuned, [source, suite["fields_a-identity"],
                                        suite["fields_a-noise"]])
        accs = dict(table["rows"])
        assert accs["fields_a"] == accs["fields_a-identity"]
        chance = 100.0 / 12
        n = 12 * source.manifest.split.test
        band = 3 * 100 * np.sqrt((1 / 12) * (11 / 12) / n)
        assert abs(accs["fields_a-noise"] - chance) <= band

        targets = [suite["fields_b"], suite["fields_c"], suite["fields_d"]]
        table = cross_dataset_eval(tuned, [source, *targets])
        for (name, acc), ds in zip(table["rows"], targets):
            class_names = [c.name for c in ds.manifest.classes]
            correct = total = 0
            for pos, cls in enumerate(ds.manifest.classes):
                for pixels, _ in ds.pool([cls.id], "test"):
                    idx, _ = predict(tuned, pixels, class_names)
                    correct += idx == pos
                    total += 1
            assert abs(acc - 100.0 * correct / total) <= 1e-12
