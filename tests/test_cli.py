"""Command-line surface: exit codes, config strictness, end-to-end flows."""

import json
import os
import shutil

import numpy as np
import pytest

from coprompt.checkpoints import read_json
from coprompt.cli import main


def _write(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    """Tiny suite + backbone via the CLI itself; shared by the flow tests."""
    root = tmp_path_factory.mktemp("cli")
    suite_dir = root / "suite"
    assert main(["gen-data", "--out", str(suite_dir), "--override",
                 "source_counts=[6,1,3]", "--override", "target_counts=[4,1,2]"]) == 0
    bb_dir = root / "backbone"
    cfg = _write(root / "pretrain.json", {
        "datasets": [str(suite_dir / "fields_a"), str(suite_dir / "fields_b")],
        "out": str(bb_dir),
        "epochs": 1, "batch_size": 8, "lr": 0.05,
    })
    assert main(["pretrain", "--config", cfg]) == 0
    return root, suite_dir, bb_dir


TINY_TRAIN = {"epochs": 1, "batch_size": 2, "shots": 2, "prompt_m": 1,
              "lambda": 2.0}


def test_missing_dataset_path_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "p.json", {"datasets": [str(tmp_path / "nope")],
                                       "out": str(tmp_path / "bb")})
    assert main(["pretrain", "--config", cfg]) == 2
    assert "nope" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "g.json", {"out": str(tmp_path / "s"), "colour": 3})
    assert main(["gen-data", "--config", cfg]) == 2
    assert "colour" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("learning_rate", 1.0),
                                        ("supervised_path", "tuned"),
                                        ("adapter_residual", True)])
def test_unknown_train_key_exits_2(rig, tmp_path, capsys, key, value):
    root, suite_dir, bb_dir = rig
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(tmp_path / "ft"), "train": {key: value}})
    assert main(["finetune", "--config", cfg]) == 2
    assert key in capsys.readouterr().err


def test_finetune_refuses_class_names_outside_vocabulary(rig, tmp_path, capsys):
    # the rig backbone never saw fields_c, so its class names are not in the
    # vocabulary; each would encode as <unk> and every template would collide
    root, suite_dir, bb_dir = rig
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_c"),
        "out": str(tmp_path / "ft"), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown words:")
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("value", ["abc", "-3", "2.5"])
def test_bad_max_steps_exits_2(rig, tmp_path, capsys, value):
    root, suite_dir, bb_dir = rig
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(tmp_path / "ft"), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg, "--override", f"max_steps={value}"]) == 2
    assert "max_steps" in capsys.readouterr().err
    assert not (tmp_path / "ft").exists()


def test_invalid_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-data", "--config", str(bad)]) == 2


def test_gen_data_deterministic_and_ppm(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-data", "--out", str(out), "--override",
                     "source_counts=[2,1,1]", "--override", "target_counts=[2,1,1]",
                     "--override", "export_ppm=1"]) == 0
    ha = read_json(a / "resolved_config.json")["datasets"]
    hb = read_json(b / "resolved_config.json")["datasets"]
    assert ha == hb
    assert (a / "ppm" / "fields_a").exists()


def test_pretrain_deterministic_hashes(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    cfg = _write(tmp_path / "p2.json", {
        "datasets": [str(suite_dir / "fields_a"), str(suite_dir / "fields_b")],
        "out": str(tmp_path / "bb2"),
        "epochs": 1, "batch_size": 8, "lr": 0.05,
    })
    assert main(["pretrain", "--config", cfg]) == 0
    h1 = read_json(bb_dir / "manifest.json")["content_hash"]
    h2 = read_json(tmp_path / "bb2" / "manifest.json")["content_hash"]
    assert h1 == h2


def test_finetune_then_eval_flow(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    ft_dir = tmp_path / "ft"
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg]) == 0
    assert (ft_dir / "history.csv").exists()
    assert (ft_dir / "metrics.json").exists()
    assert read_json(ft_dir / "resolved_config.json")["max_steps"] is None

    ev = _write(tmp_path / "e.json", {
        "checkpoint": str(ft_dir), "protocol": "base_to_novel",
        "dataset": str(suite_dir / "fields_a"), "out": str(tmp_path / "ev")})
    assert main(["eval", "--config", ev]) == 0
    report = read_json(tmp_path / "ev" / "report.json")
    assert 0 <= report["base_acc"] <= 100
    assert (tmp_path / "ev" / "base_to_novel.txt").exists()


def test_finetune_records_max_steps(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    ft_dir = tmp_path / "ft"
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg, "--override", "max_steps=3"]) == 0
    assert read_json(ft_dir / "resolved_config.json")["max_steps"] == 3
    assert read_json(ft_dir / "metrics.json")["steps"] == 3


def test_eval_rederives_final_train_ce(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    ft_dir = tmp_path / "ft"
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg]) == 0
    ev = _write(tmp_path / "e.json", {
        "checkpoint": str(ft_dir), "protocol": "train_ce",
        "dataset": str(suite_dir / "fields_a"), "out": str(tmp_path / "ce")})
    assert main(["eval", "--config", ev]) == 0
    out = read_json(tmp_path / "ce" / "train_ce.json")
    assert out["difference"] <= 1e-9


def test_eval_zero_step_checkpoint_equals_backbone(rig, tmp_path):
    """A finetune run of 0 steps with no prompts/adapters is the raw backbone."""
    root, suite_dir, bb_dir = rig
    ft_dir = tmp_path / "ft0"
    cfg = _write(tmp_path / "f0.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir),
        "train": {"epochs": 0, "shots": 2, "prompt_m": 0, "adapter_modality": "none"}})
    assert main(["finetune", "--config", cfg]) == 0

    for ckpt, out in ((ft_dir, tmp_path / "ev_ft"), (bb_dir, tmp_path / "ev_bb")):
        ev = _write(tmp_path / f"e_{out.name}.json", {
            "checkpoint": str(ckpt), "protocol": "base_to_novel",
            "dataset": str(suite_dir / "fields_a"), "out": str(out)})
        assert main(["eval", "--config", ev]) == 0
    a = read_json(tmp_path / "ev_ft" / "report.json")
    b = read_json(tmp_path / "ev_bb" / "report.json")
    assert a["base_acc"] == b["base_acc"]
    assert a["novel_acc"] == b["novel_acc"]


def _flip_tensor_byte(ft, bb, ds):
    victim = next((ft / "tuned").glob("*.bin"))
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _edit_finetune_lambda(ft, bb, ds):
    _edit_json(ft / "config.json", lambda m: m["train"].update({"lambda": 99.0}))


def _add_backbone_manifest_key(ft, bb, ds):
    _edit_json(bb / "manifest.json", lambda m: m.update({"retrieval_accuracy": 1.0}))


def _unknown_sidecar_dtype(ft, bb, ds):
    _edit_json(next((ft / "tuned").glob("*.json")), lambda s: s.update({"dtype": "f16"}))


def _truncate_images(ft, bb, ds):
    path = ds / "images.bin"
    path.write_bytes(path.read_bytes()[:6])


def _append_to_images(ft, bb, ds):
    path = ds / "images.bin"
    path.write_bytes(path.read_bytes() + bytes(7))


@pytest.mark.parametrize("corrupt, message", [
    (_flip_tensor_byte, "hash"),
    (_edit_finetune_lambda, "hash"),
    (_add_backbone_manifest_key, "hash"),
    (_unknown_sidecar_dtype, "dtype"),
    (_truncate_images, "truncated"),
    (_append_to_images, "bytes"),
], ids=["tensor_byte_flip", "finetune_config_edit", "backbone_manifest_edit",
        "unknown_sidecar_dtype", "images_truncated", "images_trailing_bytes"])
def test_corrupted_checkpoint_refuses_to_run(rig, tmp_path, capsys, corrupt, message):
    root, suite_dir, bb_dir = rig
    bb, ds, ft_dir = tmp_path / "bb", tmp_path / "ds", tmp_path / "ft"
    shutil.copytree(bb_dir, bb)
    shutil.copytree(suite_dir / "fields_a", ds)
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb), "dataset": str(ds), "out": str(ft_dir), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg]) == 0
    corrupt(ft_dir, bb, ds)
    capsys.readouterr()
    ev = _write(tmp_path / "e.json", {
        "checkpoint": str(ft_dir), "protocol": "base_to_novel",
        "dataset": str(ds), "out": str(tmp_path / "ev")})
    assert main(["eval", "--config", ev]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert message in err
    assert not (tmp_path / "ev" / "report.json").exists()


def test_backbone_mismatch_refused(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    ft_dir = tmp_path / "ft"
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg]) == 0
    other_bb = tmp_path / "bb_other"
    p = _write(tmp_path / "p.json", {
        "datasets": [str(suite_dir / "fields_a"), str(suite_dir / "fields_b")],
        "out": str(other_bb), "epochs": 1, "batch_size": 8, "lr": 0.07})
    assert main(["pretrain", "--config", p]) == 0
    ev = _write(tmp_path / "e.json", {
        "checkpoint": str(ft_dir), "backbone": str(other_bb),
        "protocol": "base_to_novel",
        "dataset": str(suite_dir / "fields_a"), "out": str(tmp_path / "ev")})
    assert main(["eval", "--config", ev]) == 2


def test_ablate_structure(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    out = tmp_path / "ablate"
    cfg = _write(tmp_path / "a.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(out), "seeds": [0],
        "axes": ["components", "criterion", "augmentation", "adapter_layers", "lambda"],
        "train": TINY_TRAIN})
    assert main(["ablate", "--config", cfg]) == 0

    results = read_json(out / "results.json")["results"]
    rows = {(r["axis"], r["row"]) for r in results}
    component_rows = {r for a, r in rows if a == "components"}
    assert component_rows == {"full", "no_adapter", "no_perturb", "consistency_only",
                              "adapter_no_consistency", "baseline"}
    assert {r for a, r in rows if a == "criterion"} == {"cosine", "l1", "mse"}
    assert {r for a, r in rows if a == "augmentation"} == {"same", "simple", "hard"}
    assert {r for a, r in rows if a == "adapter_layers"} == {"1", "2", "3"}
    assert {r for a, r in rows if a == "lambda"} == {"0.1", "1.0", "2.0", "8.0"}
    for r in results:
        assert np.isfinite(r["hm"])
        row_dir = out / "rows" / r["axis"] / f"{r['row']}_seed{r['seed']}"
        assert (row_dir / "resolved_config.json").exists()
        assert (row_dir / "config.json").exists()
    # redundant perturbation-without-consistency combos are recorded as aliases
    aliases = read_json(out / "results.json")["component_aliases"]
    assert set(aliases.values()) == {"adapter_no_consistency", "baseline"}
    assert (out / "ablation_components_summary.csv").exists()


def test_ablate_rejects_unknown_axis(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    cfg = _write(tmp_path / "a.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(tmp_path / "x"), "axes": ["dropout"], "train": TINY_TRAIN})
    assert main(["ablate", "--config", cfg]) == 2


def test_ablate_all_off_row_matches_standalone_baseline(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    out = tmp_path / "ab2"
    cfg = _write(tmp_path / "a.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(out), "seeds": [3], "axes": ["components"], "train": TINY_TRAIN})
    assert main(["ablate", "--config", cfg]) == 0
    results = read_json(out / "results.json")["results"]
    baseline_hash = next(r["checkpoint_hash"] for r in results if r["row"] == "baseline")

    ft_dir = tmp_path / "standalone"
    train = dict(TINY_TRAIN, seed=3,
                 consistency={"enabled": False, "perturb_text": False,
                              "perturb_image": "none"},
                 adapter_modality="none")
    f = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir), "train": train})
    assert main(["finetune", "--config", f]) == 0
    standalone_hash = read_json(ft_dir / "config.json")["content_hash"]
    assert baseline_hash == standalone_hash


def test_sweep_lambda_axis(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    out = tmp_path / "sweep"
    cfg = _write(tmp_path / "s.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(out), "axis": "lambda", "values": [0.1, 8.0],
        "seeds": [0], "train": TINY_TRAIN})
    assert main(["sweep", "--config", cfg]) == 0
    results = read_json(out / "results.json")["results"]
    assert {r["row"] for r in results} == {"0.1", "8.0"}


def test_threads_env_respected(rig, tmp_path, monkeypatch):
    monkeypatch.setenv("COPROMPT_THREADS", "2")
    root, suite_dir, bb_dir = rig
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(out), "axis": "lambda", "values": [0.1, 1.0],
        "seeds": [0], "train": TINY_TRAIN})
    assert main(["sweep", "--config", cfg]) == 0
    assert len(read_json(out / "results.json")["results"]) == 2


def test_override_parsing(tmp_path):
    from coprompt.cli import _parse_override, ConfigError
    assert _parse_override("train.lambda=8.0") == ("train.lambda", 8.0)
    assert _parse_override("axes=[\"lambda\"]") == ("axes", ["lambda"])
    assert _parse_override("name=plain") == ("name", "plain")
    with pytest.raises(ConfigError):
        _parse_override("no_equals_sign")
