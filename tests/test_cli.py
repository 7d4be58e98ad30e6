"""Command-line surface: exit codes, config strictness, end-to-end flows."""

import json
import os
import pickle
import shutil
import weakref

import numpy as np
import pytest

from coprompt import checkpoints, evaluation
from coprompt.checkpoints import (
    FORMAT_VERSION,
    CheckpointError,
    read_json,
    write_checkpoint,
    write_json,
)
from coprompt.cli import main
from coprompt.datasets import SOURCE_FAMILY, TARGET_FAMILIES, VARIANT_SHIFTS, Dataset
from coprompt.encoders import (
    DualEncoder,
    EncoderConfig,
    Tokenizer,
    VocabularyError,
    load_backbone,
    save_backbone,
)
from coprompt.training import NonFiniteLossError

from helpers import write_version_1_images


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
    # the verified manifest is the one record of the backbone's hash
    assert "content_hash" not in read_json(tmp_path / "bb2" / "pretrain_metrics.json")


def test_finetune_then_eval_flow(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    ft_dir = tmp_path / "ft"
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir), "train": TINY_TRAIN})
    assert main(["finetune", "--config", cfg]) == 0
    assert (ft_dir / "history.csv").read_text().startswith("step,ce,cc,total\n1,")
    assert "final_train_total" not in read_json(ft_dir / "metrics.json")
    assert read_json(ft_dir / "resolved_config.json")["max_steps"] is None

    ev = _write(tmp_path / "e.json", {
        "checkpoint": str(ft_dir), "protocol": "base_to_novel",
        "dataset": str(suite_dir / "fields_a"), "out": str(tmp_path / "ev")})
    assert main(["eval", "--config", ev]) == 0
    report = read_json(tmp_path / "ev" / "report.json")
    assert 0 <= report["base_acc"] <= 100
    assert sorted(os.listdir(tmp_path / "ev")) == ["report.json", "resolved_config.json"]


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


@pytest.mark.parametrize("metrics", [
    '{"steps": 1}', '[1.5]', '{"final_train_ce": 1.', '{"final_train_ce": "1.5"}',
], ids=["key_missing", "not_an_object", "truncated", "not_a_number"])
def test_train_ce_refuses_a_bad_metrics_file(rig, tmp_path, capsys, metrics):
    """metrics.json is outside the checkpoint hash, so `train_ce` checks the
    recorded value itself: one `error:` line naming the file and the key."""
    root, suite_dir, bb_dir = rig
    ft_dir = tmp_path / "ft"
    assert main(["finetune", "--config", _write(tmp_path / "f.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(ft_dir), "train": TINY_TRAIN})]) == 0
    (ft_dir / "metrics.json").write_text(metrics)
    capsys.readouterr()
    ev = _write(tmp_path / "e.json", {
        "checkpoint": str(ft_dir), "protocol": "train_ce",
        "dataset": str(suite_dir / "fields_a"), "out": str(tmp_path / "ce")})
    assert main(["eval", "--config", ev]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "metrics.json" in err[0] and "final_train_ce" in err[0]
    assert not (tmp_path / "ce" / "train_ce.json").exists()


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


def test_eval_report_does_not_depend_on_where_the_checkpoint_is(rig, tmp_path):
    root, suite_dir, bb_dir = rig
    reports = []
    for where in ("a", "b/deeper"):
        ckpt = tmp_path / where / "bb"
        shutil.copytree(bb_dir, ckpt)
        ev = _write(tmp_path / where / "e.json", {
            "checkpoint": str(ckpt), "protocol": "base_to_novel",
            "dataset": str(suite_dir / "fields_a"), "out": str(tmp_path / where / "ev")})
        assert main(["eval", "--config", ev]) == 0
        reports.append((tmp_path / where / "ev" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def _run_tree(root):
    """The tiny pipeline under `root`, every path absolute: gen-data, a
    1-epoch pretrain on all four families, a fine-tune, an eval of each
    protocol and a one-row sweep."""
    suite, bb, ft = root / "suite", root / "backbone", root / "ft"
    assert main(["gen-data", "--out", str(suite), "--override", "source_counts=[6,1,3]",
                 "--override", "target_counts=[4,1,2]"]) == 0
    families = [str(suite / f) for f in (SOURCE_FAMILY, *TARGET_FAMILIES)]
    assert main(["pretrain", "--config", _write(root / "p.json", {
        "datasets": families, "out": str(bb), "epochs": 1, "batch_size": 8})]) == 0
    source = str(suite / SOURCE_FAMILY)
    assert main(["finetune", "--config", _write(root / "f.json", {
        "backbone": str(bb), "dataset": source, "out": str(ft), "train": TINY_TRAIN})]) == 0
    for protocol in ("base_to_novel", "train_ce"):
        cfg = {"checkpoint": str(ft), "protocol": protocol, "dataset": source,
               "out": str(root / protocol)}
        assert main(["eval", "--config", _write(root / f"e_{protocol}.json", cfg)]) == 0
    for protocol in ("cross_dataset", "domain_gen"):
        cfg = _multi_eval_config(protocol, suite, ft, root / protocol)
        assert main(["eval", "--config", _write(root / f"e_{protocol}.json", cfg)]) == 0
    assert main(["sweep", "--config", _write(root / "s.json", {
        "backbone": str(bb), "dataset": source, "out": str(root / "sweep"),
        "axis": "lambda", "values": [2.0], "seeds": [0], "train": TINY_TRAIN})]) == 0


def _identities(root):
    """{(file, key): value} of every `content_hash` and `checkpoint_hash` in
    the JSON files under `root`, and {file: bytes} of every report."""
    found = {}

    def walk(path, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k in ("content_hash", "checkpoint_hash"):
                    found[path, k] = v
                walk(path, v)
        elif isinstance(obj, list):
            for v in obj:
                walk(path, v)

    for p in root.rglob("*.json"):
        walk(str(p.relative_to(root)), json.loads(p.read_text()))
    reports = {str(p.relative_to(root)): p.read_bytes()
               for p in root.rglob("*") if p.name in ("report.json", "train_ce.json")}
    return found, reports


def test_run_tree_does_not_depend_on_its_root(tmp_path):
    """The same pipeline under two absolute roots gives the same content and
    checkpoint hashes and byte-identical reports: no path is hashed."""
    one, two = tmp_path / "one", tmp_path / "two" / "deeper"
    for root in (one, two):
        _run_tree(root)
    hashes, reports = _identities(one)
    assert (hashes, reports) == _identities(two)
    files = {name for name, _ in hashes}
    assert {"backbone/manifest.json", "ft/config.json",
            "sweep/rows/2.0_seed0/config.json", "sweep/results.json"} <= files
    assert len(reports) == 4


def test_moved_finetune_evaluates_with_its_backbone_named(rig, tmp_path, capsys):
    """A fine-tune moved with its backbone to a new root gives the same
    report when the eval config names the backbone; with none named, the
    stale directory the checkpoint recorded exits 2 with one `error:` line."""
    root, suite_dir, bb_dir = rig
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(bb_dir, old / "bb")
    dataset = str(suite_dir / SOURCE_FAMILY)
    assert main(["finetune", "--config", _write(tmp_path / "f.json", {
        "backbone": str(old / "bb"), "dataset": dataset, "out": str(old / "ft"),
        "train": TINY_TRAIN})]) == 0
    assert read_json(old / "ft" / "config.json")["hint"] == {"backbone_dir": str(old / "bb")}

    def evaluate(where, **named):
        cfg = dict(named, checkpoint=str(where / "ft"), protocol="base_to_novel",
                   dataset=dataset, out=str(where / "ev"))
        return main(["eval", "--config", _write(where / "e.json", cfg)])

    assert evaluate(old) == 0
    report = (old / "ev" / "report.json").read_bytes()
    shutil.rmtree(old / "ev")
    os.rename(old, new)
    assert evaluate(new, backbone=str(new / "bb")) == 0
    assert (new / "ev" / "report.json").read_bytes() == report
    shutil.rmtree(new / "ev")
    capsys.readouterr()
    assert evaluate(new) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(old / "bb") in err[0]
    assert not (new / "ev" / "report.json").exists()


@pytest.mark.parametrize("target", ["finetune", "backbone", "train_state"])
def test_eval_refuses_to_write_over_a_checkpoint(rig, tmp_path, capsys, target):
    """An eval `out` that holds a checkpoint manifest exits 2 with one
    `error:` line, and every file of the checkpoint is left byte-unchanged."""
    root, suite_dir, bb_dir = rig
    bb, ft = tmp_path / "bb", tmp_path / "ft"
    shutil.copytree(bb_dir, bb)
    dataset = str(suite_dir / SOURCE_FAMILY)
    assert main(["finetune", "--config", _write(tmp_path / "f.json", {
        "backbone": str(bb), "dataset": dataset, "out": str(ft), "train": TINY_TRAIN})]) == 0
    out = {"finetune": ft, "backbone": bb, "train_state": tmp_path / "state"}[target]
    if target == "train_state":
        write_checkpoint(str(out), {"kind": "train_state", "format_version": FORMAT_VERSION}, [])
        assert os.listdir(out) == ["state.json"]
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["eval", "--config", _write(tmp_path / "e.json", {
        "checkpoint": str(ft), "protocol": "base_to_novel", "dataset": dataset,
        "out": str(out)})]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(out) in err[0]
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def _as_format_version_1(manifest_path):
    """Rewrite a manifest as format_version 1, with a matching content hash,
    so that its version is the only thing wrong with it."""
    def edit(m):
        m["format_version"] = 1
        meta = {k: v for k, v in m.items() if k not in ("tensors", "content_hash")}
        m["content_hash"] = checkpoints.content_hash(
            meta, {k: v["sha256"] for k, v in m["tensors"].items()})
    _edit_json(manifest_path, edit)


@pytest.mark.parametrize("artefact", ["backbone", "finetune"])
def test_format_version_1_is_refused(rig, tmp_path, capsys, artefact):
    root, suite_dir, bb_dir = rig
    bb, ft = tmp_path / "bb", tmp_path / "ft"
    shutil.copytree(bb_dir, bb)
    dataset = str(suite_dir / SOURCE_FAMILY)
    assert main(["finetune", "--config", _write(tmp_path / "f.json", {
        "backbone": str(bb), "dataset": dataset, "out": str(ft), "train": TINY_TRAIN})]) == 0
    _as_format_version_1({"backbone": bb / "manifest.json",
                          "finetune": ft / "config.json"}[artefact])
    capsys.readouterr()
    assert main(["eval", "--config", _write(tmp_path / "e.json", {
        "checkpoint": str(ft), "protocol": "base_to_novel", "dataset": dataset,
        "out": str(tmp_path / "ev")})]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"{artefact} checkpoint of format_version 1" in err[0]
    assert not (tmp_path / "ev").exists()


def _flip_tensor_byte(ft, bb, ds):
    victim = next((ft / "tuned").glob("*.bin"))
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _to_directory(path):
    """Replace the file at `path` with an empty directory."""
    path.unlink()
    path.mkdir()


def _tensor_is_a_directory(ft, bb, ds):
    _to_directory(next((ft / "tuned").glob("*.bin")))


def _finetune_config_is_a_directory(ft, bb, ds):
    _to_directory(ft / "config.json")


def _images_is_a_directory(ft, bb, ds):
    _to_directory(ds / "images.bin")


def _edit_finetune_lambda(ft, bb, ds):
    _edit_json(ft / "config.json", lambda m: m["train"].update({"lambda": 99.0}))


def _edit_finetune_hint(ft, bb, ds):
    _edit_json(ft / "config.json", lambda m: m.update({"hint": ["not", "an", "object"]}))


def _add_backbone_manifest_key(ft, bb, ds):
    _edit_json(bb / "manifest.json", lambda m: m.update({"retrieval_accuracy": 1.0}))


def _transpose_manifest_shape(ft, bb, ds):
    # the content hash does not cover shapes; the loader's own shapes catch it
    def edit(m):
        entry = m["tensors"]["adapter.text.w0"]
        entry["shape"] = entry["shape"][::-1]
    _edit_json(ft / "config.json", edit)


def _backbone_manifest_not_an_object(ft, bb, ds):
    (bb / "manifest.json").write_text("[]")


def _finetune_config_not_an_object(ft, bb, ds):
    (ft / "config.json").write_text("[]")


def _finetune_tensors_not_an_object(ft, bb, ds):
    _edit_json(ft / "config.json", lambda m: m.update({"tensors": []}))


def _truncate_finetune_config(ft, bb, ds):
    path = ft / "config.json"
    path.write_bytes(path.read_bytes()[:40])


def _truncate_images(ft, bb, ds):
    path = ds / "images.bin"
    path.write_bytes(path.read_bytes()[:6])


def _append_to_images(ft, bb, ds):
    path = ds / "images.bin"
    path.write_bytes(path.read_bytes() + bytes(7))


def _images_format_1(ft, bb, ds):
    write_version_1_images(ds)


def _grow_dataset_split(ft, bb, ds):
    _edit_json(ds / "manifest.json", lambda m: m["split"].update(test=m["split"]["test"] + 1))


@pytest.mark.parametrize("corrupt, message", [
    (_flip_tensor_byte, "hash"),
    (_edit_finetune_lambda, "hash"),
    (_edit_finetune_hint, "not found"),
    (_add_backbone_manifest_key, "hash"),
    (_transpose_manifest_shape, "shape mismatch"),
    (_backbone_manifest_not_an_object, "not a JSON object"),
    (_finetune_config_not_an_object, "not a JSON object"),
    (_finetune_tensors_not_an_object, "not a JSON object"),
    (_truncate_finetune_config, "config.json"),
    (_truncate_images, "truncated"),
    (_append_to_images, "bytes"),
    (_grow_dataset_split, "records"),
    (_images_format_1, "version 1"),
    (_tensor_is_a_directory, "not a regular file"),
    (_finetune_config_is_a_directory, "not a regular file"),
    (_images_is_a_directory, "not a regular file"),
], ids=["tensor_byte_flip", "finetune_config_edit", "finetune_hint_edit",
        "backbone_manifest_edit",
        "tensor_shape_edit", "backbone_manifest_not_object", "finetune_config_not_object",
        "finetune_tensors_not_object", "finetune_config_truncated", "images_truncated", "images_trailing_bytes",
        "dataset_split_edit", "images_format_1", "tensor_is_a_directory",
        "finetune_config_is_a_directory", "images_is_a_directory"])
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


class _CutShort(Exception):
    pass


@pytest.mark.parametrize("tensors_written", [1, 5])
@pytest.mark.parametrize("over_existing", [False, True], ids=["fresh_dir", "over_existing"])
def test_checkpoint_write_cut_short_is_refused(rig, tmp_path, capsys, monkeypatch,
                                               over_existing, tensors_written):
    """`write_checkpoint` dying after k tensors leaves either no manifest or
    the old one, whose hashes the new tensors fail: the reader refuses both,
    and the CLI exits 2 with one `error:` line."""
    root, suite_dir, bb_dir = rig
    bb = tmp_path / "bb"
    if over_existing:
        shutil.copytree(bb_dir, bb)
    enc = load_backbone(str(bb_dir))
    for t in enc.weights.values():
        t.data = t.data + 0.5
    write_tensor, written = checkpoints.write_tensor, []

    def cut_short(*args, **kwargs):
        if len(written) == tensors_written:
            raise _CutShort
        written.append(args[1])
        return write_tensor(*args, **kwargs)

    monkeypatch.setattr(checkpoints, "write_tensor", cut_short)
    with pytest.raises(_CutShort):
        save_backbone(str(bb), enc)
    monkeypatch.undo()
    with pytest.raises(CheckpointError):
        load_backbone(str(bb))
    cfg = _write(tmp_path / "f.json", {
        "backbone": str(bb), "dataset": str(suite_dir / "fields_a"),
        "out": str(tmp_path / "ft"), "train": TINY_TRAIN})
    capsys.readouterr()
    assert main(["finetune", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not (tmp_path / "ft").exists()


def test_write_json_cut_short_keeps_the_old_file(tmp_path):
    path = str(tmp_path / "manifest.json")
    write_json(path, {"a": 1})
    with pytest.raises(TypeError):
        write_json(path, {"a": 2, "b": object()})
    assert read_json(path) == {"a": 1}


def _command_config(command, bb_dir, ds, out):
    """A config for `command` that runs the tiny rig on dataset `ds` into `out`."""
    runs = {"backbone": str(bb_dir), "dataset": str(ds), "out": str(out),
            "train": TINY_TRAIN}
    return {"gen-data": {"out": str(out)},
            "pretrain": {"datasets": [str(ds)], "out": str(out)},
            "finetune": runs,
            "eval": {"checkpoint": str(bb_dir), "protocol": "base_to_novel",
                     "dataset": str(ds), "out": str(out)},
            "ablate": dict(runs, axes=["lambda"]),
            "sweep": dict(runs, axis="lambda", values=[1.0])}[command]


def _manifest(edit):
    return lambda ds, cfg: _edit_json(ds / "manifest.json", edit)


def _drop_manifest_noise(m):
    del m["noise"]


def _manifest_split_train_as_string(m):
    m["split"]["train"] = "6"


def _manifest_base_id_99(m):
    m["split"]["base"][-1] = 99


def _manifest_class_ids_swapped(m):
    m["classes"][0]["id"], m["classes"][1]["id"] = 1, 0


def _manifest_format_version_7(m):
    m["format_version"] = 7


def _backbone_of_image_size_16(ds, cfg):
    """Point the config at a random backbone that takes 16-pixel images."""
    bb = ds.parent / "bb16"
    tokenizer = Tokenizer.from_manifests([Dataset.load(str(ds)).manifest])
    save_backbone(str(bb), DualEncoder(EncoderConfig(image_size=16), tokenizer, seed=0,
                                       frozen=True))
    _edit_json(cfg, lambda c: c.update({"checkpoint" if "checkpoint" in c else "backbone":
                                        str(bb)}))


@pytest.mark.parametrize("command, overrides, corrupt, named", [
    ("finetune", ["train.lr=abc"], None, "train.lr"),
    ("finetune", ["train.shots=2.5"], None, "train.shots"),
    ("finetune", ["train.consistency=5"], None, "consistency config"),
    ("finetune", ["train=7"], None, "train config"),
    ("finetune", ["train=7", "train.shots=2"], None, "'train'"),
    ("finetune", ["train.lambda=true"], None, "train.lambda"),
    ("gen-data", ["source_counts=5"], None, "source_counts"),
    ("eval", ["protocol=cross_dataset", "targets=5"], None, "targets"),
    ("eval", ["protocol=domain_gen", "variants=5"], None, "variants"),
    ("eval", ["protocol=cross_dataset", "targets=[]"], None, "targets"),
    ("eval", ["protocol=domain_gen", "variants=[]"], None, "variants"),
    ("ablate", ["seeds=5"], None, "seeds"),
    ("ablate", ["train=[1]"], None, "train"),
    ("sweep", ["values=5"], None, "values"),
    ("finetune", [], _manifest(_drop_manifest_noise), "noise"),
    ("finetune", [], _manifest(_manifest_split_train_as_string), "split.train"),
    ("pretrain", ["encoder.text_len=8"], None, "text_len"),
    ("finetune", ["train.prompt_m=12"], None, "text_len"),
    ("gen-data", ["source_counts=[-1,2,3]"], None, "source_counts"),
    ("gen-data", ["source_counts=[0,0,0]"], None, "source_counts"),
    ("gen-data", ["source_counts=[1,2]"], None, "source_counts"),
    ("gen-data", ["target_counts=[4,-1,2]"], None, "target_counts"),
    ("gen-data", ["noise=-1"], None, "noise"),
    ("finetune", [], _manifest(_manifest_base_id_99), "[99]"),
    ("eval", [], _manifest(_manifest_base_id_99), "[99]"),
    ("finetune", [], _manifest(_manifest_class_ids_swapped), "has id 1"),
    ("eval", [], _manifest(_manifest_class_ids_swapped), "has id 1"),
    ("finetune", [], lambda ds, cfg: _to_directory(cfg), "c.json"),
    ("eval", [], lambda ds, cfg: _to_directory(ds / "manifest.json"), "ds/manifest.json"),
    ("finetune", [], lambda ds, cfg: _to_directory(ds / "images.bin"), "ds/images.bin"),
    ("pretrain", ["encoder.heads=0"], None, "'encoder.heads'"),
    ("pretrain", ["encoder.patch_grid=0"], None, "'encoder.patch_grid'"),
    ("pretrain", ["encoder.layers=0"], None, "'encoder.layers'"),
    ("pretrain", ["encoder.embed_dim=0"], None, "'encoder.embed_dim'"),
    ("pretrain", ["encoder.image_size=16"], None, "ds has image_size 32"),
    ("pretrain", ["encoder.channels=1"], None, "ds has image_size 32 and channels 3"),
    ("pretrain", ["epochs=0"], None, "'epochs'"),
    ("pretrain", ["batch_size=1"], None, "'batch_size'"),
    ("finetune", [], _manifest(_manifest_format_version_7), "'format_version' is 7"),
    ("eval", [], _manifest(_manifest_format_version_7), "'format_version' is 7"),
    ("finetune", [], _backbone_of_image_size_16, "ds has image_size 32"),
    ("eval", [], _backbone_of_image_size_16, "ds has image_size 32"),
    ("finetune", ["train.shots=0"], None, "'train.shots'"),
    ("finetune", ["train.lr=-1"], None, "'train.lr'"),
    ("finetune", ["train.momentum=5"], None, "'train.momentum'"),
    ("pretrain", ["lr=0"], None, "'lr'"),
    ("sweep", [], {"COPROMPT_THREADS": "abc"}, "COPROMPT_THREADS"),
    ("sweep", [], {"COPROMPT_THREADS": "0"}, "COPROMPT_THREADS"),
    ("sweep", ["values=[2.0,2.0]"], None, "out/rows/2.0_seed0"),
    ("sweep", ["seeds=[0,0]"], None, "out/rows/1.0_seed0"),
    ("sweep", ["values=[]"], None, "'values'"),
    ("sweep", ["seeds=[]"], None, "'seeds'"),
    ("ablate", ["axes=[]"], None, "'axes'"),
    ("ablate", ["seeds=[]"], None, "'seeds'"),
    ("ablate", ['axes=["lambda","lambda"]'], None, "out/rows/lambda/0.1_seed0"),
    ("finetune", ["train.adapter_modality=foo"], None, "'train.adapter_modality'"),
    ("finetune", ["train.adapter_modality=none", "train.adapter_layers=5"], None,
     "'train.adapter_layers'"),
    ("finetune", ["train.adapter_layers=0"], None, "'train.adapter_layers'"),
    ("finetune", ["train.prompt_m=-1"], None, "'train.prompt_m'"),
    ("finetune", ["train.prompt_depth=-1"], None, "'train.prompt_depth'"),
    ("finetune", ["train.prompt_depth=9"], None, "'train.prompt_depth'"),
    ("pretrain", ["encoder.heads=3"], None, "'encoder.heads'"),
    ("pretrain", ["encoder.patch_grid=5"], None, "'encoder.patch_grid'"),
], ids=["train_lr_string", "train_shots_float", "train_consistency_int", "train_int",
        "override_inside_train_int", "train_lambda_bool", "gen_data_source_counts_int",
        "eval_targets_int", "eval_variants_int", "eval_targets_empty",
        "eval_variants_empty", "ablate_seeds_int", "ablate_train_list",
        "sweep_values_int", "manifest_noise_missing", "manifest_split_train_string",
        "pretrain_captions_over_text_len", "finetune_prompts_over_text_len",
        "gen_data_negative_count", "gen_data_no_image_per_class", "gen_data_two_counts",
        "gen_data_negative_target_count", "gen_data_negative_noise",
        "finetune_base_id_out_of_range", "eval_base_id_out_of_range",
        "finetune_class_id_not_its_position", "eval_class_id_not_its_position",
        "config_is_a_directory", "manifest_is_a_directory", "images_is_a_directory",
        "encoder_heads_0", "encoder_patch_grid_0", "encoder_layers_0", "encoder_embed_dim_0",
        "encoder_image_size_not_the_datasets", "encoder_channels_not_the_datasets",
        "pretrain_epochs_0", "pretrain_batch_size_1", "finetune_manifest_format_version_7",
        "eval_manifest_format_version_7", "finetune_backbone_of_another_image_size",
        "eval_backbone_of_another_image_size", "train_shots_0", "train_lr_negative",
        "train_momentum_5", "pretrain_lr_0", "threads_env_not_an_integer", "threads_env_0",
        "sweep_values_repeated", "sweep_seeds_repeated", "sweep_values_empty",
        "sweep_seeds_empty", "ablate_axes_empty", "ablate_seeds_empty", "ablate_axes_repeated",
        "train_adapter_modality_unknown", "train_adapter_layers_5_without_adapters",
        "train_adapter_layers_0", "train_prompt_m_negative", "train_prompt_depth_negative",
        "train_prompt_depth_over_layers", "encoder_heads_not_dividing_width",
        "encoder_patch_grid_not_dividing_image_size"])
def test_malformed_input_exits_2(rig, tmp_path, capsys, monkeypatch, command, overrides,
                                 corrupt, named):
    """Every unknown, missing, wrong-typed or out-of-range config, manifest
    or environment value, a dataset of another image shape than the
    backbone's, and a directory where a file is read, exits 2 with one
    `error:` line, before anything is written. A dict `corrupt` sets
    environment variables."""
    root, suite_dir, bb_dir = rig
    ds, out, cfg = tmp_path / "ds", tmp_path / "out", tmp_path / "c.json"
    shutil.copytree(suite_dir / "fields_a", ds)
    _write(cfg, _command_config(command, bb_dir, ds, out))
    if isinstance(corrupt, dict):
        for name, value in corrupt.items():
            monkeypatch.setenv(name, value)
    elif corrupt is not None:
        corrupt(ds, cfg)
    argv = [command, "--config", str(cfg)]
    for override in overrides:
        argv += ["--override", override]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
@pytest.mark.parametrize("command", ["gen-data", "pretrain", "finetune", "eval",
                                     "ablate", "sweep"])
def test_out_path_that_is_a_file_exits_2(rig, tmp_path, capsys, monkeypatch, command, below):
    """An `out` that is a file, or lies below one, exits 2 with one `error:`
    line before any dataset is loaded or built, and the file is kept."""
    root, suite_dir, bb_dir = rig
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "run" if below else afile

    def no_dataset(*args, **kwargs):
        raise AssertionError("a dataset was loaded before the out path was checked")

    monkeypatch.setattr(Dataset, "__init__", no_dataset)
    cfg = _command_config(command, bb_dir, suite_dir / SOURCE_FAMILY, out)
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path / "c.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(afile) in err[0]
    assert afile.read_text() == "kept"


@pytest.fixture(scope="module")
def wide_backbone(rig):
    """A random frozen backbone whose vocabulary covers all four families,
    so every target of the rig suite can be scored zero-shot."""
    root, suite_dir, bb_dir = rig
    manifests = [Dataset.load(str(suite_dir / f)).manifest
                 for f in (SOURCE_FAMILY, *TARGET_FAMILIES)]
    enc = DualEncoder(EncoderConfig(), Tokenizer.from_manifests(manifests), seed=0, frozen=True)
    save_backbone(str(root / "wide_backbone"), enc)
    return root / "wide_backbone"


def _multi_eval_config(protocol, suite_dir, backbone, out, last=None):
    """A cross_dataset (three targets) or domain_gen (four variants) eval
    config; `last`, when given, replaces the last target or variant."""
    cfg = {"checkpoint": str(backbone), "protocol": protocol, "out": str(out)}
    if protocol == "cross_dataset":
        cfg["dataset"] = str(suite_dir / SOURCE_FAMILY)
        key, dirs = "targets", [suite_dir / f for f in TARGET_FAMILIES]
    else:
        key, dirs = "variants", [suite_dir / f"{SOURCE_FAMILY}-{v}" for v in VARIANT_SHIFTS]
    if last is not None:
        dirs[-1] = last
    cfg[key] = [str(d) for d in dirs]
    return cfg


@pytest.mark.parametrize("protocol", ["cross_dataset", "domain_gen"])
def test_eval_maps_one_dataset_at_a_time(rig, wide_backbone, tmp_path, monkeypatch, protocol):
    """Each pool is scored with only its own dataset alive, and the report
    equals the one the harness gives over a list of the loaded datasets."""
    root, suite_dir, bb_dir = rig
    live, alive_at_score = weakref.WeakSet(), []
    init, pool_accuracy = Dataset.__init__, evaluation._pool_accuracy

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)

    def counted_pool_accuracy(*args, **kwargs):
        alive_at_score.append(len(live))
        return pool_accuracy(*args, **kwargs)

    monkeypatch.setattr(Dataset, "__init__", tracked_init)
    monkeypatch.setattr(evaluation, "_pool_accuracy", counted_pool_accuracy)
    cfg = _multi_eval_config(protocol, suite_dir, wide_backbone, tmp_path / "ev")
    assert main(["eval", "--config", _write(tmp_path / "e.json", cfg)]) == 0
    monkeypatch.undo()
    assert alive_at_score == [1, 1, 1, 1]

    report = read_json(tmp_path / "ev" / "report.json")
    model = load_backbone(str(wide_backbone))
    if protocol == "cross_dataset":
        table = evaluation.cross_dataset_eval(
            model, [Dataset.load(p) for p in [cfg["dataset"], *cfg["targets"]]])
    else:
        table = evaluation.domain_gen_eval(model, [Dataset.load(p) for p in cfg["variants"]])
    assert report["rows"] == [list(r) for r in table["rows"]]
    assert report["average"] == table["average"]


@pytest.mark.parametrize("protocol", ["base_to_novel", "cross_dataset", "domain_gen"])
def test_eval_refuses_an_empty_test_pool(rig, tmp_path, capsys, protocol):
    """A suite generated with no test image per class is a data error (exit
    2, one line naming the dataset, the pool and its per-class count), not a
    failure inside the image encoder."""
    root, suite_dir, bb_dir = rig
    suite = tmp_path / "suite"
    assert main(["gen-data", "--out", str(suite), "--override", "source_counts=[2,1,0]",
                 "--override", "target_counts=[2,1,0]"]) == 0
    if protocol == "base_to_novel":
        cfg = {"checkpoint": str(bb_dir), "protocol": protocol,
               "dataset": str(suite / SOURCE_FAMILY), "out": str(tmp_path / "ev")}
        first = suite / SOURCE_FAMILY
    else:
        cfg = _multi_eval_config(protocol, suite, bb_dir, tmp_path / "ev")
        first = cfg.get("dataset") or cfg["variants"][0]
    capsys.readouterr()
    assert main(["eval", "--config", _write(tmp_path / "e.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(first) in err[0] and "'test' pool" in err[0] and "0 images per class" in err[0]
    assert not (tmp_path / "ev" / "report.json").exists()


@pytest.mark.parametrize("protocol, last, named", [
    ("cross_dataset", "missing", "target dataset not found"),
    ("domain_gen", "missing", "variant dataset not found"),
    ("cross_dataset", "malformed", "manifest.json"),
    ("domain_gen", "malformed", "manifest.json"),
    ("domain_gen", "other_classes", "different class set"),
])
def test_streamed_eval_keeps_the_failure_contract(rig, wide_backbone, tmp_path, capsys,
                                                   monkeypatch, protocol, last, named):
    """A bad last target or variant exits 2 with one `error:` line and no
    report; a missing one does so before any image is encoded."""
    root, suite_dir, bb_dir = rig
    bad = {"missing": tmp_path / "nope", "malformed": tmp_path / "malformed",
           "other_classes": suite_dir / "fields_b"}[last]
    if last == "malformed":
        shutil.copytree(suite_dir / f"{SOURCE_FAMILY}-noise", bad)
        (bad / "manifest.json").write_text("{not json")
    encoded, encode_image = [], DualEncoder.encode_image

    def counted_encode_image(self, images, *args, **kwargs):
        encoded.append(len(images))
        return encode_image(self, images, *args, **kwargs)

    monkeypatch.setattr(DualEncoder, "encode_image", counted_encode_image)
    out = tmp_path / "ev"
    cfg = _multi_eval_config(protocol, suite_dir, wide_backbone, out, last=bad)
    capsys.readouterr()
    assert main(["eval", "--config", _write(tmp_path / "e.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert not (out / "report.json").exists()
    if last == "missing":
        assert encoded == []


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
    assert sorted(os.listdir(out)) == sorted(
        ["results.json", "resolved_config.json", "rows"]
        + [f"ablation_{axis}_summary.csv" for axis in read_json(cfg)["axes"]])
    summary = (out / "ablation_lambda_summary.csv").read_text().splitlines()
    assert summary[0] == "lambda,median_base,median_novel,median_hm"
    assert [line.split(",")[0] for line in summary[1:]] == ["0.1", "1.0", "2.0", "8.0"]


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


def test_sweep_row_replays_through_finetune(rig, tmp_path):
    """A sweep row's resolved_config.json is a finetune config: run by
    `finetune` into a new directory, it writes the row's checkpoint."""
    root, suite_dir, bb_dir = rig
    out = tmp_path / "sweep"
    cfg = _write(tmp_path / "s.json", {
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(out), "axis": "lambda", "values": [8.0], "seeds": [1],
        "train": TINY_TRAIN})
    assert main(["sweep", "--config", cfg]) == 0
    row = out / "rows" / "8.0_seed1"
    assert main(["finetune", "--config", str(row / "resolved_config.json"),
                 "--override", f"out={tmp_path / 'replay'}"]) == 0
    replayed = read_json(tmp_path / "replay" / "config.json")["content_hash"]
    assert replayed == read_json(row / "config.json")["content_hash"]
    assert replayed == read_json(out / "results.json")["results"][0]["checkpoint_hash"]


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


@pytest.mark.parametrize("command,setting", [
    ("sweep", {"axis": "seed", "values": [1, 2]}),
    ("sweep", {"axis": "lambda", "values": [8.0], "train": dict(TINY_TRAIN, seed=1)}),
    ("ablate", {"axes": ["lambda"], "train": dict(TINY_TRAIN, seed=1)}),
])
def test_seed_outside_seeds_exits_2(rig, tmp_path, capsys, command, setting):
    root, suite_dir, bb_dir = rig
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.json", dict({
        "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
        "out": str(out), "seeds": [0], "train": TINY_TRAIN}, **setting))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and '"seeds"' in err[0]
    assert not out.exists()


def test_threads_env_respected(rig, tmp_path, monkeypatch):
    """Two workers write the serial run's results.json byte for byte, every
    checkpoint_hash included."""
    root, suite_dir, bb_dir = rig
    results = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("COPROMPT_THREADS", threads)
        out = tmp_path / f"sw{threads}"
        cfg = _write(tmp_path / f"s{threads}.json", {
            "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_a"),
            "out": str(out), "axis": "lambda", "values": [0.1, 1.0],
            "seeds": [0], "train": TINY_TRAIN})
        assert main(["sweep", "--config", cfg]) == 0
        results[threads] = (out / "results.json").read_bytes()
    assert len(json.loads(results["1"])["results"]) == 2
    assert results["2"] == results["1"]


@pytest.mark.parametrize("error", [
    NonFiniteLossError("non-finite loss at step 0: ce=nan, cc=nan"),
    VocabularyError("unknown words: slatestripes"),
])
def test_worker_errors_survive_pickle(error):
    """A job's error crosses the worker pool with its type and message."""
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)


def test_worker_error_prints_the_serial_line(rig, tmp_path, capsys, monkeypatch):
    """A vocabulary miss in a worker prints the line the serial run prints."""
    root, suite_dir, bb_dir = rig
    lines = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("COPROMPT_THREADS", threads)
        cfg = _write(tmp_path / f"s{threads}.json", {
            "backbone": str(bb_dir), "dataset": str(suite_dir / "fields_c"),
            "out": str(tmp_path / f"sw{threads}"), "axis": "lambda", "values": [0.1, 1.0],
            "seeds": [0], "train": TINY_TRAIN})
        capsys.readouterr()
        assert main(["sweep", "--config", cfg]) == 2
        lines[threads] = capsys.readouterr().err.splitlines()
    assert len(lines["1"]) == 1 and lines["1"][0].startswith("error: unknown words: ")
    assert lines["2"] == lines["1"]


@pytest.mark.parametrize("command", ["ablate", "sweep"])
def test_runner_refuses_a_backbone_that_is_not_one(rig, tmp_path, capsys, command):
    """A dataset directory named as the backbone exits 2 with one `error:`
    line before any job runs."""
    root, suite_dir, bb_dir = rig
    out = tmp_path / "out"
    cfg = _command_config(command, suite_dir / "fields_a", suite_dir / "fields_a", out)
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path / "c.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_override_parsing(tmp_path):
    from coprompt.cli import _parse_override, ConfigError
    assert _parse_override("train.lambda=8.0") == ("train.lambda", 8.0)
    assert _parse_override("axes=[\"lambda\"]") == ("axes", ["lambda"])
    assert _parse_override("name=plain") == ("name", "plain")
    with pytest.raises(ConfigError):
        _parse_override("no_equals_sign")


def test_seed_flag_only_where_the_config_has_a_seed(capsys):
    from coprompt.cli import build_parser
    parser = build_parser()
    assert parser.parse_args(["gen-data", "--seed", "3"]).seed == 3
    assert parser.parse_args(["pretrain", "--seed", "3"]).seed == 3
    # finetune's seed is train.seed; ablate and sweep take "seeds"
    for command in ("finetune", "eval", "ablate", "sweep"):
        with pytest.raises(SystemExit) as e:
            main([command, "--seed", "3"])
        assert e.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
