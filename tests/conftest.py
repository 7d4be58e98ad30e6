"""Session fixtures: the default synthetic suite, a backbone pre-trained at
CLI defaults, and the 5-seed consistency-on/off study shared by the
acceptance criteria."""

import json
import time

import pytest

from coprompt.cli import main as cli_main
from coprompt.checkpoints import read_json
from coprompt.datasets import SOURCE_FAMILY, build_default_suite, make_fewshot_split
from coprompt.encoders import load_backbone
from coprompt.evaluation import base_to_novel_eval
from coprompt.training import TrainConfig, finetune


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    return build_default_suite(str(root))


@pytest.fixture(scope="session")
def source(suite):
    return suite[SOURCE_FAMILY]


@pytest.fixture(scope="session")
def backbone_dir(suite, tmp_path_factory):
    """Backbone pre-trained through the CLI at its default configuration."""
    out = tmp_path_factory.mktemp("backbone")
    cfg_path = out / "pretrain_config.json"
    cfg_path.write_text(json.dumps({
        "datasets": [suite[k].directory for k in
                     ("fields_a", "fields_b", "fields_c", "fields_d")],
        "out": str(out / "bb"),
    }))
    rc = cli_main(["pretrain", "--config", str(cfg_path)])
    assert rc == 0
    return str(out / "bb")


@pytest.fixture(scope="session")
def backbone(backbone_dir):
    return load_backbone(backbone_dir)


@pytest.fixture(scope="session")
def pretrain_metrics(backbone_dir):
    return read_json(backbone_dir + "/pretrain_metrics.json")


@pytest.fixture(scope="session")
def pretrain_losses(backbone_dir):
    rows = []
    with open(backbone_dir + "/pretrain_loss.csv") as f:
        next(f)
        for line in f:
            _, v = line.strip().split(",")
            rows.append(float(v))
    return rows


@pytest.fixture(scope="session")
def seed_study(backbone, source):
    """Default config vs lambda=0 over 5 seeds: the artifact's core experiment.

    Returns per-run reports, metrics, histories, and the wall-clock time of
    the whole block (trains + evaluations).
    """
    start = time.time()
    runs = {"on": [], "off": []}
    for seed in range(5):
        for label, lam in (("on", 8.0), ("off", 0.0)):
            cfg = TrainConfig(lambda_=lam, seed=seed)
            split = make_fewshot_split(source, cfg.shots, cfg.seed)
            result = finetune(backbone, cfg, split)
            report = base_to_novel_eval(result.model, source)
            runs[label].append({
                "seed": seed,
                "report": report,
                "metrics": result.metrics,
                "history": result.history,
            })
    return {"runs": runs, "elapsed": time.time() - start}
