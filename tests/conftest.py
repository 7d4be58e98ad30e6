"""Session fixtures: the default synthetic suite, a backbone pre-trained at
CLI defaults, and the 5-seed consistency-on/off study shared by the
acceptance criteria."""

import json
import time

import pytest

from coprompt.cli import THREADS_ENV
from coprompt.cli import main as cli_main
from coprompt.checkpoints import read_json
from coprompt.datasets import SOURCE_FAMILY, build_default_suite
from coprompt.encoders import load_backbone


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


def _read_history(path):
    """history.csv rows as the trainer's history dicts."""
    with open(path) as f:
        next(f)
        return [{"step": int(step), "ce": float(ce), "cc": float(cc), "total": float(total)}
                for step, ce, cc, total in (line.strip().split(",") for line in f)]


@pytest.fixture(scope="session")
def seed_study(backbone_dir, source, tmp_path_factory):
    """Default config vs lambda=0 over 5 seeds: the artifact's core experiment,
    run as one `coprompt sweep` on two workers.

    Returns per-run reports, metrics and histories read back from the sweep's
    files, the sweep directory, and the wall-clock time of the sweep (trains
    + evaluations).
    """
    root = tmp_path_factory.mktemp("seed_study")
    out = root / "sweep"
    cfg_path = root / "sweep_config.json"
    cfg_path.write_text(json.dumps({
        "backbone": backbone_dir, "dataset": source.directory, "out": str(out),
        "axis": "lambda", "values": [8.0, 0.0], "seeds": list(range(5)),
    }))
    start = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(THREADS_ENV, "2")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
    elapsed = time.time() - start

    runs = {"on": [], "off": []}
    for r in read_json(out / "results.json")["results"]:
        row = out / "rows" / f"{r['row']}_seed{r['seed']}"
        runs["on" if r["row"] == "8.0" else "off"].append({
            "seed": r["seed"],
            "report": {"base_acc": r["base"], "novel_acc": r["novel"], "hm": r["hm"]},
            "metrics": read_json(row / "metrics.json"),
            "history": _read_history(row / "history.csv"),
        })
    return {"runs": runs, "dir": str(out), "elapsed": elapsed}
