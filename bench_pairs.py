"""Paired benchmark runs of two commits, written as one BENCH JSON file.

    python3 bench_pairs.py --parent SHA --out BENCH_<n>.json

The change is HEAD. Both commits are extracted with `git archive` into a temporary directory;
the working tree and the git metadata are left alone. Pair i runs
`perfbench/run.py --workload W --seed <11 + i> --seconds 30 --trace 0` once
per side, and the side that goes first alternates. Per workload and
end-to-end metric the file holds both sides' values, median, q1 and q3,
the pairs the change won or tied (direction from BENCHMARK.json) and
`gain_shown`: the change won at least 9 in 10 pairs (ties count for neither
side) and its median is better than the parent's by more than the parent's
q3 - q1, the rule a claimed gain must meet; and `within_bound`: the change's
median is worse than the parent's by no more than the metric's `bound` in
BENCHMARK.json, taken relative to the parent's median, the rule every
change must meet; one
`--trace 1` run at seed 1 per side adds the per-layer counts and each
layer's self time as a percentage of its traced pass (`.self_pct`). The
`predict` latency line each eval run prints is kept as `predict_ms_p50` and
`predict_ms_p95`, summarised like the metrics. Then, per side, a default
CLI `gen-data`, `pretrain` (on the four families), `finetune` (on
`fields_a`), `eval --protocol cross_dataset` (that fine-tune on `fields_a`,
then the three target families) and `eval --protocol domain_gen` (that
fine-tune over the four shifted variants) each run in a child process that
reports its own wall seconds, max RSS and minor page faults (`e2e`). The
two sides' suite, backbone and fine-tune directories are compared byte for
byte, apart from `runtime_seconds` and the per-tensor `.json` sidecars
older commits write (`suite_identical`, `backbone_identical`,
`finetune_identical`), and so are the `report.json` files of both evals
(`eval_identical`). Beside each flag, `<name>_differs` lists the relative
paths that differ or exist on one side only; for the evals it covers every
file of both eval directories. Runs go one after another: anything else
running on the host moves the numbers.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
FIRST_SEED = 11
PAIRS = 10
SECONDS = 30
WORKLOADS = ("pretrain", "finetune", "eval")
SIDES = ("parent", "change")


def extract(rev, dest):
    """The files of commit `rev` under `dest`; returns its full SHA."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def bench(tree, workload, seed, trace):
    """(report lines, last-line JSON) of one perfbench run in `tree`."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS),
                          "--trace", str(trace)],
                         cwd=tree, capture_output=True, text=True, timeout=3600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed:\n{out.stderr}")
    return lines, json.loads(lines[-1])


# one CLI command in this process, then its own cost; RUSAGE_CHILDREN in the
# runner would report the largest earlier perfbench child instead
CLI_CHILD = """import json, resource, sys, time
from coprompt.cli import main
start = time.perf_counter()
rc = main(sys.argv[1:])
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"rc": rc, "wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024.0,
                  "minflt": usage.ru_minflt}))
"""
FAMILIES = ("fields_a", "fields_b", "fields_c", "fields_d")
VARIANTS = ("identity", "palette_shift", "noise", "style_remap")
PREDICT_LINE = re.compile(r"predict latency p50 (\S+) ms, p95 (\S+) ms")


def cli(tree, *argv):
    """Wall seconds, max RSS and minor faults of one CLI command, run in `tree` at one BLAS thread."""
    env = dict(os.environ, PYTHONPATH="src", **{v: "1" for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})
    out = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv], cwd=tree, env=env,
                         capture_output=True, text=True, timeout=3600)
    if out.returncode != 0:
        raise SystemExit(f"{tree.name} {argv[0]} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def output_files(root):
    """The files under `root` by name; `runtime_seconds` is left out of the
    metrics files, and so is a tensor's `.json` sidecar."""
    files = {}
    for p in root.rglob("*"):
        if not p.is_file() or (p.suffix == ".json" and p.with_suffix(".bin").exists()):
            continue
        data = p.read_bytes()
        if p.name.endswith("metrics.json"):
            data = json.loads(data)
            data.pop("runtime_seconds")
        files[str(p.relative_to(root))] = data
    return files


def differing(trees, out):
    """Relative paths under `e2e/<out>` whose contents differ between the
    sides, or that exist on one side only."""
    parent, change = (output_files(trees[side] / "e2e" / out) for side in SIDES)
    return sorted(p for p in parent.keys() | change.keys() if parent.get(p) != change.get(p))


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def e2e(trees):
    """The default CLI pipeline run once in each side's tree, and whether
    the two sides' outputs are byte-identical."""
    datasets = json.dumps([f"e2e/suite/{f}" for f in FAMILIES])
    targets = json.dumps([f"e2e/suite/{f}" for f in FAMILIES[1:]])
    variants = json.dumps([f"e2e/suite/fields_a-{v}" for v in VARIANTS])
    evals = {"cross_dataset": ["--override", "dataset=e2e/suite/fields_a",
                               "--override", f"targets={targets}"],
             "domain_gen": ["--override", f"variants={variants}"]}
    result = {side: {
        "gen-data": cli(trees[side], "gen-data", "--out", "e2e/suite"),
        "pretrain": cli(trees[side], "pretrain", "--out", "e2e/backbone",
                        "--override", f"datasets={datasets}"),
        "finetune": cli(trees[side], "finetune", "--out", "e2e/finetune",
                        "--override", "backbone=e2e/backbone",
                        "--override", "dataset=e2e/suite/fields_a"),
        **{f"eval_{protocol}": cli(trees[side], "eval", "--out", f"e2e/eval_{protocol}",
                                    "--override", "checkpoint=e2e/finetune",
                                    "--override", f"protocol={protocol}", *inputs)
           for protocol, inputs in evals.items()}} for side in SIDES}
    for out in ("suite", "backbone", "finetune"):
        result[f"{out}_differs"] = differing(trees, out)
        result[f"{out}_identical"] = not result[f"{out}_differs"]
    result["eval_differs"] = [f"eval_{protocol}/{p}" for protocol in evals
                              for p in differing(trees, f"eval_{protocol}")]
    result["eval_identical"] = all(len({
        (trees[side] / "e2e" / f"eval_{protocol}" / "report.json").read_bytes()
        for side in SIDES}) == 1 for protocol in evals)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    revs = {"parent": args.parent, "change": "HEAD"}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        result = {"shas": {side: extract(revs[side], trees[side]) for side in SIDES},
                  "pairs": PAIRS, "seconds": SECONDS,
                  "src_loc": {side: sum(len(p.read_text().splitlines())
                                        for p in (trees[side] / "src").rglob("*.py"))
                              for side in SIDES},
                  "workloads": {}, "per_layer_seed1": {}}
        for workload in WORKLOADS:
            runs = {side: [] for side in SIDES}
            predicts = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    lines, last = bench(trees[side], workload, FIRST_SEED + i, 0)
                    env = json.loads(next(x[4:] for x in lines if x.startswith("env ")))
                    result["env"] = {k: env[k] for k in ("nproc", "numpy", "blas_threads")}
                    runs[side].append(last)
                    predicts[side] += [tuple(map(float, m.groups())) for m in
                                       map(PREDICT_LINE.match, lines) if m]
                    print(workload, i, side, json.dumps(last["metrics"]), flush=True)
            metrics = {key: {side: [r[key] for r in runs[side]] for side in SIDES}
                       for key in ("failed", "attempted")}
            if predicts["parent"] and predicts["change"]:
                for q, key in enumerate(("predict_ms_p50", "predict_ms_p95")):
                    metrics[key] = {side: summary([p[q] for p in predicts[side]])
                                    for side in SIDES}
            for spec in end_to_end:
                name, direction, bound = spec["name"], spec["better"], spec["bound"]
                values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                          for side in SIDES}
                sign = -1 if direction == "lower" else 1
                gains = [(c - p) * sign for p, c in zip(values["parent"], values["change"])]
                sides = {side: summary(values[side]) for side in SIDES}
                wins = sum(g > 0 for g in gains)
                shift = (sides["change"]["median"] - sides["parent"]["median"]) * sign
                metrics[name] = {**sides, "better": direction, "wins": wins,
                                 "ties": sum(g == 0 for g in gains),
                                 "gain_shown": 10 * wins >= 9 * len(gains)
                                 and shift > sides["parent"]["q3"] - sides["parent"]["q1"],
                                 "within_bound":
                                 shift >= -bound * abs(sides["parent"]["median"])}
            result["workloads"][workload] = metrics
            result["per_layer_seed1"][workload] = {
                side: {name: m["value"] for name, m in
                       bench(trees[side], workload, 1, 1)[1]["metrics"].items()
                       if m["unit"] == "count" or name.endswith(".self_pct")}
                for side in SIDES}
        result["e2e"] = e2e(trees)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
