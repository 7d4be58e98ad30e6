"""Benchmark of the coprompt program: one run of one workload.

    python3 perfbench/run.py --workload {pretrain,finetune,eval} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from `src/` of
that checkout. It generates every input from the seed under
`.perfbench_work/` (removed at exit), measures for about S seconds and
checks the program's outputs. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of a separate traced run instead. Lines before
it are a human-readable report, and `.perfbench_out/` keeps the full result
(environment, passes, per-layer tables) and the spans of the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_REPS = 5


def import_seconds(reps=IMPORT_REPS):
    """Median CPU seconds a fresh interpreter takes to start and import the
    program (`coprompt.cli`, which loads every module and numpy), over
    `reps` child processes run one after another."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import coprompt.cli"
    times = []
    for _ in range(reps):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return statistics.median(times)


def _git_commit(root):
    """Commit of `root` if it is a git checkout, else None. Git does not
    look for a repository above `root`."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(ROOT),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        # metadata, not a metric
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _report(workload, seed, trace, result, env):
    print(f"perfbench {workload} seed={seed} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    d = result["detail"]
    print("seeds " + json.dumps(d["seeds"]))
    print("setup_times_s " + " ".join(f"{t:.4f}" for t in d["setup_times_s"]))
    print(f"import_s {d['import_s']:.4f} (median of {IMPORT_REPS} fresh interpreters)")
    for i, p in enumerate(d["passes"]):
        print(f"pass {i}: warmup={int(p['warmup'])} traced={int(p['traced'])} "
              f"run_s={p['run_s']:.4f} cli_wall_s={p['cli_wall_s']:.4f} "
              f"wall_s={p['wall_s']:.4f} samples={p['samples']} "
              f"predicts={p['predicts']} final_loss={p['final_loss']!r}")
    traced = [p["run_s"] for p in d["passes"] if p["traced"]]
    if traced:
        plain = [p["run_s"] for p in d["passes"][1:] if not p["traced"]]
        print(f"traced minus untraced run_s (medians over passes): "
              f"{statistics.median(traced) - statistics.median(plain):.4f} s")
    if "predict" in d:
        pr = d["predict"]
        print(f"predict latency p50 {pr['ms_p50']:.4f} ms, p95 {pr['ms_p95']:.4f} ms "
              f"over {pr['samples']} calls")
    if "layers" in d:
        layers = d["layers"]
        for phase in ("setup", "pass"):
            wall = layers[phase + "_wall_s"]
            print(f"traced {phase}: wall {wall:.4f} s")
            print(f"  {'span':44s} {'calls':>8s} {'self_s':>10s} {'self%':>7s} "
                  f"{'ms_p50':>9s} {'ms_p95':>9s}")
            rows = sorted(layers[phase].items(), key=lambda kv: -kv[1]["self_s"])
            for name, r in rows:
                print(f"  {name:44s} {r['calls']:8d} {r['self_s']:10.4f} "
                      f"{100 * r['self_s'] / wall:7.2f} {r['ms_p50']:9.4f} "
                      f"{r['ms_tail']:9.4f}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"error_rate = {rate!r} ({result['failed']} failed of {result['attempted']} "
          f"attempted operations)")
    for e in d["errors"]:
        print("error: " + e)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one BLAS thread in the workload process, pinned before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "coprompt" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coprompt
    import workloads
    if Path(coprompt.__file__).resolve().parent != SRC / "coprompt":
        print(f"perfbench: imported coprompt from {coprompt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           out_root=str(ROOT), import_s=import_seconds(),
                           spans_path=str(out_dir / f"{args.workload}-spans.npz"))
    units = workloads.layer_metric_units() if args.trace else workloads.END_TO_END
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items() if name in result["metrics"]}
    env = environment()

    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(dict(result, env=env, workload=args.workload, seed=args.seed), f, indent=1)
    _report(args.workload, args.seed, args.trace, result, env)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
