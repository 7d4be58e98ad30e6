"""Span arithmetic and wrapper install/uninstall of the benchmark tracer."""

import numpy as np
import pytest

import coprompt
from coprompt import autodiff, cli, consistency, datasets, encoders, training
import workloads
from tracer import TARGETS, MissingTargets, Tracer, percentile, self_times


def test_self_time_subtracts_covered_child_intervals():
    # 0 root [0, 10]
    # 1   a [1, 4]      3 long, child 2 covers 1
    # 2     a1 [2, 3]
    # 3   b [5, 9]      children 4, 5 overlap: they cover [5, 7] = 2
    # 4     b1 [5, 6]
    # 5     b2 [5.5, 7]
    # 6   c [9.5, 11]   runs past the root: only [9.5, 10] counts for it
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 5.5, 9.5]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 7.0, 11.0]
    parents = [-1, 0, 1, 0, 3, 3, 0]
    got = self_times(starts, ends, parents)
    assert got == pytest.approx([10 - (3 + 4 + 0.5), 2.0, 1.0, 2.0, 1.0, 1.5, 1.5])


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile(list(range(101)), 95) == 95.0
    assert percentile([7.0], 95) == 7.0


# bindings the tracer must reach: defining-module names, names other
# modules imported with `from ... import`, package re-exports, methods and
# a staticmethod
BINDINGS = [
    (training, "consistency_loss"), (training, "perturb_image"),
    (training, "apply_adapter"), (training, "load_backbone"),
    (cli, "finetune"), (cli, "load_backbone"), (cli, "make_fewshot_split"),
    (cli, "base_to_novel_eval"), (consistency, "consistency_loss"),
    (autodiff, "matmul"), (coprompt, "backward"), (coprompt, "predict"),
]
CLASS_ATTRS = [
    (datasets.Dataset, "load"), (encoders.DualEncoder, "encode_text"),
    (autodiff.SGD, "step"), (training.Trainer, "train_step"),
]


def _raw(owner, attr):
    return vars(owner)[attr]


def test_install_wraps_every_binding_and_uninstall_restores_identity():
    before = {(id(o), a): _raw(o, a) for o, a in BINDINGS + CLASS_ATTRS}
    tracer = Tracer()
    with tracer:
        for owner, attr in BINDINGS:
            assert _raw(owner, attr) is not before[(id(owner), attr)], (owner, attr)
            assert getattr(owner, attr).__wrapped__ is before[(id(owner), attr)]
        for owner, attr in CLASS_ATTRS:
            assert _raw(owner, attr) is not before[(id(owner), attr)], (owner, attr)
        patched = tracer.patched_bindings()
        assert len(patched) > len(TARGETS)
    for owner, attr, original in patched:
        assert _raw(owner, attr) is original
    for owner, attr in BINDINGS + CLASS_ATTRS:
        assert _raw(owner, attr) is before[(id(owner), attr)]
    assert tracer.patched_bindings() == []


def test_spans_nest_through_by_name_bindings():
    tracer = Tracer()
    with tracer, tracer.span("root") as root:
        frozen = np.eye(2)
        tuned = autodiff.Tensor(np.eye(2) * 2.0, requires_grad=True)
        # training binds consistency_loss by name; the call must be traced
        loss = training.consistency_loss(
            consistency.ConsistencyConfig(modality="text_only"), frozen, tuned, None, None)
        autodiff.backward(loss)
    table, wall = tracer.summary()
    assert table["consistency.consistency_loss"]["calls"] == 1
    assert table["autodiff.backward"]["calls"] == 1
    assert table["autodiff.op.l2_normalize"]["calls"] == 2
    assert tracer.graph_ops > 0
    assert sum(row["self_s"] for row in table.values()) <= wall
    loss_idx = tracer.names.index("consistency.consistency_loss")
    spans = [i for i in range(len(tracer.start)) if tracer.name_of[i] == loss_idx]
    assert [tracer.parent[i] for i in spans] == [root]


def test_install_twice_is_refused_and_leaves_no_patch():
    tracer = Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
    assert vars(autodiff)["matmul"].__name__ == "matmul"
    assert not hasattr(vars(autodiff)["matmul"], "__wrapped__")


def test_a_traced_function_missing_from_the_program_fails_the_run(monkeypatch, tmp_path):
    # as if a later change renamed Trainer.final_metrics
    monkeypatch.delattr(training.Trainer, "final_metrics")
    with pytest.raises(MissingTargets, match="training.final_metrics"):
        workloads.run("finetune", 3, 1, True, str(tmp_path), scale=workloads.TINY)
    assert not hasattr(vars(autodiff)["matmul"], "__wrapped__")
    assert list((tmp_path / ".perfbench_work").glob("*")) == []
