"""Op semantics, backward contracts, SGD, and tensor files."""

import math
import weakref

import numpy as np
import pytest

import coprompt.autodiff as ad
from coprompt.autodiff import (
    SGD,
    GradError,
    ShapeError,
    Tensor,
    backward,
)


def test_cosine_identical_unit_vectors():
    # the 1e-12 epsilon under the sqrt keeps the value ~1e-12 below 1
    c = ad.cosine_similarity(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]))
    assert c.item() == pytest.approx(1.0, abs=2e-12)


def test_softmax_shift_invariance_constant_rows():
    for c in (-3.0, 0.0, 7.5):
        s = ad.softmax(Tensor([c, c, c]))
        assert np.allclose(s.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.normal(size=(3, 5)) * 10
        s = ad.softmax(Tensor(x), axis=-1)
        assert np.all(np.abs(s.data.sum(axis=-1) - 1.0) <= 1e-12)
        shifted = ad.softmax(Tensor(x + 4.2), axis=-1)
        assert np.all(np.abs(s.data - shifted.data) <= 1e-12)


def test_cross_entropy_matches_scalar_oracle():
    # independent closed-form: -log(e^2 / (e^2 + e^0))
    expected = -math.log(math.exp(2.0) / (math.exp(2.0) + math.exp(0.0)))
    loss = ad.cross_entropy_from_logits(Tensor([[2.0, 0.0]]), np.asarray([0]))
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_cross_entropy_large_logits_stable():
    loss = ad.cross_entropy_from_logits(Tensor([[1000.0, 0.0]]), np.asarray([0]))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ad.cross_entropy_from_logits(Tensor([[0.0, 1.0]]), np.asarray([5]))


def test_l2_normalize_unit_norm_and_zero_vector():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=6)
        out = ad.l2_normalize(Tensor(v))
        assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-12
    zero = ad.l2_normalize(Tensor(np.zeros(4)))
    assert np.all(zero.data == 0.0)
    assert np.all(np.isfinite(zero.data))


def test_cosine_similarity_bounded():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.normal(size=8) * rng.uniform(0.1, 50)
        b = rng.normal(size=8) * rng.uniform(0.1, 50)
        c = ad.cosine_similarity(Tensor(a), Tensor(b)).item()
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
    for op in (ad.mul, ad.div):
        with pytest.raises(ShapeError, match=rf"{op.__name__}: cannot broadcast \(2, 3\) with \(4,\)"):
            op(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError, match="matmul: cannot broadcast bias"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), bias=Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="layernorm"):
        ad.layernorm(Tensor(np.ones((2, 3))), gamma=Tensor(np.ones(4)))


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6)) * 100
    for out in (ad.softmax(Tensor(x)), ad.gelu(Tensor(x)), ad.layernorm(Tensor(x)),
                ad.l2_normalize(Tensor(x))):
        assert np.all(np.isfinite(out.data))


# -- backward contracts -------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_cosine_grad_orthogonal_at_equal_args():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=7), requires_grad=True)
    backward(ad.cosine_similarity(x, x))
    projection = abs(np.dot(x.grad, x.data)) / np.linalg.norm(x.data)
    assert projection <= 1e-10


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GradError):
        backward(x * 2.0)


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = x.sum()
    backward(loss)
    backward((x * 3.0).sum())
    assert np.array_equal(x.grad, [4.0, 4.0])
    # the swept graph is refused, not added again
    with pytest.raises(GradError, match="already swept"):
        backward(loss)
    assert np.array_equal(x.grad, [4.0, 4.0])


def test_shared_gradient_arrays_are_never_written_in_place():
    from coprompt.encoders import _clip_global_norm

    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    loss = (a + b).sum()
    backward(loss)
    # add hands both leaves the one array it was given
    assert np.shares_memory(a.grad, b.grad)
    with pytest.raises(GradError, match="already swept"):
        backward(loss)
    backward((a + b).sum())
    assert np.array_equal(a.grad, [2.0, 2.0]) and np.array_equal(b.grad, [2.0, 2.0])

    a.grad = None
    b.grad = None
    backward((a + b).sum())
    assert np.shares_memory(a.grad, b.grad)
    # global norm 2 clipped to 1: each leaf's gradient is halved once, not twice
    _clip_global_norm([a, b], 1.0)
    SGD([a, b], lr=1.0).step()
    assert np.array_equal(a.data, [0.5, 1.5]) and np.array_equal(b.data, [2.5, 3.5])


def test_gradients_take_the_layout_of_their_tensor():
    # transpose's backward returns a strided view and a broadcast tensor's
    # data has zero strides; each stored gradient is laid out as
    # np.empty_like(data), so a reduction over it sums in one fixed order
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    backward((ad.transpose(x, (0, 2, 1)) * Tensor(rng.normal(size=(2, 4, 3)))).sum())
    assert x.grad.flags.c_contiguous
    u = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    wide = ad.broadcast_to(u, (2, 3, 4))
    # `wide` is interior, so its gradient is released once used: record the
    # layout of the gradient its backward is handed
    handed, inner = [], wide._node._backward
    wide._node._backward = lambda g: (handed.append(g.strides), inner(g))
    backward((wide * Tensor(rng.normal(size=(2, 3, 4)))).sum())
    assert handed == [np.empty_like(wide.data).strides]


def _graph_nodes(loss):
    nodes, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            if isinstance(node, ad._Node):
                stack.extend(node._parents)
    return nodes


def test_backward_keeps_only_leaf_gradients_and_consumes_the_graph():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def forward():
        h = ad.gelu(ad.matmul(x, w))
        return (h * h).sum() + h.sum()  # h has two consumers

    loss = forward()
    backward(loss)
    nodes = _graph_nodes(loss)
    interior = [n for n in nodes if isinstance(n, ad._Node)]
    leaves = [n for n in nodes if isinstance(n, Tensor)]
    assert len(interior) == 6 and all(n.grad is None for n in interior)
    assert all(n._backward is None for n in interior)
    assert {id(n) for n in leaves} == {id(x), id(w)}
    assert all(n.grad is not None for n in leaves)
    # the sweep consumed the graph: it is refused, and a new one adds the
    # same gradients
    first = [x.grad.copy(), w.grad.copy()]
    with pytest.raises(GradError, match="already swept"):
        backward(loss)
    backward(forward())
    assert np.array_equal(x.grad, 2 * first[0]) and np.array_equal(w.grad, 2 * first[1])
    assert all(n.grad is None for n in interior)


def test_a_swept_graph_is_refused_before_any_gradient_moves():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    h = ad.gelu(ad.matmul(x, w, bias=b))
    loss = (h * h).sum()
    backward(loss)
    grads = [x.grad, w.grad, b.grad]
    # the same loss again, and a new loss over a tensor of the swept graph
    for again in (loss, (h * 2.0).sum() + (x * x).sum()):
        with pytest.raises(GradError, match="already swept"):
            backward(again)
        assert all(t.grad is g for t, g in zip((x, w, b), grads))


def test_a_sweep_frees_the_arrays_its_backwards_kept():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    h = ad.gelu(x)  # keeps its derivative
    s = ad.softmax(h)  # keeps its output
    loss = (s * Tensor(rng.normal(size=(3, 4)))).sum()
    saved = [weakref.ref(cell.cell_contents) for t in (h, s) for cell in t._node._backward.__closure__
             if isinstance(cell.cell_contents, np.ndarray)]
    del h, s
    assert len(saved) == 2 and all(ref() is not None for ref in saved)
    backward(loss)  # the caller still holds the loss, and with it the graph's nodes
    assert all(ref() is None for ref in saved)


def test_an_array_no_backward_reads_is_freed_with_its_tensor():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    r = Tensor(rng.normal(size=(6, 3)))

    def sweep(keep):
        y = ad.matmul(x, w)
        flat = ad.reshape(y, (6, 3))  # its backward reads no array
        loss = (ad.gelu(flat) * r).sum()  # gelu's backward reads its derivative only
        alive = weakref.ref(y.data)
        if not keep:
            del y, flat
        assert (alive() is not None) == keep
        x.grad = None
        w.grad = None
        backward(loss)
        return x.grad, w.grad

    kept, freed = sweep(True), sweep(False)
    assert np.array_equal(kept[0], freed[0]) and np.array_equal(kept[1], freed[1])


def test_a_sweep_that_raised_leaves_no_stale_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    failures = [GradError("misshapen gradient")]

    def flaky_bw(g):
        if failures:
            raise failures.pop()
        ad._accumulate(x, g * 3.0)

    y = x * 2.0
    f = ad._from_op(x.data * 3.0, (x,), flaky_bw)
    loss = (y + f).sum()
    # the sweep hands y its gradient, then raises at f before reaching y
    with pytest.raises(GradError, match="misshapen"):
        backward(loss)
    assert x.grad is None and y._node.grad is not None
    # the sweep consumed the nodes it reached, so the graph is refused
    with pytest.raises(GradError, match="already swept"):
        backward(loss)
    assert x.grad is None
    # a new graph over y, which the sweep never reached, starts it from no gradient
    backward((y * 1.0).sum())
    assert np.array_equal(x.grad, [2.0, 2.0]) and y._node.grad is None


def test_gelu_is_bitwise_the_unfolded_erf_formula():
    from scipy.special import erf

    # cephes erf changes method at |x / sqrt(2)| = 1 and = 8
    edges = []
    for t in (1.0, 8.0):
        x = t / ad._INV_SQRT2
        for _ in range(3):
            x = np.nextafter(x, 0.0)
        for _ in range(7):
            edges.append(x)
            x = np.nextafter(x, np.inf)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [0.0, tiny, 3 * tiny, np.finfo(np.float64).tiny / 2, 1e-300, 40.0, *edges]
    rng = np.random.default_rng(14)
    normals = [rng.normal(scale=s, size=25_000) for s in (0.1, 0.7, 2.0, 9.0)]
    x = np.concatenate([special, np.negative(special), *normals])
    assert x.size >= 100_000

    t = Tensor(x, requires_grad=True)
    out = ad.gelu(t)
    backward(out.sum())
    cdf = (erf(x * ad._INV_SQRT2) + 1) * 0.5
    want = x * cdf
    assert np.array_equal(out.data, want) and np.array_equal(np.signbit(out.data), np.signbit(want))
    assert np.array_equal(t.grad, cdf + x * (ad._INV_SQRT_2PI * np.exp(-0.5 * x * x)))
    # a pass that records nothing computes the product in place: the same bits
    with ad.no_grad():
        free = ad.gelu(t)
    assert not free.requires_grad and free.data.tobytes() == out.data.tobytes()


def test_backward_rejects_a_gradient_of_another_shape():
    x = Tensor(np.ones(3), requires_grad=True)
    # a broken op whose backward hands x a (1, 3) gradient; adding it into a
    # (3,) buffer would broadcast it silently
    bad = ad._from_op(x.data * 2.0, (x,), lambda g: ad._accumulate(x, g[None, :]))
    with pytest.raises(GradError, match=r"gradient of shape \(1, 3\) for a tensor of shape \(3,\)"):
        backward(bad.sum())


def test_no_grad_records_nothing():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = (x * 3.0).sum()
    assert y._node is None
    assert not y.requires_grad
    backward(y)  # a leaf scalar: no propagation
    assert x.grad is None


def test_requires_grad_leaves_all_get_grads():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    backward((a * b).sum())
    assert a.grad is not None and b.grad is not None


# -- sgd -----------------------------------------------------------------------


def test_sgd_single_step():
    p = Tensor(1.0, requires_grad=True)
    p.grad = np.asarray(2.0)
    opt = SGD([p], lr=0.1, momentum=0.0)
    opt.step()
    assert p.item() == pytest.approx(0.8, abs=1e-15)
    assert p.grad is None


def test_sgd_zero_grad_fresh_state_leaves_param():
    p = Tensor(5.0, requires_grad=True)
    p.grad = np.asarray(0.0)
    opt = SGD([p], lr=0.1, momentum=0.9)
    opt.step()
    assert p.item() == 5.0
    assert opt.velocities[0] == 0.0


def test_sgd_momentum_recurrence():
    # constant gradient g: first step moves lr*g, second lr*(1.9*g)
    g = 3.0
    p = Tensor(0.0, requires_grad=True)
    opt = SGD([p], lr=0.1, momentum=0.9)
    p.grad = np.asarray(g)
    opt.step()
    assert p.item() == pytest.approx(-0.1 * g, rel=1e-15)
    p.grad = np.asarray(g)
    opt.step()
    assert p.item() == pytest.approx(-0.1 * g - 0.1 * 1.9 * g, rel=1e-15)


def test_sgd_missing_grad_raises():
    p = Tensor(1.0, requires_grad=True)
    opt = SGD([p], lr=0.1)
    with pytest.raises(GradError):
        opt.step()


def test_sgd_validates_hyperparams():
    p = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError):
        SGD([p], lr=0.0)
    with pytest.raises(ValueError):
        SGD([p], lr=0.1, momentum=1.0)


# -- graph recording -------------------------------------------------------------


def test_forward_op_records_when_needed():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, Tensor([3.0, 4.0]))
    assert y.requires_grad
    z = ad.mul(Tensor([1.0]), Tensor([2.0]))
    assert not z.requires_grad


# -- serialization ----------------------------------------------------------------


def test_tensor_file_roundtrip(tmp_path):
    from coprompt.checkpoints import read_tensor, write_tensor

    rng = np.random.default_rng(9)
    arr = rng.normal(size=(3, 4))
    write_tensor(str(tmp_path), "w", arr, dtype="f32")
    back = read_tensor(str(tmp_path), "w", (3, 4))
    assert back.shape == (3, 4)
    assert back.dtype == np.float64
    # f32 narrowing is deliberate and lossy
    assert np.allclose(back, arr, atol=1e-6)
    assert not np.array_equal(back, arr)

    write_tensor(str(tmp_path), "x", arr, dtype="f64")
    assert np.array_equal(read_tensor(str(tmp_path), "x", (3, 4), dtype="f64"), arr)


def test_tensor_file_hash_verification(tmp_path):
    from coprompt.checkpoints import CheckpointError, read_tensor, write_tensor

    sha = write_tensor(str(tmp_path), "w", np.ones(4))
    assert isinstance(read_tensor(str(tmp_path), "w", (4,), expected_sha=sha), np.ndarray)
    with open(tmp_path / "w.bin", "r+b") as f:
        f.seek(0)
        f.write(b"\xff")
    with pytest.raises(CheckpointError, match="hash mismatch"):
        read_tensor(str(tmp_path), "w", (4,), expected_sha=sha)


@pytest.mark.parametrize("kind", ["backbone", "finetune", "train_state"])
def test_checkpoint_layout_roundtrip(tmp_path, kind):
    """Each kind's manifest and tensors go where `LAYOUTS` puts them, at its
    dtype, and read back through the loader; `checkpoint_kind` names it."""
    from coprompt.checkpoints import (
        FORMAT_VERSION,
        LAYOUTS,
        checkpoint_hash,
        checkpoint_kind,
        read_checkpoint,
        write_checkpoint,
    )

    manifest, subdir, dtype = LAYOUTS[kind]
    arr = np.random.default_rng(3).normal(size=(2, 3))
    meta = {"kind": kind, "format_version": FORMAT_VERSION}
    assert checkpoint_kind(str(tmp_path)) is None
    chash = write_checkpoint(str(tmp_path), meta, [("w", arr)])
    assert chash == checkpoint_hash(meta, [("w", arr)])
    assert (tmp_path / manifest).is_file()
    assert (tmp_path / subdir / "w.bin").stat().st_size == arr.size * {"f32": 4, "f64": 8}[dtype]
    assert checkpoint_kind(str(tmp_path)) == kind
    m, load = read_checkpoint(str(tmp_path), kind)
    assert m["content_hash"] == chash
    assert np.array_equal(load({"w": (2, 3)})["w"],
                          arr.astype(np.float32 if dtype == "f32" else np.float64))


def test_checkpoint_kind_prefers_manifest_json(tmp_path):
    from coprompt.checkpoints import checkpoint_kind

    for name, kind in [("state.json", "train_state"), ("config.json", "finetune"),
                       ("manifest.json", "backbone")]:
        (tmp_path / name).write_text("{}")
        assert checkpoint_kind(str(tmp_path)) == kind
