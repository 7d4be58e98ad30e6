"""Dense float64 tensors with reverse-mode automatic differentiation.

A small CPU engine sized for desk-scale encoder experiments: every op is
backed by numpy, gradients are exact enough to survive finite-difference
checks at 1e-6 relative error, and graph recording is skipped entirely
when no input requires gradients (so frozen/eval passes allocate nothing).

A `Tensor` is its `data`, a `requires_grad` flag, a `grad` slot and a
pointer to its `_Node`. A recorded op's output points to a `_Node`, its
vertex in the graph. A leaf (a tensor created with `requires_grad=True`) is
its own vertex and keeps its gradient in `.grad`; a constant is no vertex
and the graph does not keep it.
Each op's backward keeps only the arrays it reads:
- `matmul`, `mul` and `div` keep an operand's data only if the other operand
  requires grad (`div` keeps its divisor whenever it is recorded);
- `gelu` keeps its derivative, `relu` a bool mask, `exp` and `softmax` their
  output, `l2_normalize` its input, `layernorm` the
  normalized input and the inverse deviation;
- `add`, `neg`, `reshape`, `transpose`, `concat`, `slice_`, `broadcast_to`,
  `sum_` and `embedding_lookup` keep no array.
So an intermediate's data is freed once the caller drops its tensor, unless
a backward reads it. Which operands need a gradient is settled when an op is
recorded: flipping a leaf's `requires_grad` between recording and `backward`
is not supported.

`backward` leaves a gradient only in a leaf's `.grad`. An interior tensor's
gradient lives on its node, which releases it as soon as the node's own
backward has used it; the tensor's `.grad` stays None. A sweep consumes its
graph: it drops each node's backward, and with it the arrays that backward
kept, as it passes the node. A second sweep of a swept graph, or of a new
one built on a tensor from it, is refused with `GradError`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

L2_EPSILON = 1e-12
LAYERNORM_EPSILON = 1e-5


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class DomainError(ValueError):
    """Input lies outside an op's documented domain (e.g. an out-of-range index)."""


class GradError(RuntimeError):
    """Violation of a backward/optimizer contract."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (eval / frozen passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional float64 array, optionally tracked by the autodiff graph.

    ``grad`` is a leaf's gradient. A recorded op's output keeps none; its
    gradient lives on its ``_node`` during a sweep. Treat the ``data``
    buffer as immutable once constructed; the only sanctioned mutator is
    the optimizer, which owns its parameters.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __getitem__(self, idx):
        return slice_(self, idx)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def _wrap(value):
    return value if isinstance(value, Tensor) else Tensor(value)


class _Node:
    """A recorded op's vertex: its parent vertices, backward closure (None
    once a sweep has passed it), creation order and gradient slot. It keeps
    its output's shape, not its data; only an output that is not
    C-contiguous (a broadcast view) is kept, as `_layout`, so that a
    gradient is laid out as np.empty_like(data) would."""

    __slots__ = ("_parents", "_backward", "_seq", "grad", "shape", "_layout")

    def __init__(self, parents, backward, seq, data):
        self._parents = parents
        self._backward = backward
        self._seq = seq
        self.grad = None
        self.shape = data.shape
        self._layout = None if data.flags.c_contiguous else data


def _vertex(t):
    """Where `t`'s gradient goes: its node, itself for a leaf, None for a constant."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


_seq_counter = 0


def records(tensors):
    """True when an op over `tensors` is recorded: not in `no_grad`, and one requires grad."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _from_op(data, parents, backward):
    global _seq_counter
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._node = None
    out.requires_grad = records(parents)
    if out.requires_grad:
        _seq_counter += 1
        vertices = tuple(v for v in map(_vertex, parents) if v is not None)
        out._node = _Node(vertices, backward, _seq_counter, data)
    return out


def _accumulate(v, g):
    """Hand gradient `g` to vertex `v`; a constant (None) takes nothing. The
    first one is kept by reference, later ones are summed into a new array:
    gradient arrays may be shared between tensors, so none is ever written in
    place. A stored gradient has the memory layout np.empty_like gives the
    vertex's data, so a reduction over it sums in one fixed order whichever op
    produced it."""
    if v is None:
        return
    if g.shape != v.shape:
        raise GradError(f"backward: gradient of shape {g.shape} for a tensor of shape {v.shape}")
    like = v.data if isinstance(v, Tensor) else v._layout
    if v.grad is None and g.flags.c_contiguous and (like is None or like.flags.c_contiguous):
        v.grad = g
    else:
        out = np.empty(v.shape) if like is None else np.empty_like(like)
        v.grad = np.add(0.0 if v.grad is None else v.grad, g, out=out)


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Nodes are processed in reverse creation order (a canonical topological
    order), so gradient accumulation order for any shared subgraph does not
    depend on what else consumes it; detaching a zero-weighted branch leaves
    the remaining trajectory bit-identical.

    Leaf gradients accumulate across calls, each over a new graph. Interior
    gradients are released once consumed: a node's `.grad` is set to None
    as soon as its backward has handed it on, so after the sweep only leaves
    hold one, and the sweep's gradient memory is live only between a node's
    first gradient and its own turn. The sweep consumes the graph: it takes
    each node's backward as it reaches the node, so the arrays that backward
    kept are freed once no other backward holds them. A graph with a swept
    node (the same loss again, or a new loss built on a swept tensor) is
    refused with `GradError` before any gradient moves. The reset before
    the sweep is kept for a sweep that raised partway (say, a `GradError`
    from a misshapen gradient): the interior nodes it had handed a gradient
    but not yet reached still hold it, and a later graph may reach them.
    """
    if loss.data.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        _accumulate(_vertex(loss), np.ones_like(loss.data))
        return

    interior, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        if node._backward is None:
            raise GradError("backward: the graph was already swept; build a new one")
        interior.append(node)
        for parent in node._parents:
            if isinstance(parent, _Node) and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)

    interior.sort(key=lambda n: n._seq, reverse=True)
    for node in interior:
        node.grad = None
    root.grad = np.ones_like(loss.data)

    for node in interior:
        g, node.grad = node.grad, None
        bw, node._backward = node._backward, None
        if g is not None:
            bw(g)


# ---------------------------------------------------------------------------
# primitive ops
#
# A backward closure refers to its operands through their vertices (None for
# a constant) and to no array but those it reads.


def _broadcast_op(op, ufunc, x, y):
    """ufunc(x, y) on arrays; a broadcast failure is a ShapeError naming `op`."""
    try:
        return ufunc(x, y)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast {x.shape} with {y.shape}") from None


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    data = _broadcast_op("add", np.add, a.data, b.data)
    va, vb = _vertex(a), _vertex(b)

    def bw(g):
        if va is not None:
            _accumulate(va, _unbroadcast(g, va.shape))
        if vb is not None:
            _accumulate(vb, _unbroadcast(g, vb.shape))

    return _from_op(data, (a, b), bw)


def neg(a):
    a = _wrap(a)
    va = _vertex(a)
    return _from_op(-a.data, (a,), lambda g: _accumulate(va, -g))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    data = _broadcast_op("mul", np.multiply, a.data, b.data)
    va, vb = _vertex(a), _vertex(b)
    a_data = None if vb is None else a.data
    b_data = None if va is None else b.data

    def bw(g):
        if va is not None:
            _accumulate(va, _unbroadcast(g * b_data, va.shape))
        if vb is not None:
            _accumulate(vb, _unbroadcast(g * a_data, vb.shape))

    return _from_op(data, (a, b), bw)


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    data = _broadcast_op("div", np.divide, a.data, b.data)
    va, vb = _vertex(a), _vertex(b)
    a_data, b_data = None if vb is None else a.data, b.data

    def bw(g):
        if va is not None:
            _accumulate(va, _unbroadcast(g / b_data, va.shape))
        if vb is not None:
            _accumulate(vb, _unbroadcast(-g * a_data / (b_data * b_data), vb.shape))

    return _from_op(data, (a, b), bw)


def matmul(a, b, bias=None):
    """a @ b, plus `bias` broadcast over the result when given, as one node."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data)
    parents, vbias = (a, b), None
    if bias is not None:
        bias = _wrap(bias)
        try:
            np.add(data, bias.data, out=data)
        except ValueError:
            raise ShapeError(f"matmul: cannot broadcast bias {bias.shape} to {data.shape}") from None
        parents, vbias = (a, b, bias), _vertex(bias)
    va, vb = _vertex(a), _vertex(b)
    a_data = None if vb is None else a.data
    b_data = None if va is None else b.data
    # a weight shared across a batch: one flat product sums the batch
    flat = b.ndim == 2 and a.ndim > 2

    def bw(g):
        if vbias is not None:
            _accumulate(vbias, _unbroadcast(g, vbias.shape))
        if va is not None:
            _accumulate(va, _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), va.shape))
        if vb is None:
            return
        if flat:
            _accumulate(vb, a_data.reshape(-1, a_data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        else:
            _accumulate(vb, _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), vb.shape))

    return _from_op(data, parents, bw)


def sum_(a, axis=None, keepdims=False):
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    va = _vertex(a)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(va, np.broadcast_to(g, va.shape).copy())

    return _from_op(np.asarray(data, dtype=np.float64), (a,), bw)


def mean(a, axis=None, keepdims=False):
    a = _wrap(a)
    if axis is None:
        n = a.data.size
    else:
        n = int(np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[t.shape for t in tensors]} along axis {axis}"
        ) from None
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    vertices = [_vertex(t) for t in tensors]

    def bw(g):
        for v, piece in zip(vertices, np.split(g, offsets, axis=axis)):
            _accumulate(v, piece)

    return _from_op(data, tuple(tensors), bw)


def slice_(a, idx):
    """a[idx] for basic and advanced (integer array) indices.

    An advanced index may name one position more than once, so its backward
    adds every row's gradient with `np.add.at`; plain slices assign.
    """
    a = _wrap(a)
    data = np.array(a.data[idx])
    parts = idx if isinstance(idx, tuple) else (idx,)
    advanced = any(isinstance(i, (list, np.ndarray)) for i in parts)
    va = _vertex(a)

    def bw(g):
        ga = np.zeros(va.shape)
        if advanced:
            np.add.at(ga, idx, g)
        else:
            ga[idx] = g
        _accumulate(va, ga)

    return _from_op(data, (a,), bw)


def broadcast_to(a, shape):
    """Broadcast `a` to `shape` as numpy does; backward sums the copies."""
    a = _wrap(a)
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {tuple(shape)}") from None
    va = _vertex(a)
    return _from_op(data, (a,), lambda g: _accumulate(va, _unbroadcast(g, va.shape)))


def embedding_lookup(table, ids):
    """Gather rows of `table` by integer index, differentiable in the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= table.data.shape[0]):
        raise DomainError(f"embedding_lookup: index out of range for table of {table.data.shape[0]} rows")
    data = table.data[ids]
    vt = _vertex(table)

    def bw(g):
        gt = np.zeros(vt.shape)
        np.add.at(gt, ids, g)
        _accumulate(vt, gt)

    return _from_op(data, (table,), bw)


def reshape(a, shape):
    a = _wrap(a)
    va = _vertex(a)
    return _from_op(a.data.reshape(shape), (a,), lambda g: _accumulate(va, g.reshape(va.shape)))


def transpose(a, axes):
    a = _wrap(a)
    data = np.transpose(a.data, axes).copy()
    inverse = np.argsort(axes)
    va = _vertex(a)
    return _from_op(data, (a,), lambda g: _accumulate(va, np.transpose(g, inverse)))


def relu(a):
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)
    if not records((a,)):
        return _from_op(data, (a,), None)
    mask, va = a.data > 0.0, _vertex(a)
    return _from_op(data, (a,), lambda g: _accumulate(va, g * mask))


def gelu(a):
    a = _wrap(a)
    x = a.data
    # scipy's erf(x) is -erf(-x) bit for bit (-0.0 included), so erf runs on
    # |x| and np.copysign restores the sign: the same values, without a
    # branch per sign that mispredicts on zero-mean activations
    cdf = np.abs(x)
    cdf *= _INV_SQRT2
    erf(cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if not records((a,)):
        # nothing keeps cdf, so the same IEEE product x * cdf goes into its buffer
        return _from_op(np.multiply(x, cdf, out=cdf), (a,), None)
    data = x * cdf
    # the backward reads only the derivative, not x and cdf
    deriv, va = cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x)), _vertex(a)
    return _from_op(data, (a,), lambda g: _accumulate(va, g * deriv))


def exp(a):
    a = _wrap(a)
    data = np.exp(a.data)
    va = _vertex(a)
    return _from_op(data, (a,), lambda g: _accumulate(va, g * data))


def softmax(a, axis=-1):
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    va = _vertex(a)

    def bw(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(va, data * (g - inner))

    return _from_op(data, (a,), bw)


def layernorm(a, gamma=None, beta=None, axis=-1, eps=LAYERNORM_EPSILON):
    """Normalize to zero mean / unit variance along `axis`, then scale by
    `gamma` and shift by `beta` when given, as one node."""
    a = _wrap(a)
    mu = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data, parents = xhat, [a]
    va, vgamma, vbeta, gamma_data = _vertex(a), None, None, None
    if gamma is not None:
        gamma = _wrap(gamma)
        data = _broadcast_op("layernorm", np.multiply, xhat, gamma.data)
        parents.append(gamma)
        vgamma, gamma_data = _vertex(gamma), gamma.data
    if beta is not None:
        beta = _wrap(beta)
        data = _broadcast_op("layernorm", np.add, data, beta.data)
        parents.append(beta)
        vbeta = _vertex(beta)

    def bw(g):
        if vbeta is not None:
            _accumulate(vbeta, _unbroadcast(g, vbeta.shape))
        if vgamma is not None:
            _accumulate(vgamma, _unbroadcast(g * xhat, vgamma.shape))
        if va is None:
            return
        if gamma_data is not None:
            g = _unbroadcast(g * gamma_data, xhat.shape)
        gm = g.mean(axis=axis, keepdims=True)
        gx = (g * xhat).mean(axis=axis, keepdims=True)
        _accumulate(va, inv * (g - gm - xhat * gx))

    return _from_op(data, tuple(parents), bw)


def l2_normalize(a, axis=-1, eps=L2_EPSILON):
    """x / sqrt(sum(x^2) + eps); zero vectors map to zero, never NaN."""
    a = _wrap(a)
    a_data, va = a.data, _vertex(a)
    sq = (a_data * a_data).sum(axis=axis, keepdims=True)
    norm = np.sqrt(sq + eps)

    def bw(g):
        dot = (g * a_data).sum(axis=axis, keepdims=True)
        _accumulate(va, g / norm - a_data * dot / (norm * norm * norm))

    return _from_op(a_data / norm, (a,), bw)


def cosine_similarity(a, b, axis=-1):
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: shapes differ, {a.shape} vs {b.shape}")
    return sum_(mul(l2_normalize(a, axis=axis), l2_normalize(b, axis=axis)), axis=axis)


def cross_entropy_from_logits(logits, labels):
    """Mean over rows of -log softmax at each row's label.

    Takes (B, C) logits with (B,) int labels. Uses the log-sum-exp max
    shift, so arbitrarily large finite logits are safe.
    """
    logits = _wrap(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_from_logits: logits must be (B, C), got {logits.shape}")
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy_from_logits: labels shape {lab.shape} does not match batch {logits.shape[0]}"
        )
    z = logits.data
    c = z.shape[1]
    if np.any(lab < 0) or np.any(lab >= c):
        raise ValueError(f"cross_entropy_from_logits: label out of range for {c} classes")

    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(z.shape[0])
    losses = lse - shifted[rows, lab]
    data = np.float64(losses.mean())
    vl = _vertex(logits)

    def bw(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, lab] -= 1.0
        p *= float(g) / len(rows)
        _accumulate(vl, p)

    return _from_op(np.asarray(data), (logits,), bw)


# ---------------------------------------------------------------------------
# optimizer


class SGD:
    """Momentum SGD over an explicit parameter list; velocities are exposed
    so training state can be checkpointed and restored exactly."""

    def __init__(self, params, lr, momentum=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._check_hyperparams()
        self.velocities = [np.zeros_like(p.data) for p in self.params]

    def _check_hyperparams(self):
        if self.lr <= 0.0:
            raise ValueError(f"SGD: lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"SGD: momentum must be in [0, 1), got {self.momentum}")

    def step(self):
        """One update: v <- momentum*v + grad; p <- p - lr*v; grads cleared.
        The hyperparameters are checked again: callers schedule `lr`."""
        self._check_hyperparams()
        for p, v in zip(self.params, self.velocities):
            if p.grad is None:
                raise GradError("SGD: parameter has no gradient")
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v
            p.grad = None
