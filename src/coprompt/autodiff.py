"""Dense float64 tensors with reverse-mode automatic differentiation.

A small CPU engine sized for desk-scale encoder experiments: every op is
backed by numpy, gradients are exact enough to survive finite-difference
checks at 1e-6 relative error, and graph recording is skipped entirely
when no input requires gradients (so frozen/eval passes allocate nothing).
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
    """Input lies outside an op's documented domain (e.g. log of x <= 0)."""


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

    Treat the ``data`` buffer as immutable once constructed; the only
    sanctioned mutator is the optimizer, which owns its parameters.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._seq = 0

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

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

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return slice_(self, idx)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def relu(self):
        return relu(self)

    def gelu(self):
        return gelu(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def softmax(self, axis=-1):
        return softmax(self, axis=axis)


def _wrap(value):
    return value if isinstance(value, Tensor) else Tensor(value)


_seq_counter = 0


def _from_op(data, parents, backward):
    global _seq_counter
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        _seq_counter += 1
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out._seq = _seq_counter
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        out._seq = 0
    return out


def _accumulate(t, g):
    """Hand gradient `g` to `t`. The first one is kept by reference, later
    ones are summed into a new array: gradient arrays may be shared between
    tensors, so none is ever written in place. A stored gradient has the
    memory layout of `t.data`, so a reduction over it sums in one fixed
    order whichever op produced it."""
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise GradError(f"backward: gradient of shape {g.shape} for a tensor of shape {t.shape}")
    if t.grad is None and g.flags.c_contiguous and t.data.flags.c_contiguous:
        t.grad = g
    else:
        t.grad = np.add(0.0 if t.grad is None else t.grad, g, out=np.empty_like(t.data))


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
    the remaining trajectory bit-identical. Leaf gradients accumulate across
    repeated calls; interior gradients are reset per call.
    """
    if loss.data.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")

    reachable = []
    visited = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        reachable.append(node)
        stack.extend(node._parents)

    interior = [n for n in reachable if n._parents]
    interior.sort(key=lambda n: n._seq, reverse=True)
    for node in interior:
        node.grad = None

    if loss._parents:
        loss.grad = np.ones_like(loss.data)
    else:
        _accumulate(loss, np.ones_like(loss.data))

    for node in interior:
        if node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# primitive ops


def _broadcast_op(op, ufunc, x, y):
    """ufunc(x, y) on arrays; a broadcast failure is a ShapeError naming `op`."""
    try:
        return ufunc(x, y)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast {x.shape} with {y.shape}") from None


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    data = _broadcast_op("add", np.add, a.data, b.data)

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _from_op(data, (a, b), bw)


def neg(a):
    a = _wrap(a)

    def bw(g):
        _accumulate(a, -g)

    return _from_op(-a.data, (a,), bw)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    data = _broadcast_op("mul", np.multiply, a.data, b.data)

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(data, (a, b), bw)


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    data = _broadcast_op("div", np.divide, a.data, b.data)

    def bw(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _from_op(data, (a, b), bw)


def power(a, p):
    a = _wrap(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0):
        raise DomainError(f"pow: fractional exponent {p} on negative input")
    data = a.data ** p

    def bw(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _from_op(data, (a,), bw)


def matmul(a, b, bias=None):
    """a @ b, plus `bias` broadcast over the result when given, as one node."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data)
    parents = (a, b)
    if bias is not None:
        bias = _wrap(bias)
        try:
            np.add(data, bias.data, out=data)
        except ValueError:
            raise ShapeError(f"matmul: cannot broadcast bias {bias.shape} to {data.shape}") from None
        parents = (a, b, bias)

    def bw(g):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if not b.requires_grad:
            return
        if b.ndim == 2 and a.ndim > 2:
            # a weight shared across a batch: one flat product sums the batch
            _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        else:
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _from_op(data, parents, bw)


def sum_(a, axis=None, keepdims=False):
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

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

    def bw(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accumulate(t, piece)

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

    def bw(g):
        ga = np.zeros_like(a.data)
        if advanced:
            np.add.at(ga, idx, g)
        else:
            ga[idx] = g
        _accumulate(a, ga)

    return _from_op(data, (a,), bw)


def broadcast_to(a, shape):
    """Broadcast `a` to `shape` as numpy does; backward sums the copies."""
    a = _wrap(a)
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {tuple(shape)}") from None

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))

    return _from_op(data, (a,), bw)


def embedding_lookup(table, ids):
    """Gather rows of `table` by integer index, differentiable in the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= table.data.shape[0]):
        raise DomainError(f"embedding_lookup: index out of range for table of {table.data.shape[0]} rows")
    data = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        _accumulate(table, gt)

    return _from_op(data, (table,), bw)


def reshape(a, shape):
    a = _wrap(a)
    data = a.data.reshape(shape)

    def bw(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _from_op(data, (a,), bw)


def transpose(a, axes):
    a = _wrap(a)
    data = np.transpose(a.data, axes).copy()
    inverse = np.argsort(axes)

    def bw(g):
        _accumulate(a, np.transpose(g, inverse))

    return _from_op(data, (a,), bw)


def relu(a):
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)

    def bw(g):
        _accumulate(a, g * (a.data > 0.0))

    return _from_op(data, (a,), bw)


def gelu(a):
    a = _wrap(a)
    cdf = a.data * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = a.data * cdf

    def bw(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        _accumulate(a, g * (cdf + a.data * pdf))

    return _from_op(data, (a,), bw)


def exp(a):
    a = _wrap(a)
    data = np.exp(a.data)

    def bw(g):
        _accumulate(a, g * data)

    return _from_op(data, (a,), bw)


def log(a):
    a = _wrap(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: input must be strictly positive")
    data = np.log(a.data)

    def bw(g):
        _accumulate(a, g / a.data)

    return _from_op(data, (a,), bw)


def softmax(a, axis=-1):
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - inner))

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
    if gamma is not None:
        gamma = _wrap(gamma)
        data = _broadcast_op("layernorm", np.multiply, xhat, gamma.data)
        parents.append(gamma)
    if beta is not None:
        beta = _wrap(beta)
        data = _broadcast_op("layernorm", np.add, data, beta.data)
        parents.append(beta)

    def bw(g):
        if beta is not None and beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.data.shape))
        if gamma is not None:
            if gamma.requires_grad:
                _accumulate(gamma, _unbroadcast(g * xhat, gamma.data.shape))
            g = _unbroadcast(g * gamma.data, xhat.shape)
        if a.requires_grad:
            gm = g.mean(axis=axis, keepdims=True)
            gx = (g * xhat).mean(axis=axis, keepdims=True)
            _accumulate(a, inv * (g - gm - xhat * gx))

    return _from_op(data, tuple(parents), bw)


def l2_normalize(a, axis=-1, eps=L2_EPSILON):
    """x / sqrt(sum(x^2) + eps); zero vectors map to zero, never NaN."""
    a = _wrap(a)
    sq = (a.data * a.data).sum(axis=axis, keepdims=True)
    norm = np.sqrt(sq + eps)
    data = a.data / norm

    def bw(g):
        dot = (g * a.data).sum(axis=axis, keepdims=True)
        _accumulate(a, g / norm - a.data * dot / (norm * norm * norm))

    return _from_op(data, (a,), bw)


def cosine_similarity(a, b, axis=-1):
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: shapes differ, {a.shape} vs {b.shape}")
    return sum_(mul(l2_normalize(a, axis=axis), l2_normalize(b, axis=axis)), axis=axis)


def cross_entropy_from_logits(logits, labels):
    """-log softmax at the label index; batched inputs return the row mean.

    Uses the log-sum-exp max shift, so arbitrarily large finite logits are
    safe. Accepts (C,) logits with an int label or (B, C) with (B,) labels.
    """
    logits = _wrap(logits)
    if logits.ndim == 1:
        lab = np.asarray([int(labels)])
        z = logits.data[None, :]
    elif logits.ndim == 2:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (logits.shape[0],):
            raise ShapeError(
                f"cross_entropy_from_logits: labels shape {lab.shape} does not match batch {logits.shape[0]}"
            )
        z = logits.data
    else:
        raise ShapeError(f"cross_entropy_from_logits: logits must be 1-D or 2-D, got {logits.shape}")
    c = z.shape[1]
    if np.any(lab < 0) or np.any(lab >= c):
        raise ValueError(f"cross_entropy_from_logits: label out of range for {c} classes")

    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(z.shape[0])
    losses = lse - shifted[rows, lab]
    data = np.float64(losses.mean())

    def bw(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, lab] -= 1.0
        p *= float(g) / z.shape[0]
        _accumulate(logits, p[0] if logits.ndim == 1 else p)

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

    def zero_grad(self):
        for p in self.params:
            p.grad = None
