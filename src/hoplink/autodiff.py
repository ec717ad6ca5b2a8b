"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Ops execute eagerly on numpy and record themselves on a thread-local tape
(a Wengert list). ``backward`` replays the tape in reverse, accumulating
gradients at fan-out points. Everything is double precision so gradient
checks stay sharp; graph structure enters as constant sparse operators or as
the index runs of the segment primitives.

Each thread has an ambient default tape; scoped work (one training batch,
one finite-difference probe) should run under ``with Tape():`` so records
are dropped when the block exits.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

Array = np.ndarray
ArrayLike = Union[float, int, Sequence, Array]


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


class DomainError(ValueError):
    """Operand values outside the op's domain (e.g. log of a non-positive)."""


class GraphError(RuntimeError):
    """Autodiff contract violation (non-scalar root, missing gradient, ...)."""


# --------------------------------------------------------------------------
# Tape machinery
# --------------------------------------------------------------------------

_tls = threading.local()


def _state():
    if not hasattr(_tls, "tapes"):
        _tls.tapes = [Tape()]
        _tls.grad_enabled = True
    return _tls


class Tape:
    """Execution-ordered record of differentiable ops.

    Records are (output, parents, backward_rule) triples appended in forward
    order, so a single reverse sweep visits every op after all of its
    consumers. Usable as a context manager to scope recording.
    """

    def __init__(self) -> None:
        self._records: list[tuple["Tensor", tuple["Tensor", ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _state().tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _state().tapes.pop()

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()


def active_tape() -> Tape:
    return _state().tapes[-1]


class no_grad:
    """Context manager: run ops without recording them."""

    def __enter__(self):
        st = _state()
        self._prev = st.grad_enabled
        st.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state().grad_enabled = self._prev


def grad_enabled() -> bool:
    return _state().grad_enabled


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------


class Tensor:
    """Dense float64 array plus an optional gradient accumulator.

    ``requires_grad`` marks leaves (parameters) or is derived for op
    outputs. ``grad`` is populated by :func:`backward` and accumulates
    across repeated calls until reset to ``None``.
    """

    def __init__(self, values: ArrayLike, requires_grad: bool = False) -> None:
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None
        self._produced = False  # True when created as an op output on a tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(values: ArrayLike) -> Tensor:
    return Tensor(values, requires_grad=True)


def constant(values: ArrayLike) -> Tensor:
    return Tensor(values, requires_grad=False)


def _apply(
    out_values: Array,
    parents: tuple[Tensor, ...],
    backward_rule: Callable[[Array], tuple[Optional[Array], ...]],
) -> Tensor:
    """Wrap an op result, recording it when gradients are live."""
    track = grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(out_values, requires_grad=track)
    if track:
        out._produced = True
        active_tape()._records.append((out, parents, backward_rule))
    return out


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every requires-grad tensor reachable from root.

    Root must be a scalar (size 1). The active tape must contain root's
    history. Each recorded op is visited exactly once, in reverse recording
    order; gradients sum at fan-out points. Calling again without zeroing
    grads accumulates.
    """
    if root.values.size != 1:
        raise GraphError(f"backward requires a scalar root, got shape {root.shape}")
    flowing: dict[int, Array] = {id(root): np.ones_like(root.values)}
    holders: dict[int, Tensor] = {id(root): root}
    for out, parents, rule in reversed(active_tape()._records):
        g = flowing.pop(id(out), None)
        if g is None:
            continue
        holders.pop(id(out), None)
        if out.requires_grad and out._produced:
            out.grad = g if out.grad is None else out.grad + g
        for parent, pg in zip(parents, rule(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg
                holders[key] = parent
    # whatever was never popped is a leaf
    for key, g in flowing.items():
        leaf = holders[key]
        if leaf.requires_grad:
            leaf.grad = g if leaf.grad is None else leaf.grad + g


# --------------------------------------------------------------------------
# Primitives: linear algebra
# --------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values

    def rule(g: Array):
        return g @ bv.T, av.T @ g

    return _apply(av @ bv, (a, b), rule)


def sparse_const_matmul(bag: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor.

    The sparse side carries structure only (e.g. token-count pooling rows)
    and is never differentiated; gradients flow to ``x`` alone.
    """
    csr = bag.tocsr()
    if x.values.ndim != 2 or csr.shape[1] != x.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {csr.shape} @ {x.shape}")

    def rule(g: Array):
        return (np.asarray(csr.T @ g),)

    return _apply(np.asarray(csr @ x.values), (x,), rule)


def transpose(x: Tensor) -> Tensor:
    return _apply(x.values.T.copy(), (x,), lambda g: (g.T,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = x.values.shape
    return _apply(x.values.reshape(shape).copy(), (x,), lambda g: (g.reshape(orig),))


# --------------------------------------------------------------------------
# Primitives: elementwise
# --------------------------------------------------------------------------


def _binary(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op} operand shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "add")
    return _apply(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "sub")
    return _apply(a.values - b.values, (a, b), lambda g: (g, -g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "hadamard")
    av, bv = a.values, b.values
    return _apply(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _apply(x.values * c, (x,), lambda g: (g * c,))


def scale_by(x: Tensor, s: Tensor) -> Tensor:
    """Multiply by a size-1 tensor (e.g. a learnable inverse temperature)."""
    if s.values.size != 1:
        raise ShapeError(f"scale_by factor must be scalar, got shape {s.shape}")
    xv, sv = x.values, float(s.values.reshape(-1)[0])

    def rule(g: Array):
        return g * sv, np.sum(g * xv).reshape(s.values.shape)

    return _apply(xv * sv, (x, s), rule)


def relu(x: Tensor) -> Tensor:
    keep = x.values > 0
    return _apply(np.where(keep, x.values, 0.0), (x,), lambda g: (g * keep,))


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    slope = np.where(x.values > 0, 1.0, alpha)
    return _apply(x.values * slope, (x,), lambda g: (g * slope,))


def sigmoid(x: Tensor) -> Tensor:
    # stable in both tails
    y = np.where(x.values >= 0,
                 1.0 / (1.0 + np.exp(-np.abs(x.values))),
                 np.exp(-np.abs(x.values)) / (1.0 + np.exp(-np.abs(x.values))))
    return _apply(y, (x,), lambda g: (g * y * (1.0 - y),))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.values)
    return _apply(y, (x,), lambda g: (g * y,))


def log(x: Tensor) -> Tensor:
    if np.any(x.values <= 0):
        raise DomainError("log of a non-positive value")
    xv = x.values
    return _apply(np.log(xv), (x,), lambda g: (g / xv,))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    y = np.logaddexp(0.0, x.values)
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.values, -700, 700)))
    return _apply(y, (x,), lambda g: (g * sig,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.values >= lo) & (x.values <= hi)
    return _apply(np.clip(x.values, lo, hi), (x,), lambda g: (g * inside,))


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with an explicit generator; rate 0 is the identity."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _apply(x.values * mask, (x,), lambda g: (g * mask,))


# --------------------------------------------------------------------------
# Primitives: softmax family
# --------------------------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by row-max subtraction."""
    if x.values.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {x.shape}")
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def rule(g: Array):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _apply(y, (x,), rule)


def log_softmax_rows(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"log_softmax_rows expects a matrix, got shape {x.shape}")
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    soft = np.exp(y)

    def rule(g: Array):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return _apply(y, (x,), rule)


# --------------------------------------------------------------------------
# Primitives: reductions and shaping
# --------------------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    shape = x.values.shape
    return _apply(np.asarray(x.values.sum()), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def mean_rows(x: Tensor) -> Tensor:
    """Column-wise mean over rows: (n, d) -> (d,)."""
    if x.values.ndim != 2:
        raise ShapeError(f"mean_rows expects a matrix, got shape {x.shape}")
    n = x.shape[0]
    return _apply(x.values.mean(axis=0), (x,), lambda g: (np.tile(g / n, (n, 1)),))


def row_sums(x: Tensor) -> Tensor:
    """Per-row sum: (n, d) -> (n, 1)."""
    if x.values.ndim != 2:
        raise ShapeError(f"row_sums expects a matrix, got shape {x.shape}")
    d = x.shape[1]
    return _apply(x.values.sum(axis=1, keepdims=True), (x,), lambda g: (np.repeat(g, d, axis=1),))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_cols of an empty list")
    rows = parts[0].shape[0]
    for p in parts:
        if p.values.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(f"concat_cols row counts differ: {[q.shape for q in parts]}")
    widths = [p.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def rule(g: Array):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=1))

    return _apply(np.concatenate([p.values for p in parts], axis=1), tuple(parts), rule)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-d blocks vertically."""
    if not parts:
        raise ShapeError("concat_rows of an empty list")
    if len(parts) == 1:
        return parts[0]
    if any(p.values.ndim != 2 or p.shape[1] != parts[0].shape[1] for p in parts):
        raise ShapeError(f"concat_rows column counts differ: {[q.shape for q in parts]}")
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]
    return _apply(np.concatenate([p.values for p in parts], axis=0), tuple(parts),
                  lambda g: tuple(np.split(g, splits, axis=0)))


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    if not rows:
        raise ShapeError("stack_rows of an empty list")
    for r in rows:
        if r.values.ndim != 1 or r.shape != rows[0].shape:
            raise ShapeError(f"stack_rows expects equal-length vectors, got {[q.shape for q in rows]}")

    def rule(g: Array):
        return tuple(g[i] for i in range(len(rows)))

    return _apply(np.stack([r.values for r in rows]), tuple(rows), rule)


def gather_rows(x: Tensor, indices) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows indices must be a flat sequence")
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows index out of range for {n} rows: {idx[(idx < 0) | (idx >= n)][0]}")
    shape = x.values.shape

    def rule(g: Array):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return _apply(x.values[idx], (x,), rule)


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Multiply row i of an (m, d) matrix by w[i] of an (m, 1) column."""
    if x.values.ndim != 2 or w.shape != (x.shape[0], 1):
        raise ShapeError(f"scale_rows needs (m, d) and (m, 1), got {x.shape} and {w.shape}")
    xv, wv = x.values, w.values
    return _apply(xv * wv, (x, w),
                  lambda g: (g * wv, (g * xv).sum(axis=1, keepdims=True)))


def _runs(x: Tensor, indptr, what: str) -> tuple[Array, Array]:
    """Start and length of each run; run k is rows indptr[k] to
    indptr[k + 1] - 1, as in a CSR matrix, and must not be empty."""
    ptr = np.asarray(indptr, dtype=np.int64)
    counts = np.diff(ptr)
    if (x.values.ndim != 2 or ptr.ndim != 1 or ptr.size < 2 or ptr[0] != 0
            or ptr[-1] != x.shape[0] or counts.min() < 1):
        raise ShapeError(f"{what}: indptr must rise strictly from 0 to {x.shape[0]} rows")
    return ptr[:-1], counts


def segment_sum(x: Tensor, indptr) -> Tensor:
    """Row sums over contiguous runs: (m, d) -> (len(indptr) - 1, d). A
    scatter-add over sorted indices thus needs no ``np.add.at``."""
    starts, counts = _runs(x, indptr, "segment_sum")
    return _apply(np.add.reduceat(x.values, starts, axis=0), (x,),
                  lambda g: (np.repeat(g, counts, axis=0),))


def segment_softmax(x: Tensor, indptr) -> Tensor:
    """Softmax within each contiguous run of an (m, 1) column, stabilized
    by the run's maximum."""
    starts, counts = _runs(x, indptr, "segment_softmax")
    if x.shape[1] != 1:
        raise ShapeError(f"segment_softmax expects an (m, 1) column, got {x.shape}")
    e = np.exp(x.values - np.repeat(np.maximum.reduceat(x.values, starts),
                                    counts, axis=0))
    y = e / np.repeat(np.add.reduceat(e, starts), counts, axis=0)
    return _apply(y, (x,), lambda g: (y * (g - np.repeat(
        np.add.reduceat(g * y, starts), counts, axis=0)),))


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Normalize each row to unit L2 norm.

    Zero rows pass through unchanged; which rows those were is flagged on
    the result as ``zero_rows`` (bool array) for callers that must skip
    them.
    """
    if x.values.ndim != 2:
        raise ShapeError(f"l2_normalize_rows expects a matrix, got shape {x.shape}")
    norms = np.linalg.norm(x.values, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    safe = np.where(norms == 0.0, 1.0, norms)
    y = x.values / safe

    def rule(g: Array):
        return ((g - y * (g * y).sum(axis=1, keepdims=True)) / safe,)

    out = _apply(y, (x,), rule)
    out.zero_rows = zero
    return out


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay.

    The decay multiplies the parameter by (1 - lr * weight_decay) before
    the bias-corrected adaptive step, so it never enters the moment
    estimates. Updates are in-place on the parameter tensors and are
    bit-deterministic for identical inputs and state.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise GraphError(f"AdamW.step: parameter {i} has no gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                p.values *= 1.0 - self.lr * self.weight_decay
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


# --------------------------------------------------------------------------
# Gradient verification
# --------------------------------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    For each coordinate i, the numeric gradient is
    (f(x + eps e_i) - f(x - eps e_i)) / (2 eps) and the reported error is
    max_i |analytic_i - numeric_i| / max(1, |numeric_i|). Diagnostic only:
    never raises on disagreement.
    """
    if eps <= 0:
        raise DomainError("finite_diff_check needs eps > 0")
    was = x.requires_grad
    x.requires_grad = True
    saved_grad = x.grad
    x.grad = None
    with Tape():
        out = f(x)
        if out.values.size != 1:
            raise GraphError(f"finite_diff_check needs scalar f(x), got shape {out.shape}")
        backward(out)
        analytic = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
    x.grad = saved_grad
    x.requires_grad = was

    flat = x.values.reshape(-1)
    numeric = np.zeros(flat.size)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(x).values.reshape(-1)[0])
            flat[i] = orig - eps
            f_minus = float(f(x).values.reshape(-1)[0])
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * eps)
    a = analytic.reshape(-1)
    return float(np.max(np.abs(a - numeric) / np.maximum(1.0, np.abs(numeric))))


# --------------------------------------------------------------------------
# Parameter initialization
# --------------------------------------------------------------------------


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    fan_in, fan_out = shape[0], shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-bound, bound, size=shape))


def normal_init(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.1) -> Tensor:
    return parameter(rng.normal(0.0, std, size=shape))
