"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Ops execute eagerly on numpy and record themselves on a thread-local tape
(a Wengert list). ``backward`` replays the tape in reverse, summing
gradients at fan-out points, and stores gradients on leaves only: an op
output's gradient is dropped once its backward rule has used it.
Everything is double precision so gradient checks stay sharp; graph
structure enters as constant sparse matrices, as the edge patterns of
``edge_attention`` and as the sequence lengths of ``sequence_attention``.
Sparse products, and the scatter behind ``gather_rows``' gradient, run
scipy's compiled CSR/CSC kernels on the operator's own arrays, so no op
builds a sparse matrix of its own.

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
# scipy's private module of compiled sparse kernels: the ones ``csr @ x`` and
# ``csr.T @ x`` run once scipy has built, checked and dispatched on a matrix
# object. Called directly they add the same terms in the same order, so the
# bits do not change, and no op pays for a matrix of its own (its
# construction cost more than the product on this project's small operators).
from scipy.sparse import _sparsetools

Array = np.ndarray
ArrayLike = Union[float, int, Sequence, Array]


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


class DomainError(ValueError):
    """Operand values outside the op's domain (e.g. a non-positive step)."""


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
    outputs. :func:`backward` populates ``grad`` on leaves only, that is on
    tensors that are not outputs of an op on the tape it replays; it
    accumulates across repeated calls until reset to ``None``. An op
    output's ``grad`` stays ``None``.
    """

    def __init__(self, values: ArrayLike, requires_grad: bool = False) -> None:
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None

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
        active_tape()._records.append((out, parents, backward_rule))
    return out


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from root.

    Root must be a scalar (size 1). The active tape must contain root's
    history. Each recorded op is visited exactly once, in reverse recording
    order, and its output's gradient is dropped once its rule has used it;
    a leaf is any tensor whose producing op is not on this tape (a
    parameter, or an op output from an outer tape). Gradients sum at
    fan-out points in arrival order. Calling again without zeroing grads
    accumulates.
    """
    if root.values.size != 1:
        raise GraphError(f"backward requires a scalar root, got shape {root.shape}")
    flowing: dict[int, Array] = {id(root): np.ones_like(root.values)}
    holders: dict[int, Tensor] = {id(root): root}
    # keys whose flowing array backward allocated itself: only those may be
    # summed into in place, because a rule may hand the same array to
    # several parents (add) or return a view of its input (concat_rows)
    owned: set[int] = set()
    for out, parents, rule in reversed(active_tape()._records):
        key = id(out)
        g = flowing.pop(key, None)
        if g is None:
            continue
        del holders[key]
        for parent, pg in zip(parents, rule(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in owned:
                np.add(flowing[key], pg, out=flowing[key])
            elif key in flowing:
                flowing[key] = flowing[key] + pg
                owned.add(key)
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


def csr_rows(values: Array, indices: Array, counts: Array, width: int) -> sp.csr_matrix:
    """The CSR matrix whose row i holds the next ``counts[i]`` entries of
    ``values`` in the columns ``indices``, built on int32 index arrays:
    scipy's own index type, which its constructor takes without checking
    and copying every index down."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((values, indices.astype(np.int32, copy=False), indptr),
                         shape=(len(counts), width))


def _csr_product(indptr: Array, indices: Array, data: Array, shape: tuple[int, int],
                 x: Array, transpose: bool = False) -> Array:
    """``A @ x``, or ``A.T @ x``, for the CSR matrix A = (data, indices,
    indptr) of ``shape``, through the kernel scipy's ``@`` picks: A's arrays
    read as CSC are A.T, and one column takes the vector kernel."""
    m, n = shape[::-1] if transpose else shape
    # the kernels read x unchecked: a short x would be read past its end
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"sparse product of an ({m}, {n}) matrix with {x.shape}")
    out = np.zeros((m, x.shape[1]))
    if x.shape[1] == 1:
        kernel = _sparsetools.csc_matvec if transpose else _sparsetools.csr_matvec
        kernel(m, n, indptr, indices, data, np.ravel(x), out.reshape(-1))
    else:
        kernel = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
        kernel(m, n, x.shape[1], indptr, indices, data, np.ravel(x), out.reshape(-1))
    return out


def sparse_matmul(a: sp.spmatrix, x: Tensor) -> Tensor:
    """``a @ x`` for a constant sparse matrix ``a``, both ways on scipy's
    CSR/CSC kernels over ``a``'s arrays (as ``csr @ x``, ``csr.T @ g``)."""
    csr = a.tocsr()
    if x.values.ndim != 2 or csr.shape[1] != x.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {csr.shape} @ {x.shape}")
    arrays = (csr.indptr, csr.indices, csr.data, csr.shape)
    return _apply(_csr_product(*arrays, x.values), (x,),
                  lambda g: (_csr_product(*arrays, g, transpose=True),))


def transpose(x: Tensor) -> Tensor:
    return _apply(x.values.T.copy(), (x,), lambda g: (g.T,))


# --------------------------------------------------------------------------
# Primitives: elementwise
# --------------------------------------------------------------------------


def _binary(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op} operand shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "add")
    return _apply(a.values + b.values, (a, b), lambda g: (g, g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "hadamard")
    av, bv = a.values, b.values

    def rule(g: Array):
        # a constant factor (a mask, a weight, noise) gets no product
        return (g * bv if a.requires_grad else None,
                g * av if b.requires_grad else None)

    return _apply(av * bv, (a, b), rule)


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
    # np.where(keep, x, 0.0) in bits, ~10x faster on random signs: fmax maps
    # NaN to 0 like the mask, and += 0.0 turns the -0.0 that fmax returns
    # for -0.0 at some positions into 0.0
    out = np.fmax(x.values, 0.0)
    out += 0.0
    return _apply(out, (x,), lambda g: (g * keep,))


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    slope = np.where(x.values > 0, 1.0, alpha)
    return _apply(x.values * slope, (x,), lambda g: (g * slope,))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.values)
    return _apply(y, (x,), lambda g: (g * y,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.values >= lo) & (x.values <= hi)
    return _apply(np.clip(x.values, lo, hi), (x,), lambda g: (g * inside,))


# --------------------------------------------------------------------------
# Primitives: softmax family
# --------------------------------------------------------------------------


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
        # a constant piece (a zero pad) gets no copy
        return tuple(np.ascontiguousarray(piece) if p.requires_grad else None
                     for p, piece in zip(parts, np.split(g, splits, axis=1)))

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


def gather_rows(x: Tensor, indices) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {x.shape}")
    idx = np.asarray(indices)
    # np.asarray([]) is float64, so only a non-empty index list must be integer
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ShapeError("gather_rows indices must be a flat sequence of integers")
    idx = idx.astype(np.int64, copy=False)
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows index out of range for {n} rows: {idx[(idx < 0) | (idx >= n)][0]}")

    return _apply(x.values[idx], (x,), lambda g: (_scatter_rows(idx, g, n),))


def _scatter_rows(idx: Array, g: Array, n: int) -> Array:
    """The (n, d) sum of the rows of g into rows idx, ``gather_rows``'
    gradient. Both ways sum the rows of repeated indices in gather order, so
    they round alike. Several columns: the gather is the CSR matrix with row
    k's one entry in column idx[k], so its transpose product is the scatter.
    One column: bincount is quicker (and returns int64 zeros for no
    indices, hence the cast)."""
    if g.shape[1] == 1:
        col = np.bincount(idx, weights=g[:, 0], minlength=n)
        return col.astype(np.float64, copy=False)[:, None]
    return _csr_product(np.arange(idx.size + 1), idx, np.ones(idx.size),
                        (idx.size, n), g, transpose=True)


# softmax within each run of counts[k] rows from starts[k] (none empty),
# stabilized by the run's maximum, and its backward
def _segment_softmax(x: Array, starts: Array, counts: Array) -> Array:
    e = np.exp(x - np.repeat(np.maximum.reduceat(x, starts), counts, axis=0))
    return e / np.repeat(np.add.reduceat(e, starts), counts, axis=0)


def _segment_softmax_grad(y: Array, g: Array, starts: Array, counts: Array) -> Array:
    return y * (g - np.repeat(np.add.reduceat(g * y, starts), counts, axis=0))


# edge_attention's backward gathers the rows of g and x that meet at each
# entry this many cells at a time, so its temporaries (128 KiB) are reused
# from the heap instead of being fresh (nnz x w) arrays whose pages fault in
# on every call. Wide k=2 GAT batch (1,562 nodes, 8,584 entries, 3 heads),
# encode forward + backward, medians of 200 alternated rounds at one BLAS
# thread: whole gathers 10.1 ms, 4,096 cells 9.8, 16,384 cells 9.1, 65,536
# cells 9.3.
GATHER_CELLS = 16384


def edge_attention(x: Tensor, scores: Tensor, pattern: sp.csr_matrix, dst,
                   blocks: Sequence[slice], alpha: float = 0.2) -> tuple[Tensor, list[Array]]:
    """Graph attention heads over the entries of a CSR edge pattern, head k
    summing the columns ``blocks[k]`` of ``x``.

    Entry e of ``pattern``, in column j, is an edge j -> i into its row,
    whose node i is row ``dst[e]`` of ``scores``; ``x`` and ``scores`` have
    a row per pattern column. Head k scores the edge
    leaky_relu(scores[i, 2k] + scores[j, 2k + 1]), softmax-normalizes the
    scores within each pattern row (which must not be empty) and sums
    x[:, blocks[k]] with those weights, through one CSR product. Returns
    the heads' sums side by side, one row per pattern row, and each head's
    attention in ``pattern`` entry order. Gradients flow to x and scores:
    one dx, each head adding into its block, and one dscores.
    """
    csr = pattern.tocsr()
    ptr, cols = csr.indptr, csr.indices
    dst = np.asarray(dst)
    n = csr.shape[1]
    if x.values.ndim != 2 or scores.values.ndim != 2 or x.shape[0] != n \
            or scores.shape[0] != n or scores.shape[1] < 2 * len(blocks):
        raise ShapeError(f"edge_attention: {len(blocks)} heads over a {csr.shape} pattern "
                         f"need x with {n} rows and {n} x {2 * len(blocks)}+ scores, "
                         f"got {x.shape} and {scores.shape}")
    if dst.shape != (csr.nnz,) or dst.dtype.kind not in "iu" \
            or (dst.size and (dst.min() < 0 or dst.max() >= n)):
        raise ShapeError(f"edge_attention: dst must be {csr.nnz} integer rows under {n}")
    starts, counts = ptr[:-1], np.diff(ptr)
    if counts.min(initial=1) < 1:
        raise ShapeError("edge_attention: every pattern row needs an entry")
    xv, by_column = x.values, scores.values.T
    parts = [np.ascontiguousarray(xv[:, b]) for b in blocks]
    heads = []
    for k, xk in enumerate(parts):
        s = by_column[2 * k][dst] + by_column[2 * k + 1][cols]
        slope = np.where(s > 0, 1.0, alpha)
        y = _segment_softmax(s * slope, starts, counts)
        heads.append((xk, slope, y, _csr_product(ptr, cols, y, csr.shape, xk)))
    splits = np.cumsum([xk.shape[1] for xk in parts])[:-1]

    def rule(g: Array):
        dx, ds = np.zeros(xv.shape), np.zeros(scores.shape)
        rows = np.repeat(np.arange(len(counts)), counts)
        for k, (b, gk, (xk, slope, y, _)) in enumerate(
                zip(blocks, np.split(g, splits, axis=1), heads)):
            gk = np.ascontiguousarray(gk)
            dx[:, b] += _csr_product(ptr, cols, y, csr.shape, gk, transpose=True)
            # entry e's weight meets g in its row and x in its column
            gy = np.empty(len(cols))
            step = max(1, GATHER_CELLS // gk.shape[1])
            for lo in range(0, len(cols), step):
                e = slice(lo, lo + step)
                np.einsum("ij,ij->i", gk[rows[e]], xk[cols[e]], out=gy[e])
            gs = _segment_softmax_grad(y, gy, starts, counts) * slope
            ds[:, 2 * k] = np.bincount(dst, weights=gs, minlength=n)
            ds[:, 2 * k + 1] = np.bincount(cols, weights=gs, minlength=n)
        return dx, ds

    out = _apply(np.concatenate([h[3] for h in heads], axis=1), (x, scores), rule)
    return out, [h[2] for h in heads]


def sequence_attention(q: Tensor, k: Tensor, v: Tensor, lengths, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within each sequence.

    q, k and v are (T, d), the rows of sequence i being the next
    ``lengths[i]`` rows. Head h reads columns h * d / heads to
    (h + 1) * d / heads - 1, and each row attends to every row of its own
    sequence. Sequences of equal length share one batched product, so
    nothing is padded and a row's bits do not depend on which other
    sequences share the call.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    if q.values.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"sequence_attention q, k, v shapes: {q.shape}, {k.shape}, {v.shape}")
    if lens.ndim != 1 or (lens < 0).any() or lens.sum() != q.shape[0]:
        raise ShapeError(f"sequence_attention lengths must be >= 0 and sum to {q.shape[0]} rows")
    d = q.shape[1]
    if heads < 1 or d % heads:
        raise ShapeError(f"sequence_attention: {d} columns do not split into {heads} heads")
    hd = d // heads
    c = 1.0 / math.sqrt(hd)
    starts = np.cumsum(lens) - lens

    def split(x: Array, rows: Array) -> Array:  # -> (count, heads, L, hd)
        return x[rows].reshape(*rows.shape, heads, hd).transpose(0, 2, 1, 3)

    def merge(y: Array, rows: Array, out: Array) -> None:
        out[rows] = y.transpose(0, 2, 1, 3).reshape(*rows.shape, d)

    out = np.empty_like(q.values)
    groups = []
    for length in np.unique(lens[lens > 0]):
        rows = starts[lens == length][:, None] + np.arange(length)
        qs, ks, vs = split(q.values, rows), split(k.values, rows), split(v.values, rows)
        scores = (qs @ ks.swapaxes(2, 3)) * c
        e = np.exp(scores - scores.max(axis=3, keepdims=True))
        att = e / e.sum(axis=3, keepdims=True)
        merge(att @ vs, rows, out)
        groups.append((rows, qs, ks, vs, att))

    def rule(g: Array):
        dq, dk, dv = np.empty_like(g), np.empty_like(g), np.empty_like(g)
        for rows, qs, ks, vs, att in groups:
            gs = split(g, rows)
            merge(att.swapaxes(2, 3) @ gs, rows, dv)
            ga = gs @ vs.swapaxes(2, 3)
            gscores = att * (ga - (ga * att).sum(axis=3, keepdims=True)) * c
            merge(gscores @ ks, rows, dq)
            merge(gscores.swapaxes(2, 3) @ qs, rows, dk)
        return dq, dk, dv

    return _apply(out, (q, k, v), rule)


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


def vgae_objective(mu: Tensor, log_sigma: Tensor, z: Tensor, pairs, sign: Array,
                   pair_weight: Array, row_weight: Array, offset: float) -> Tensor:
    """A VGAE's edge loss as one op: the pair term
    sum_p pair_weight[p] softplus(sign[p] z_i . z_j) over the rows (i, j) of
    ``pairs``, plus the KL term sum_r row_weight[r] sum_c (exp(2 log_sigma)
    + mu^2 - 2 log_sigma)[r, c], plus ``offset``. ``sign``, ``pair_weight``
    and ``row_weight`` are columns: (p, 1), (p, 1) and (n, 1).

    Value and gradients equal, bit for bit, those of the same loss taped
    op by op (gathers, products, row sums, softplus and sums for the pair
    term; scale, exp, products, add, subtract and a sum for the KL term;
    two adds), which the tests keep as its oracle. So the rule repeats that
    tape's arithmetic in the order ``backward`` ran it: mu's two KL products
    are summed, log_sigma's ``-2 g`` comes before its ``2 g sigma^2``, and
    z's scatter into the pairs' second rows before the one into their
    first. Gradients flow to mu, log_sigma and z.
    """
    if mu.values.ndim != 2 or log_sigma.shape != mu.shape or z.shape != mu.shape:
        raise ShapeError(f"vgae_objective: mu {mu.shape}, log_sigma "
                         f"{log_sigma.shape} and z {z.shape} must be one matrix shape")
    idx = np.asarray(pairs)
    # np.asarray([]) is float64, so only non-empty pairs must be integer
    if idx.ndim != 2 or idx.shape[1] != 2 or (idx.size and idx.dtype.kind not in "iu"):
        raise ShapeError("vgae_objective pairs must be a (p, 2) array of integer rows")
    idx = idx.astype(np.int64, copy=False)
    n = z.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"vgae_objective pair row out of range for {n} rows: "
                         f"{idx[(idx < 0) | (idx >= n)][0]}")
    if sign.shape != (len(idx), 1) or pair_weight.shape != sign.shape \
            or row_weight.shape != (n, 1):
        raise ShapeError(f"vgae_objective: {len(idx)} pairs over {n} rows need "
                         f"({len(idx)}, 1) signs and weights and ({n}, 1) row "
                         f"weights, got {sign.shape}, {pair_weight.shape} and "
                         f"{row_weight.shape}")
    first, second = idx[:, 0], idx[:, 1]
    muv, lsv, zv = mu.values, log_sigma.values, z.values
    left, right = zv[first], zv[second]
    signed = (left * right).sum(axis=1, keepdims=True) * sign
    pair_term = (np.logaddexp(0.0, signed) * pair_weight).sum()
    # in place, so fewer fresh (n x d) arrays: the same operations on the
    # same operands as the op-by-op tape, so the same bits (a + b = b + a)
    two_log_sigma = lsv * 2.0
    sigma_sq = np.exp(two_log_sigma)
    cells = muv * muv
    cells += sigma_sq
    cells -= two_log_sigma
    cells *= row_weight
    kl_term = cells.sum()

    def rule(g: Array):
        cell = g * row_weight
        dmu = cell * muv
        dmu += dmu
        dlog_sigma = cell * sigma_sq
        dlog_sigma *= 2.0
        dlog_sigma += (-cell) * 2.0
        sig = 1.0 / (1.0 + np.exp(-np.clip(signed, -700, 700)))
        dscore = ((g * pair_weight) * sig) * sign
        dz = _scatter_rows(second, dscore * left, n)
        dz += _scatter_rows(first, dscore * right, n)
        return dmu, dlog_sigma, dz

    return _apply((pair_term + kl_term) + offset, (mu, log_sigma, z), rule)


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


# AdamW.step updates a larger tensor in slices of this many values (128 KiB),
# so its four temporaries stay in a core's L2 cache instead of being as
# large as the embedding table, and a smaller one in one piece. Timed on the
# wide model's tensors with one BLAS thread: 4,096: 2.4 ms, 16,384: 2.0 ms,
# 65,536: 2.1 ms, unsliced: 3.9 ms per step.
ADAMW_SLICE = 16384


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
        for p, m, v in zip(self.params, self.m, self.v):
            if p.values.size <= ADAMW_SLICE:
                self._update(p.values, m, v, p.grad, bc1, bc2)
                continue
            flat = (p.values.reshape(-1, copy=False), m.reshape(-1),
                    v.reshape(-1), p.grad.reshape(-1))
            for lo in range(0, p.values.size, ADAMW_SLICE):
                self._update(*(a[lo:lo + ADAMW_SLICE] for a in flat), bc1, bc2)

    def _update(self, pv: np.ndarray, mv: np.ndarray, vv: np.ndarray,
                g: np.ndarray, bc1: float, bc2: float) -> None:
        # in place, keeping the operation order of the update
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so it rounds the same way
        mv *= self.beta1
        mv += (1.0 - self.beta1) * g
        gg = g * g
        gg *= 1.0 - self.beta2
        vv *= self.beta2
        vv += gg
        if self.weight_decay:
            pv *= 1.0 - self.lr * self.weight_decay
        step = mv / bc1
        step *= self.lr
        den = vv / bc2
        np.sqrt(den, out=den)
        den += self.eps
        step /= den
        pv -= step

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
