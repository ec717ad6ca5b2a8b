"""Neighborhood encoders: GCN, GAT, and GraphSAGE layers over a subgraph.

All variants map an n x d feature matrix to n x d, so they are drop-in
interchangeable. They read one ``GraphBatch``, the batch's layout and its
symmetrized arrows, and aggregate through one sparse product,
``ad.sparse_matmul``: GCN and SAGE by a fixed operator, GAT by the edge
pattern filled with per-edge scores softmax-normalized over each node's
incoming edges. The final layer computes only the readout rows: every
variant takes the readout rows of its CSR matrix, a row slice that keeps
each row's edges in graph order, and GAT's final heads aggregate before
they project. Edge direction is preserved upstream for edge
reconstruction. Layers carry no bias terms.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .kg import _sorted_unique
# combine_adjacency stays importable here: perfbench's tracer wraps it by name
from .kg import combine_adjacency  # noqa: F401

if TYPE_CHECKING:
    from .config import RunConfig

VARIANTS = ("gcn", "gat", "sage")
ACTIVATIONS = {"relu": ad.relu, "leaky_relu": ad.leaky_relu}


def head_widths(dim: int, heads: int) -> list[int]:
    """Per-head output widths of a hidden GAT layer, which concatenates its
    heads, so the widths sum to dim exactly (the first dim % heads heads
    absorb the remainder). A final layer averages full-width heads."""
    base, extra = divmod(dim, heads)
    return [base + (1 if h < extra else 0) for h in range(heads)]


class GraphBatch:
    """A batch's stacked subgraphs as one edge index, shared by every layer,
    the edge mask and the visible graph.

    Subgraph k owns the ``sizes[k]`` consecutive node rows from
    ``offsets[k]`` (its head row) and the k-th run of ``arrows`` (m x 2),
    directed (i, j) pairs over those rows; ``owner`` holds each arrow's
    subgraph. The encoders see max(A, A^T) + I: its edges j -> i are
    ``src``/``dst``, sorted by dst then src, and node i's incoming edges
    fill positions indptr[i] to indptr[i + 1] - 1 (never empty, thanks to
    the self-loop).
    """

    def __init__(self, arrows: np.ndarray, sizes):
        sizes = self.sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
        if len(sizes) == 0 or (sizes < 1).any():
            raise ShapeError(f"subgraph sizes must be positive and non-empty, "
                             f"got {sizes.tolist()}")
        ends = np.cumsum(sizes)
        self.offsets = ends - sizes
        n = self.num_nodes = int(ends[-1])
        arrows = self.arrows = np.asarray(arrows, dtype=np.int64).reshape(-1, 2)
        if arrows.size and (arrows.min() < 0 or arrows.max() >= n):
            raise ShapeError(f"arrow endpoint outside {n} stacked rows")
        i, j = arrows[:, 0], arrows[:, 1]
        owner = self.owner = np.searchsorted(ends, i, side="right")
        if (owner != np.searchsorted(ends, j, side="right")).any():
            raise ShapeError("arrow crosses from one subgraph's rows into another's")
        if (np.diff(owner) < 0).any():
            raise ShapeError("arrows are not grouped by subgraph in batch order")
        keys = _sorted_unique(np.concatenate([i * n + j, j * n + i,
                                              np.arange(n) * (n + 1)]))
        self.dst, self.src = np.divmod(keys, n)
        self.indptr = np.searchsorted(self.dst, np.arange(n + 1))

    @cached_property
    def weight(self) -> np.ndarray:
        """Each edge's entry in max(A, A^T) + I: 2 on a looped node's diagonal."""
        out = np.ones(len(self.dst))
        looped = self.arrows[self.arrows[:, 0] == self.arrows[:, 1], 0]
        out[np.flatnonzero(self.dst == self.src)[looped]] = 2.0
        return out

    def _csr(self, values: np.ndarray, keep=slice(None)) -> sp.csr_matrix:
        counts = np.bincount(self.dst[keep], minlength=self.num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return sp.csr_matrix((values[keep], self.src[keep], indptr),
                             shape=(self.num_nodes, self.num_nodes))

    @cached_property
    def pattern(self) -> sp.csr_matrix:
        """The edges as a CSR matrix whose entry e is edge e; GAT supplies
        the entries."""
        return self._csr(np.ones(len(self.src)))

    @cached_property
    def gcn_operator(self) -> sp.csr_matrix:
        """D^(-1/2) (max(A, A^T) + I) D^(-1/2); isolated nodes keep their
        self-loop."""
        d_inv_sqrt = 1.0 / np.sqrt(np.bincount(self.dst, weights=self.weight,
                                               minlength=self.num_nodes))
        return self._csr(self.weight * d_inv_sqrt[self.dst] * d_inv_sqrt[self.src])

    @cached_property
    def mean_operator(self) -> sp.csr_matrix:
        """Row-normalized max(A, A^T); a node with no neighbors gets a zero
        row so its mean-neighbor term vanishes."""
        keep = (self.dst != self.src) | (self.weight == 2.0)
        deg = np.bincount(self.dst[keep], minlength=self.num_nodes)
        return self._csr(1.0 / np.maximum(deg, 1)[self.dst], keep)


def gcn_layer(X: Tensor, A_hat: sp.spmatrix, W: Tensor, activation=None) -> Tensor:
    out = ad.matmul(ad.sparse_matmul(A_hat, X), W)
    return activation(out) if activation is not None else out


def sage_layer(X: Tensor, M: sp.spmatrix, W: Tensor, activation=None,
               rows=None) -> Tensor:
    """[x_i ++ mean of i's neighbors] W for every node i, or for ``rows``
    only, in which case M holds just those rows of the mean operator."""
    own = X if rows is None else ad.gather_rows(X, rows)
    out = ad.matmul(ad.concat_cols([own, ad.sparse_matmul(M, X)]), W)
    return activation(out) if activation is not None else out


def gat_head(X: Tensor, pattern: sp.csr_matrix, dst: np.ndarray, W: Tensor,
             a_src: Tensor, a_dst: Tensor, readout: np.ndarray | None = None,
             alpha: float = 0.2) -> tuple[Tensor, np.ndarray]:
    """One attention head over a CSR edge pattern: entry e, in row dst[e]
    and column j, is an edge j -> i, i being that row's node (node
    readout[row] if given), that scores leaky_relu(a^T [Wx_i ++ Wx_j]),
    softmax-normalized over its row. Returns (the attention-weighted sums
    of XW, one per ``pattern`` row, and per-entry attention in ``pattern``
    order)."""
    if readout is None:  # project every node, then aggregate
        h = ad.matmul(X, W)
        s_dst, s_src = ad.matmul(h, a_src), ad.matmul(h, a_dst)
    else:  # aggregate, then project the readout rows: (A X) W = A (X W)
        h = X
        s_dst = ad.matmul(ad.gather_rows(X, readout), ad.matmul(W, a_src))
        s_src = ad.matmul(X, ad.matmul(W, a_dst))
    scores = ad.add(ad.gather_rows(s_dst, dst),
                    ad.gather_rows(s_src, pattern.indices))
    att = ad.segment_softmax(ad.leaky_relu(scores, alpha), pattern.indptr)
    out = ad.sparse_matmul(pattern, h, att)
    return (out if readout is None else ad.matmul(out, W)), att.values[:, 0]


class GraphEncoder:
    """Stacks ``config.layers`` rounds of the ``config.encoder`` variant over
    (X, graph).

    The readout for a subgraph is the head row of the final layer plus a
    residual copy of the head's input features, which keeps the no-neighbor
    case from collapsing. Only readout rows are read from the final layer,
    so it computes only those: hidden layers run over every node, the final
    one over the readout rows of the batch's CSR matrix for the variant
    (GAT's heads aggregate into those rows, then project only the sums).
    ``last_attention`` holds each GAT layer's head-mean attention, the final
    entry over those edges alone.
    """

    def __init__(self, config: RunConfig, rng: np.random.Generator):
        self.config = config.validate()
        self.params: dict[str, Tensor] = {}
        self.last_attention: list[np.ndarray] = []
        d = config.dim
        for layer in range(config.layers):
            final = layer == config.layers - 1
            if config.encoder == "gcn":
                self.params[f"l{layer}_w"] = ad.xavier_uniform((d, d), rng)
            elif config.encoder == "sage":
                self.params[f"l{layer}_w"] = ad.xavier_uniform((2 * d, d), rng)
            else:
                widths = ([d] * config.heads if final
                          else head_widths(d, config.heads))
                for h, out_dim in enumerate(widths):
                    p = f"l{layer}_h{h}"
                    self.params[f"{p}_w"] = ad.xavier_uniform((d, out_dim), rng)
                    self.params[f"{p}_asrc"] = ad.xavier_uniform((out_dim, 1), rng)
                    self.params[f"{p}_adst"] = ad.xavier_uniform((out_dim, 1), rng)

    def encode(self, X: Tensor, graph: GraphBatch, readout: list[int]) -> Tensor:
        """Run the stack over one batch graph and return the given rows of
        its final layer, adding the residual from X."""
        if X.shape[0] != graph.num_nodes:
            raise ShapeError(
                f"X has {X.shape[0]} rows for a {graph.num_nodes}-node graph")
        readout = np.asarray(readout)
        if readout.ndim != 1 or readout.size == 0 or readout.dtype.kind not in "iu":
            raise ShapeError("readout must be a non-empty flat sequence of integer rows")
        readout = readout.astype(np.int64, copy=False)
        # explicit, because a scipy row slice wraps negative rows
        n = graph.num_nodes
        if readout.min() < 0 or readout.max() >= n:
            raise IndexError(f"readout row out of range for {n} nodes: "
                             f"{readout[(readout < 0) | (readout >= n)][0]}")
        cfg = self.config
        activation = ACTIVATIONS[cfg.activation]
        self.last_attention = []

        H = X
        for layer in range(cfg.layers):
            final = layer == cfg.layers - 1
            act = None if final else activation
            if cfg.encoder == "gcn":
                op = graph.gcn_operator[readout] if final else graph.gcn_operator
                H = gcn_layer(H, op, self.params[f"l{layer}_w"], act)
            elif cfg.encoder == "sage":
                op = graph.mean_operator[readout] if final else graph.mean_operator
                H = sage_layer(H, op, self.params[f"l{layer}_w"], act,
                               readout if final else None)
            else:
                pattern, dst = graph.pattern, graph.dst
                if final:
                    pattern = pattern[readout]
                    dst = np.repeat(np.arange(len(readout)), np.diff(pattern.indptr))
                heads = [gat_head(H, pattern, dst,
                                  *(self.params[f"l{layer}_h{h}_{k}"]
                                    for k in ("w", "asrc", "adst")),
                                  readout if final else None)
                         for h in range(cfg.heads)]
                self.last_attention.append(np.mean([a for _, a in heads], axis=0))
                outs = [out for out, _ in heads]
                # hidden layers concatenate their heads, the final one averages
                H = (ad.scale(reduce(ad.add, outs), 1.0 / cfg.heads) if final
                     else activation(ad.concat_cols(outs)))

        return ad.add(H, ad.gather_rows(X, readout))

