"""Neighborhood encoders: GCN, GAT, and GraphSAGE layers over a subgraph.

All variants map an n x d feature matrix to n x d, so they are drop-in
interchangeable. They read one ``GraphBatch``, the batch's layout and its
symmetrized arrows. GCN and SAGE aggregate through one sparse product by a
fixed operator, ``ad.sparse_matmul``. Every GAT head reads the same input,
so a GAT layer makes one projection, one score product for all its heads
and one ``ad.edge_attention`` op, which softmax-normalizes each head's
per-edge scores over each node's incoming edges and aggregates through the
edge pattern; its products before the attention are row-wise, so
evaluation computes layer 0's once per entity. The final layer computes
only the readout rows: every variant takes the readout rows of its CSR
matrix, a row slice that keeps each row's edges in graph order, and GAT's
final heads aggregate before they project. Edge direction is preserved
upstream for edge reconstruction. Layers carry no bias terms.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .kg import _range_slots, _sorted_unique
# combine_adjacency stays importable here: perfbench's tracer wraps it by name
from .kg import combine_adjacency  # noqa: F401

if TYPE_CHECKING:
    from .config import RunConfig

VARIANTS = ("gcn", "gat", "sage")
ACTIVATIONS = {"relu": ad.relu, "leaky_relu": ad.leaky_relu}
# GAT's score product has a multiple of this many columns, zero-padded:
# OpenBLAS rounds a row of a product of another width the same way only at
# the same position in a product of about the same size, so a query's vector
# would depend on its chunk (4 columns fixed the position, 8 the size too;
# 10 and 12 columns, for 5 and 6 heads, moved rows again)
SCORE_WIDTH = 8


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

    def without(self, pairs: np.ndarray) -> GraphBatch:
        """This batch with the (p x 2) ``pairs``, each an edge of it (held
        arrows, say), unlinked both ways: what ``GraphBatch(arrows, sizes)``
        builds from the arrows that are neither a pair nor a pair reversed.
        The edge i -> j goes with its arrows, the diagonal stays, and a pair
        (i, i) only drops i's weight to 1. A subset of a checked batch's
        arrows keeps every layout rule, so the result is cut from this
        batch's sorted fields, with no sort of its edges and no check."""
        n = self.num_nodes
        i, j = pairs[:, 0], pairs[:, 1]
        hidden = np.concatenate([i * n + j, j * n + i])
        keys = self.dst * n + self.src
        # keys are sorted and distinct, so a pair's key sorts onto its edge
        cut = np.searchsorted(keys, hidden)
        if (keys[np.minimum(cut, len(keys) - 1)] != hidden).any():
            raise ShapeError("a pair to unlink is not an edge of the batch")
        linked = np.ones(len(keys), dtype=bool)
        linked[cut] = False
        linked |= self.dst == self.src
        # n * n is past every key, so each arrow's key sorts onto a key
        hidden = np.append(np.sort(hidden), n * n)
        arrow_keys = self.arrows[:, 0] * n + self.arrows[:, 1]
        kept = hidden[np.searchsorted(hidden, arrow_keys)] != arrow_keys
        out = object.__new__(GraphBatch)
        out.sizes, out.offsets, out.num_nodes = self.sizes, self.offsets, n
        out.arrows, out.owner = self.arrows[kept], self.owner[kept]
        out.dst, out.src = self.dst[linked], self.src[linked]
        out.indptr = np.searchsorted(out.dst, np.arange(n + 1))
        return out

    @cached_property
    def weight(self) -> np.ndarray:
        """Each edge's entry in max(A, A^T) + I: 2 on a looped node's diagonal."""
        out = np.ones(len(self.dst))
        looped = self.arrows[self.arrows[:, 0] == self.arrows[:, 1], 0]
        out[np.flatnonzero(self.dst == self.src)[looped]] = 2.0
        return out

    def _csr(self, values: np.ndarray, keep=slice(None)) -> sp.csr_matrix:
        counts = np.bincount(self.dst[keep], minlength=self.num_nodes)
        return ad.csr_rows(values[keep], self.src[keep], counts, self.num_nodes)

    def readout_rows(self, op: sp.csr_matrix, readout: np.ndarray) -> sp.csr_matrix:
        """Rows ``readout`` (int64, in range) of a CSR matrix over the
        batch's nodes, in that order, each keeping its entries in stored
        order: what ``op[readout]`` gives, without scipy's indexing checks."""
        slots, counts = _range_slots(op.indptr[readout], op.indptr[readout + 1])
        return ad.csr_rows(op.data[slots], op.indices[slots], counts, self.num_nodes)

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


def _score_block(parts: list[Tensor], first: int, width: int) -> Tensor:
    """``parts`` side by side from column ``first`` of a zero matrix
    ``width`` columns wide (zero-width pads left out)."""
    rows, used = parts[0].shape[0], sum(p.shape[1] for p in parts)
    pads = [ad.constant(np.zeros((rows, c))) for c in (first, width - first - used)]
    return ad.concat_cols([p for p in (pads[0], *parts, pads[1]) if p.shape[1]])


def score_width(heads: int) -> int:
    """Columns of GAT's score product for ``heads`` heads: 2 heads rounded
    up to a multiple of ``SCORE_WIDTH``."""
    return -(-2 * heads // SCORE_WIDTH) * SCORE_WIDTH


def gat_rowwise(X: Tensor, W: list[Tensor], a_src: list[Tensor],
                a_dst: list[Tensor], final: bool = False) -> tuple[Tensor, Tensor]:
    """A GAT layer's row-wise stage (see ``gat_layer``): (the rows its heads
    aggregate, their score columns), each row a function of X's row alone."""
    heads = len(W)
    width = score_width(heads)
    if final:
        A = _score_block([ad.matmul(Wk, a) for k, Wk in enumerate(W)
                          for a in (a_src[k], a_dst[k])], 0, width)
        return X, ad.matmul(X, A)
    h = ad.matmul(X, ad.concat_cols(W))
    A = ad.concat_rows([_score_block([a_src[k], a_dst[k]], 2 * k, width)
                        for k in range(heads)])
    return h, ad.matmul(h, A)


def gat_edges(h: Tensor, scores: Tensor, pattern: sp.csr_matrix, dst: np.ndarray,
              W: list[Tensor], activation=None,
              final: bool = False) -> tuple[Tensor, np.ndarray]:
    """A GAT layer's edge stage over its row-wise stage ``(h, scores)`` (see
    ``gat_layer``)."""
    heads = len(W)
    if final:
        blocks = [slice(None)] * heads
    else:
        ends = np.cumsum([Wk.shape[1] for Wk in W]).tolist()
        blocks = [slice(end - Wk.shape[1], end) for Wk, end in zip(W, ends)]
    out, att = ad.edge_attention(h, scores, pattern, dst, blocks)
    if final:
        out = ad.scale(ad.matmul(out, ad.concat_rows(W)), 1.0 / heads)
    return (activation(out) if activation is not None else out), np.mean(att, axis=0)


def gat_layer(X: Tensor, pattern: sp.csr_matrix, dst: np.ndarray,
              W: list[Tensor], a_src: list[Tensor], a_dst: list[Tensor],
              activation=None, final: bool = False) -> tuple[Tensor, np.ndarray]:
    """One multi-head GAT layer over a CSR edge pattern: entry e, in column
    j, is an edge j -> i into its row, whose node i is row dst[e] of X.
    Head k scores it leaky_relu(a^T [W_k x_i ++ W_k x_j]), a being
    [a_src[k]; a_dst[k]], softmax-normalized over the row.

    Every head reads X, so the layer makes one projection and one score
    product by a zero-padded A of ``score_width(heads)`` columns, head k's
    in columns 2k (x_i's score) and 2k + 1 (x_j's); ``ad.edge_attention``
    then runs the heads. A hidden layer projects H = X [W_0 ... W_{h-1}],
    scores H (A stacks a row block per head, [a_src[k], a_dst[k]] at column
    2k) and concatenates its heads' sums of their blocks of H. A final one,
    whose pattern rows are the readout rows, scores X by A = [W_k a ...],
    aggregates X per head and projects only the sums: [agg_0 ... agg_{h-1}]
    [W_0; ...; W_{h-1}] / heads, as (A X) W = A (X W). The products before
    the attention are row-wise, ``gat_rowwise``, and the rest is
    ``gat_edges``. Returns (the layer's output and the head-mean attention
    per entry)."""
    return gat_edges(*gat_rowwise(X, W, a_src, a_dst, final), pattern, dst, W,
                     activation, final)


class GraphEncoder:
    """Stacks ``config.layers`` rounds of the ``config.encoder`` variant over
    (X, graph).

    The readout for a subgraph is the head row of the final layer plus a
    residual copy of the head's input features, which keeps the no-neighbor
    case from collapsing. Only readout rows are read from the final layer,
    so it computes only those: hidden layers run over every node, the final
    one over the readout rows of the batch's CSR matrix for the variant
    (GAT's heads aggregate into those rows, then project only the sums).
    A GAT layer's heads keep their own parameters, ``l{layer}_h{k}_w``,
    ``_asrc`` and ``_adst``, joined at use (see ``gat_layer``). Layer 0
    runs in two stages, ``rowwise`` and the rest, so that evaluation can
    stage each entity's row once and gather it where the entity occurs.
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

    def _gat_params(self, layer: int) -> list[list[Tensor]]:
        """Layer ``layer``'s per-head W, a_src and a_dst, in head order."""
        return [[self.params[f"l{layer}_h{h}_{k}"] for h in range(self.config.heads)]
                for k in ("w", "asrc", "adst")]

    def rowwise(self, X: Tensor) -> tuple[Tensor, ...]:
        """Layer 0's row-wise stage over the rows of X, each output row a
        function of X's row alone: GAT's (rows its heads aggregate, score
        columns), see ``gat_rowwise``; GCN and SAGE start with a sparse
        product, so theirs is (X,). Any rows can be staged: the entity
        matrix once for every query of an evaluation, say."""
        if self.config.encoder != "gat":
            return (X,)
        return gat_rowwise(X, *self._gat_params(0), final=self.config.layers == 1)

    def encode(self, X: Tensor, graph: GraphBatch, readout: list[int],
               stage: Sequence[Tensor] | None = None) -> Tensor:
        """Run the stack over one batch graph and return the given rows of
        its final layer, adding the residual from X.

        ``stage``, when given, is ``rowwise`` of the stacked rows, gathered
        by the caller from rows it staged once, and X is then only the
        stacked rows' readout rows, in readout order; else layer 0 stages
        X itself. Each row stages alike either way."""
        n = graph.num_nodes
        if stage is None and X.shape[0] != n:
            raise ShapeError(f"X has {X.shape[0]} rows for a {n}-node graph")
        readout = np.asarray(readout)
        if readout.ndim != 1 or readout.size == 0 or readout.dtype.kind not in "iu":
            raise ShapeError("readout must be a non-empty flat sequence of integer rows")
        readout = readout.astype(np.int64, copy=False)
        # explicit, because the readout cut would wrap negative rows
        if readout.min() < 0 or readout.max() >= n:
            raise IndexError(f"readout row out of range for {n} nodes: "
                             f"{readout[(readout < 0) | (readout >= n)][0]}")
        if stage is not None and (X.shape[0] != len(readout)
                                  or any(s.shape[0] != n for s in stage)):
            raise ShapeError(f"a staged {n}-node graph needs stage rows for every "
                             f"node and X rows for its {len(readout)} readout rows, "
                             f"got {[s.shape for s in stage]} and {X.shape}")
        cfg = self.config
        activation = ACTIVATIONS[cfg.activation]
        self.last_attention = []

        H = X
        for layer in range(cfg.layers):
            final = layer == cfg.layers - 1
            act = None if final else activation
            staged = stage if layer == 0 else None
            op = (graph.gcn_operator if cfg.encoder == "gcn" else
                  graph.mean_operator if cfg.encoder == "sage" else graph.pattern)
            if final:
                op = graph.readout_rows(op, readout)
            if cfg.encoder == "gcn":
                H = gcn_layer(H if staged is None else staged[0], op,
                              self.params[f"l{layer}_w"], act)
            elif cfg.encoder == "sage":
                H = sage_layer(H if staged is None else staged[0], op,
                               self.params[f"l{layer}_w"], act,
                               readout if final else None)
            else:
                # the final layer's entries point into the readout rows
                dst = np.repeat(readout, np.diff(op.indptr)) if final else graph.dst
                W, a_src, a_dst = self._gat_params(layer)
                if staged is None:
                    H, attention = gat_layer(H, op, dst, W, a_src, a_dst, act, final)
                else:
                    H, attention = gat_edges(*staged, op, dst, W, act, final)
                self.last_attention.append(attention)

        return ad.add(H, X if stage is not None else ad.gather_rows(X, readout))
