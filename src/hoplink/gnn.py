"""Neighborhood encoders: GCN, GAT, and GraphSAGE layers over a subgraph.

All variants map an n x d feature matrix to n x d, so they are drop-in
interchangeable. They read one ``GraphBatch`` of the batch's symmetrized
arrows: GCN and SAGE multiply by a sparse operator, GAT normalizes per-edge
scores over each node's incoming edges. Edge direction is preserved upstream
for edge reconstruction. Layers carry no bias terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .kg import NeighborhoodSubgraph

VARIANTS = ("gcn", "gat", "sage")
ACTIVATIONS = {"relu": ad.relu, "leaky_relu": ad.leaky_relu}


@dataclass
class GraphEncoderConfig:
    variant: str = "gat"
    layers: int = 2
    dim: int = 64
    heads: int = 3
    activation: str = "relu"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick from {VARIANTS}")
        if self.layers < 1:
            raise ValueError("layer count must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.variant == "gat" and not 1 <= self.heads <= self.dim:
            raise ValueError(
                f"head count {self.heads} must lie in [1, dim={self.dim}]")

    def head_widths(self, final: bool) -> list[int]:
        """Per-head output widths. Final layers average full-width heads;
        hidden layers concatenate, so the widths must sum to dim exactly
        (the first dim % heads heads absorb the remainder)."""
        if final or self.variant != "gat":
            return [self.dim] * self.heads
        base, extra = divmod(self.dim, self.heads)
        return [base + (1 if h < extra else 0) for h in range(self.heads)]


class GraphBatch:
    """A batch's stacked subgraphs as one edge index, shared by every layer.

    ``arrows`` (m x 2) are directed (i, j) pairs over the stacked node rows.
    The encoders see max(A, A^T) + I: its edges j -> i are ``src``/``dst``,
    sorted by dst then src, and node i's incoming edges fill positions
    indptr[i] to indptr[i + 1] - 1 (never empty, thanks to the self-loop).
    """

    def __init__(self, arrows: np.ndarray, num_nodes: int):
        n = self.num_nodes = num_nodes
        arrows = self.arrows = np.asarray(arrows, dtype=np.int64).reshape(-1, 2)
        if arrows.size and (arrows.min() < 0 or arrows.max() >= n):
            raise ShapeError(f"arrow endpoint outside {n} nodes")
        i, j = arrows[:, 0], arrows[:, 1]
        keys = np.sort(np.concatenate([i * n + j, j * n + i,
                                       np.arange(n) * (n + 1)]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
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
    out = ad.matmul(ad.sparse_const_matmul(A_hat, X), W)
    return activation(out) if activation is not None else out


def sage_layer(X: Tensor, M: sp.spmatrix, W: Tensor, activation=None) -> Tensor:
    out = ad.matmul(ad.concat_cols([X, ad.sparse_const_matmul(M, X)]), W)
    return activation(out) if activation is not None else out


def gat_head(X: Tensor, graph: GraphBatch, W: Tensor, a_src: Tensor,
             a_dst: Tensor, alpha: float = 0.2) -> tuple[Tensor, np.ndarray]:
    """One attention head: edge j -> i scores leaky_relu(a^T [Wx_i ++ Wx_j]),
    softmax-normalized over i's incoming edges. Returns (the attention-
    weighted sums of XW, per-edge attention in ``graph`` edge order)."""
    h = ad.matmul(X, W)
    h_src = ad.gather_rows(h, graph.src)
    scores = ad.add(ad.gather_rows(ad.matmul(h, a_src), graph.dst),
                    ad.matmul(h_src, a_dst))
    att = ad.segment_softmax(ad.leaky_relu(scores, alpha), graph.indptr)
    return (ad.segment_sum(ad.scale_rows(h_src, att), graph.indptr),
            att.values[:, 0])


class GraphEncoder:
    """Stacks config.layers rounds of the chosen variant over (X, graph).

    The readout for a subgraph is the head row of the final layer plus a
    residual copy of the head's input features, which keeps the no-neighbor
    case from collapsing.
    """

    def __init__(self, config: GraphEncoderConfig, rng: np.random.Generator):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.last_attention: list[np.ndarray] = []
        d = config.dim
        for layer in range(config.layers):
            final = layer == config.layers - 1
            if config.variant == "gcn":
                self.params[f"l{layer}_w"] = ad.xavier_uniform((d, d), rng)
            elif config.variant == "sage":
                self.params[f"l{layer}_w"] = ad.xavier_uniform((2 * d, d), rng)
            else:
                widths = config.head_widths(final)
                for h, out_dim in enumerate(widths):
                    p = f"l{layer}_h{h}"
                    self.params[f"{p}_w"] = ad.xavier_uniform((d, out_dim), rng)
                    self.params[f"{p}_asrc"] = ad.xavier_uniform((out_dim, 1), rng)
                    self.params[f"{p}_adst"] = ad.xavier_uniform((out_dim, 1), rng)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def encode(self, X: Tensor, graph: GraphBatch, readout: list[int]) -> Tensor:
        """Run the stack over one batch graph and gather the given rows,
        adding the residual from X."""
        if X.shape[0] != graph.num_nodes:
            raise ShapeError(
                f"X has {X.shape[0]} rows for a {graph.num_nodes}-node graph")
        cfg = self.config
        activation = ACTIVATIONS[cfg.activation]
        self.last_attention = []

        H = X
        for layer in range(cfg.layers):
            final = layer == cfg.layers - 1
            act = None if final else activation
            if cfg.variant == "gcn":
                H = gcn_layer(H, graph.gcn_operator, self.params[f"l{layer}_w"], act)
            elif cfg.variant == "sage":
                H = sage_layer(H, graph.mean_operator, self.params[f"l{layer}_w"], act)
            else:
                heads = [gat_head(H, graph, *(self.params[f"l{layer}_h{h}_{k}"]
                                              for k in ("w", "asrc", "adst")))
                         for h in range(cfg.heads)]
                self.last_attention.append(np.mean([a for _, a in heads], axis=0))
                outs = [out for out, _ in heads]
                # hidden layers concatenate their heads, the final one averages
                H = (ad.scale(reduce(ad.add, outs), 1.0 / cfg.heads) if final
                     else activation(ad.concat_cols(outs)))

        return ad.add(ad.gather_rows(H, readout), ad.gather_rows(X, readout))


def combine_adjacency(subgraphs: list[NeighborhoodSubgraph]
                      ) -> tuple[np.ndarray, list[int]]:
    """Stack the subgraphs' arrows into one (m, 2) array over consecutive
    node rows, plus each subgraph's first row (the position of its head in
    the stacked X)."""
    if not subgraphs:
        raise ShapeError("cannot combine zero subgraphs")
    offsets = np.cumsum([0] + [sub.num_nodes for sub in subgraphs[:-1]])
    arrows = np.concatenate([sub.arrows + offset
                             for sub, offset in zip(subgraphs, offsets)])
    return arrows, offsets.tolist()
