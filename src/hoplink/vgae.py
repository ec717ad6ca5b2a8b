"""Auxiliary edge reconstruction: mask neighborhood edges, encode the visible
graph with a small variational GCN, and score held-out pairs by latent dot
product.

A training step runs each stage once over its whole batch graph: one mask
draw (one integer sort per 1,024 subgraphs), the visible graph cut from the
batch graph's sorted edges (no sort, no second check), one GCN encode, the
reparameterization, and the binary cross-entropy plus KL as one taped op,
``ad.vgae_objective``, whose gradients equal those of the op-by-op tape bit
for bit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .gnn import GraphBatch, gcn_layer


# mask_edges sorts the arrows of this many subgraphs at a time, the most
# whose index fits above a 53-bit uniform key in an int64: one sort for any
# batch of up to 1,024 queries, where a lexsort of (uniform, subgraph) took
# 3-7x as long (one BLAS thread on a 2-vCPU x86-64 VM: 300 against 45 us
# for a 64-query synth batch of 2,446 arrows, 610 against 180 us for a
# 32-query wide k=2 batch of 4,769)
SORT_RUN = 1 << 10


@dataclass
class EdgeMask:
    """One batch's held-out arrows and sampled non-edges over stacked rows,
    grouped by subgraph in batch order."""

    positives: np.ndarray    # (p, 2) int64 held-out arrows (i, j)
    negatives: np.ndarray    # (q, 2) int64 sampled non-edges
    pos_counts: np.ndarray   # (s,) int64 positives per subgraph
    neg_counts: np.ndarray   # (s,) int64 negatives per subgraph

    @property
    def empty(self) -> bool:
        return len(self.positives) == 0


@dataclass
class VgaeState:
    mu: Tensor
    log_sigma: Tensor


def mask_edges(graph: GraphBatch, ratio: float, seed: int) -> EdgeMask:
    """Draw one batch's edge masks from one ``default_rng(seed)``; subgraph
    k owns ``graph``'s k-th run of rows and of arrows.

    Subgraph k holds out ceil(ratio * m_k) of its m_k directed arrows: after
    one draw of a uniform key per arrow and a stable sort of the arrows by
    subgraph, then by key (an exact integer sort, which orders them as a
    lexsort of the two would), the first ones of each run, returned in
    arrow order. It gets as many negatives, each uniform over its free cells
    and independent of the others, so a negative may repeat. A free cell is
    a pair (i != j) in its rows with neither (i, j) nor (j, i) an arrow,
    since the encoder links an arrow's nodes both ways and the decoder
    scores (j, i) as (i, j). Negatives are drawn as ranks among the free
    cells of one cell space in which subgraph k's n_k^2 row-major cells
    follow those of the subgraphs before it, and come back in cell order. A
    subgraph without arrows gets no pairs, signalling that it contributes no
    edge loss; one without free cells gets no negatives."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must be in (0, 1), got {ratio}")
    arrows, owner = graph.arrows, graph.owner
    sizes, row_start = graph.sizes, graph.offsets

    rng = np.random.default_rng(seed)
    m = np.bincount(owner, minlength=len(sizes))
    n_mask = np.ceil(ratio * m).astype(np.int64)
    # Generator.random draws multiples of 2^-53, so r * 2^53 is an exact
    # integer and the int64 key (owner % SORT_RUN << 53) + r * 2^53 orders
    # a run of SORT_RUN subgraphs as np.lexsort((r, owner)) does; owner is
    # sorted, so each run's arrows and each subgraph's stay in place
    key = (owner % SORT_RUN << 53) + (rng.random(len(arrows)) * 2.0**53).astype(np.int64)
    bounds = np.searchsorted(owner, np.arange(0, len(sizes) + SORT_RUN, SORT_RUN))
    order = np.concatenate([lo + np.argsort(key[lo:hi], kind="stable")
                            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())])
    place = np.arange(len(arrows)) - (np.cumsum(m) - m)[owner]
    positives = arrows[np.sort(order[place < n_mask[owner]])]

    # the taken cells are the graph's (dst, src) edges, diagonal included;
    # subgraph k's cell (i, j) is keyed cell_start[k] + i_k * n_k + j_k, so
    # edges sorted by (dst, src) over consecutive rows give sorted keys
    cells = sizes * sizes
    cell_start = np.cumsum(cells) - cells
    n_edges = np.diff(graph.indptr[np.append(row_start, graph.num_nodes)])
    edge_owner = np.repeat(np.arange(len(sizes)), n_edges)
    edge_first = row_start[edge_owner]
    taken = (cell_start[edge_owner] + (graph.dst - edge_first) * sizes[edge_owner]
             + graph.src - edge_first)
    n_free = cells - n_edges
    n_neg = np.where(n_free > 0, n_mask, 0)
    neg_owner = np.repeat(np.arange(len(sizes)), n_neg)
    # ranks of subgraph k lie in its own range, so one sort orders them
    # within every subgraph and keeps the subgraphs in batch order
    rank = np.sort(rng.integers(0, n_free[neg_owner])
                   + (np.cumsum(n_free) - n_free)[neg_owner])
    # the R-th free cell c (not taken, not diagonal) has exactly R free cells
    # before it, so c = R + #(taken cells <= c)
    cell = rank + np.searchsorted(taken - np.arange(len(taken)), rank,
                                  side="right")
    local_i, local_j = np.divmod(cell - cell_start[neg_owner],
                                 sizes[neg_owner])
    first = row_start[neg_owner]
    negatives = np.stack([local_i + first, local_j + first], axis=1)
    return EdgeMask(positives, negatives, n_mask, n_neg)


def visible_graph(graph: GraphBatch, mask: EdgeMask) -> GraphBatch:
    """``graph`` without ``mask``'s held-out arrows, cut from its sorted
    edges (``GraphBatch.without``). An arrow is hidden both ways, since
    ``GraphBatch`` links an arrow's nodes both ways: held (i, j) also
    removes an arrow (j, i)."""
    return graph.without(mask.positives)


class Vgae:
    """Shared GCN layer with relu, then parallel GCN heads for mu and
    log_sigma (clamped to [-10, 10])."""

    def __init__(self, dim: int, latent_dim: int, rng: np.random.Generator):
        self.params: dict[str, Tensor] = {
            "shared": ad.xavier_uniform((dim, dim), rng),
            "mu": ad.xavier_uniform((dim, latent_dim), rng),
            "log_sigma": ad.xavier_uniform((dim, latent_dim), rng),
        }

    def encode(self, X: Tensor, visible: GraphBatch) -> VgaeState:
        A_hat = visible.gcn_operator
        hidden = gcn_layer(X, A_hat, self.params["shared"], ad.relu)
        mu = gcn_layer(hidden, A_hat, self.params["mu"])
        log_sigma = ad.clamp(gcn_layer(hidden, A_hat, self.params["log_sigma"]),
                             -10.0, 10.0)
        return VgaeState(mu=mu, log_sigma=log_sigma)


def reparameterize(state: VgaeState, seed: int) -> Tensor:
    """Z = mu + exp(log_sigma) * eps with seeded noise; gradients reach mu and
    log_sigma, the noise is a constant."""
    eps = np.random.default_rng(seed).standard_normal(state.mu.shape)
    return ad.add(state.mu,
                  ad.hadamard(ad.exp(state.log_sigma), ad.constant(eps)))


def edge_loss(state: VgaeState, Z: Tensor, mask: EdgeMask,
              graph: GraphBatch) -> Tensor:
    """Edge-reconstruction loss of ``graph``'s subgraphs, averaged over
    them: subgraph k fills the next ``graph.sizes[k]`` rows and owns the
    k-th run of ``mask``'s positives and negatives, given over stacked rows.

    A subgraph with positives adds the mean binary cross-entropy over its
    masked positives and sampled negatives plus KL / n over its n rows; one
    without adds 0. All pairs are scored in one pass and the KL is one
    row-weighted sum. The result carries skipped=True when the mask is
    empty."""
    sizes = graph.sizes
    if len(mask.pos_counts) != len(sizes) or graph.num_nodes != Z.shape[0]:
        raise ShapeError(f"a mask of {len(mask.pos_counts)} subgraphs over "
                         f"sizes {sizes.tolist()} does not tile {Z.shape[0]} rows")
    n_pos, n_neg = mask.pos_counts, mask.neg_counts
    used = n_pos > 0
    share = 1.0 / len(sizes)
    per_pair = np.where(used, share / np.maximum(n_pos + n_neg, 1), 0.0)

    pairs = np.concatenate([mask.positives, mask.negatives])
    # -log sigmoid(s) = softplus(-s); -log(1 - sigmoid(s)) = softplus(s)
    sign = np.repeat([-1.0, 1.0], [len(mask.positives),
                                   len(mask.negatives)])[:, None]
    weight = np.repeat(np.concatenate([per_pair, per_pair]),
                       np.concatenate([n_pos, n_neg]))[:, None]
    # KL(N(mu, sigma^2) || N(0, 1)) of a cell is half of
    # sigma^2 + mu^2 - 2 log sigma, minus 0.5
    row_beta = np.repeat(np.where(used, share / sizes, 0.0), sizes)[:, None]
    latent = state.mu.shape[1]
    loss = ad.vgae_objective(state.mu, state.log_sigma, Z, pairs, sign, weight,
                             0.5 * row_beta, -0.5 * latent * used.sum() * share)
    loss.skipped = not used.any()
    return loss
