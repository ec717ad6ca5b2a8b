"""Auxiliary edge reconstruction: mask neighborhood edges, encode the visible
graph with a small variational GCN, and score held-out pairs by latent dot
product."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .gnn import GraphBatch, gcn_layer


@dataclass
class EdgeMask:
    positives: np.ndarray    # (k, 2) int64 held-out arrows (i, j)
    negatives: np.ndarray    # (k', 2) int64 sampled non-edges
    ratio: float
    seed: int

    @property
    def empty(self) -> bool:
        return len(self.positives) == 0


@dataclass
class VgaeState:
    mu: Tensor
    log_sigma: Tensor


def mask_edges(arrows: np.ndarray, num_nodes: int, ratio: float,
               seed: int) -> tuple[np.ndarray, EdgeMask]:
    """Remove ceil(ratio * |arrows|) directed arrows, seeded; sample an equal
    count of non-edges as negatives: pairs (i != j) with neither (i, j) nor
    (j, i) an arrow, since the encoder links an arrow's nodes both ways and
    the decoder scores (j, i) as (i, j). ``arrows`` is sorted by i then j and
    positives and negatives are drawn by rank in row-major cell order.
    Returns the visible arrows and the mask. An arrowless graph yields an
    empty mask, signalling that this sample contributes no edge loss."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must be in (0, 1), got {ratio}")
    arrows = np.asarray(arrows, dtype=np.int64).reshape(-1, 2)
    if len(arrows) == 0:
        return arrows.copy(), EdgeMask(arrows.copy(), arrows.copy(), ratio, seed)
    rng = np.random.default_rng(seed)
    n_mask = math.ceil(ratio * len(arrows))
    picked = np.sort(rng.choice(len(arrows), size=n_mask, replace=False))
    positives = arrows[picked]
    visible = np.delete(arrows, picked, axis=0)

    # the k-th free cell c (not taken, not diagonal) has exactly k free
    # cells before it, so c = k + #(taken cells <= c)
    n = num_nodes
    src, dst = arrows[:, 0], arrows[:, 1]
    taken = np.unique(np.concatenate([src * n + dst, dst * n + src,
                                      np.arange(n) * (n + 1)]))
    n_free = n * n - len(taken)
    if n_free == 0:
        negatives = np.zeros((0, 2), dtype=np.int64)
    else:
        # tiny near-complete graphs may not offer enough distinct non-edges
        replace = n_free < n_mask
        ranks = np.sort(rng.choice(n_free, size=n_mask, replace=replace))
        cells = ranks + np.searchsorted(taken - np.arange(len(taken)), ranks,
                                        side="right")
        negatives = np.stack([cells // n, cells % n], axis=1)
    return visible, EdgeMask(positives, negatives, ratio, seed)


class Vgae:
    """Shared GCN layer with relu, then parallel GCN heads for mu and
    log_sigma (clamped to [-10, 10])."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 latent_dim: int | None = None):
        self.dim = dim
        self.latent_dim = latent_dim if latent_dim is not None else max(1, dim // 2)
        self.params: dict[str, Tensor] = {
            "shared": ad.xavier_uniform((dim, dim), rng),
            "mu": ad.xavier_uniform((dim, self.latent_dim), rng),
            "log_sigma": ad.xavier_uniform((dim, self.latent_dim), rng),
        }

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

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


def _kl_cells(state: VgaeState) -> Tensor:
    """sigma^2 + mu^2 - 2 log sigma per node and latent dim; the cell's
    KL(N(mu, sigma^2) || N(0, 1)) is half of it minus 0.5."""
    log_sigma = state.log_sigma
    sigma_sq = ad.exp(ad.scale(log_sigma, 2.0))
    return ad.sub(ad.add(sigma_sq, ad.hadamard(state.mu, state.mu)),
                  ad.scale(log_sigma, 2.0))


def kl_to_standard_normal(state: VgaeState) -> Tensor:
    """Sum over nodes and latent dims of KL(N(mu, sigma^2) || N(0, I))."""
    total = ad.scale(ad.sum_all(_kl_cells(state)), 0.5)
    return ad.add(total, ad.constant(-0.5 * state.mu.values.size))


def edge_loss(state: VgaeState, Z: Tensor, masks: list[EdgeMask],
              sizes: list[int]) -> Tensor:
    """Edge-reconstruction loss of subgraphs stacked row-wise, averaged over
    the subgraphs: subgraph k fills the next ``sizes[k]`` rows and
    ``masks[k]`` indexes them from 0.

    A subgraph with a non-empty mask adds the mean binary cross-entropy over
    its masked positives and sampled negatives plus KL / n over its n rows;
    one with an empty mask adds 0. All pairs are scored in one pass and the
    KL is one row-weighted sum. The result carries skipped=True when every
    mask is empty."""
    if not masks or len(masks) != len(sizes) or sum(sizes) != Z.shape[0]:
        raise ShapeError(f"{len(masks)} masks over subgraph sizes {sizes} "
                         f"do not tile {Z.shape[0]} rows")
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    n_pos = np.array([len(m.positives) for m in masks])
    n_neg = np.array([len(m.negatives) for m in masks])
    used = n_pos > 0
    share = 1.0 / len(masks)
    per_pair = np.where(used, share / np.maximum(n_pos + n_neg, 1), 0.0)

    counts = np.concatenate([n_pos, n_neg])
    pairs = np.concatenate([m.positives for m in masks]
                           + [m.negatives for m in masks])
    pairs = pairs + np.repeat(np.concatenate([starts, starts]), counts)[:, None]
    # -log sigmoid(s) = softplus(-s); -log(1 - sigmoid(s)) = softplus(s)
    sign = np.repeat([-1.0, 1.0], [n_pos.sum(), n_neg.sum()])[:, None]
    weight = np.repeat(np.concatenate([per_pair, per_pair]), counts)[:, None]
    scores = ad.row_sums(ad.hadamard(ad.gather_rows(Z, pairs[:, 0]),
                                     ad.gather_rows(Z, pairs[:, 1])))
    bce = ad.sum_all(ad.hadamard(
        ad.softplus(ad.hadamard(scores, ad.constant(sign))),
        ad.constant(weight)))

    row_beta = np.repeat(np.where(used, share / sizes, 0.0), sizes)[:, None]
    kl = ad.sum_all(ad.hadamard(_kl_cells(state), ad.constant(
        np.broadcast_to(0.5 * row_beta, state.mu.shape))))
    latent = state.mu.shape[1]
    loss = ad.add(ad.add(bce, kl),
                  ad.constant(-0.5 * latent * used.sum() * share))
    loss.skipped = not used.any()
    return loss

