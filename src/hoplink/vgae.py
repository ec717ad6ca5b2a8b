"""Auxiliary edge reconstruction: mask neighborhood edges, encode the visible
graph with a small variational GCN, and score held-out pairs by latent dot
product."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gnn import GraphBatch, gcn_layer

Pair = tuple[int, int]


@dataclass
class EdgeMask:
    positives: list[Pair]
    negatives: list[Pair]
    ratio: float
    seed: int

    @property
    def empty(self) -> bool:
        return not self.positives

    def shift(self, offset: int) -> "EdgeMask":
        """Same mask with node indices moved to a subgraph's rows in a batch."""
        return EdgeMask(
            positives=[(i + offset, j + offset) for i, j in self.positives],
            negatives=[(i + offset, j + offset) for i, j in self.negatives],
            ratio=self.ratio, seed=self.seed)


@dataclass
class VgaeState:
    mu: Tensor
    log_sigma: Tensor


def mask_edges(arrows: np.ndarray, num_nodes: int, ratio: float,
               seed: int) -> tuple[np.ndarray, EdgeMask]:
    """Remove ceil(ratio * |arrows|) directed arrows, seeded; sample an equal
    count of non-arrow pairs (i != j) as negatives. ``arrows`` is sorted by i
    then j and positives and negatives are drawn by rank in row-major cell
    order. Returns the visible arrows and the mask. An arrowless graph yields
    an empty mask, signalling that this sample contributes no edge loss."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must be in (0, 1), got {ratio}")
    arrows = np.asarray(arrows, dtype=np.int64).reshape(-1, 2)
    if len(arrows) == 0:
        return arrows.copy(), EdgeMask([], [], ratio, seed)
    rng = np.random.default_rng(seed)
    n_mask = math.ceil(ratio * len(arrows))
    picked = np.sort(rng.choice(len(arrows), size=n_mask, replace=False))
    positives = [(int(i), int(j)) for i, j in arrows[picked]]
    visible = np.delete(arrows, picked, axis=0)

    # the k-th free cell c (not an arrow, not diagonal) has exactly k free
    # cells before it, so c = k + #(taken cells <= c)
    n = num_nodes
    taken = np.union1d(arrows[:, 0] * n + arrows[:, 1], np.arange(n) * (n + 1))
    n_free = n * n - len(taken)
    if n_free == 0:
        negatives: list[Pair] = []
    else:
        # tiny near-complete graphs may not offer enough distinct non-edges
        replace = n_free < n_mask
        ranks = np.sort(rng.choice(n_free, size=n_mask, replace=replace))
        cells = ranks + np.searchsorted(taken - np.arange(len(taken)), ranks,
                                        side="right")
        negatives = [(int(c // n), int(c % n)) for c in cells]
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


def decode_edge(Z: Tensor, i: int, j: int) -> Tensor:
    """P(edge i-j) = sigmoid(z_i . z_j)."""
    zi = ad.gather_rows(Z, [i])
    zj = ad.gather_rows(Z, [j])
    return ad.sigmoid(ad.sum_all(ad.hadamard(zi, zj)))


def _pair_scores(Z: Tensor, pairs: list[Pair]) -> Tensor:
    left = ad.gather_rows(Z, [i for i, _ in pairs])
    right = ad.gather_rows(Z, [j for _, j in pairs])
    return ad.row_sums(ad.hadamard(left, right))


def kl_to_standard_normal(state: VgaeState,
                          rows: list[int] | None = None) -> Tensor:
    """Sum over nodes and latent dims of KL(N(mu, sigma^2) || N(0, I))."""
    mu, log_sigma = state.mu, state.log_sigma
    if rows is not None:
        mu = ad.gather_rows(mu, rows)
        log_sigma = ad.gather_rows(log_sigma, rows)
    sigma_sq = ad.exp(ad.scale(log_sigma, 2.0))
    inner = ad.sub(ad.add(sigma_sq, ad.hadamard(mu, mu)),
                   ad.scale(log_sigma, 2.0))
    total = ad.scale(ad.sum_all(inner), 0.5)
    count = mu.values.size
    return ad.add(total, ad.constant(-0.5 * count))


def edge_loss(state: VgaeState, Z: Tensor, mask: EdgeMask,
              rows: list[int] | None = None,
              beta: float | None = None) -> Tensor:
    """Mean binary cross-entropy over masked positives and sampled negatives,
    plus beta * KL (beta defaults to 1/n over the sample's rows). An empty
    mask returns a zero tensor carrying skipped=True."""
    if mask.empty:
        out = ad.constant(np.zeros(()))
        out.skipped = True
        return out
    terms = []
    if mask.positives:
        # -log sigmoid(s) = softplus(-s)
        terms.append(ad.sum_all(ad.softplus(ad.scale(
            _pair_scores(Z, mask.positives), -1.0))))
    if mask.negatives:
        terms.append(ad.sum_all(ad.softplus(_pair_scores(Z, mask.negatives))))
    bce = terms[0]
    for t in terms[1:]:
        bce = ad.add(bce, t)
    bce = ad.scale(bce, 1.0 / (len(mask.positives) + len(mask.negatives)))

    n = len(rows) if rows is not None else state.mu.shape[0]
    if beta is None:
        beta = 1.0 / n
    loss = ad.add(bce, ad.scale(kl_to_standard_normal(state, rows), beta))
    loss.skipped = False
    return loss


def reconstruction_accuracy(Z_values: np.ndarray, mask: EdgeMask) -> float:
    """Fraction of held-out pairs classified correctly at threshold 0.5."""
    if mask.empty:
        return float("nan")
    correct = 0
    for i, j in mask.positives:
        correct += Z_values[i] @ Z_values[j] > 0
    for i, j in mask.negatives:
        correct += Z_values[i] @ Z_values[j] <= 0
    return correct / (len(mask.positives) + len(mask.negatives))
