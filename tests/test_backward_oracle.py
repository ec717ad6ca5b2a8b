"""``backward`` against the allocating backward pass it replaced.

The oracle below is that pass, kept here as the reference: every fan-in sum
allocates a fresh array, and every gradient stays alive until the sweep
ends. (It also stored each op output's gradient on the output; that never
reached a leaf, so the oracle leaves it out.) ``backward`` sums in place and
drops op outputs' gradients, with the same operand order, so every leaf
gradient must be the same bits.
"""

from pathlib import Path

import numpy as np
import pytest

from hoplink import autodiff as ad
from hoplink.autodiff import Tape, backward, parameter
from hoplink.config import RunConfig
from hoplink.kg import KnowledgeGraph
from hoplink.synth import generate_synthetic_kg
from hoplink.training import Trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def oracle_leaf_grads(root, records):
    """The allocating backward over ``records``; returns {id: (leaf, grad)}
    for every requires-grad leaf reached, without touching ``grad``."""
    flowing = {id(root): np.ones_like(root.values)}
    holders = {id(root): root}
    for out, parents, rule in reversed(records):
        g = flowing.pop(id(out), None)
        if g is None:
            continue
        holders.pop(id(out), None)
        for parent, pg in zip(parents, rule(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg
                holders[key] = parent
    return {key: (holders[key], g) for key, g in flowing.items()
            if holders[key].requires_grad}


def assert_matches_oracle(root, leaves):
    """Run the oracle, then ``backward``, over the active tape; every leaf
    gradient must be the oracle's bits and every op output's grad None."""
    records = list(ad.active_tape()._records)
    want = oracle_leaf_grads(root, records)
    backward(root)
    assert set(want) == {id(leaf) for leaf in leaves if leaf.grad is not None}
    for leaf, g in want.values():
        assert leaf.grad.shape == g.shape
        assert np.array_equal(leaf.grad, g), leaf
    assert all(out.grad is None for out, _, _ in records)


def weighted_sum(x, seed):
    w = np.random.default_rng(seed).normal(size=x.shape)
    return ad.sum_all(ad.hadamard(x, ad.constant(w)))


class TestFanInAndAliasing:
    def test_add_of_a_tensor_with_itself(self):
        # add's rule hands one array to both parents
        x = parameter(np.random.default_rng(0).normal(size=(4, 3)))
        with Tape():
            y = ad.add(x, x)
            root = ad.add(ad.add(weighted_sum(y, 1), weighted_sum(x, 2)),
                          weighted_sum(ad.add(y, x), 3))
            assert_matches_oracle(root, [x])

    def test_add_of_two_leaves_shares_one_array(self):
        # x and y first receive the same array; x's later sums must not
        # write into the array y keeps
        rng = np.random.default_rng(1)
        x, y = (parameter(rng.normal(size=(3, 2))) for _ in range(2))
        with Tape():
            t = ad.scale(x, 3.0)
            u = weighted_sum(x, 5)
            s = ad.add(x, y)
            root = ad.add(ad.add(weighted_sum(s, 4), u), weighted_sum(t, 6))
            assert_matches_oracle(root, [x, y])

    def test_concat_rows_split_views(self):
        # concat_rows' rule returns views of its gradient, here an array
        # add also hands to the leaf c; a block listed twice sums two of
        # those views, which must leave c's gradient alone
        rng = np.random.default_rng(2)
        a = parameter(rng.normal(size=(2, 3)))
        b = parameter(rng.normal(size=(4, 3)))
        c = parameter(rng.normal(size=(10, 3)))
        with Tape():
            u = ad.add(weighted_sum(a, 9), weighted_sum(b, 10))
            z = ad.concat_rows([a, b, a, a])
            root = ad.add(weighted_sum(ad.add(z, c), 7), u)
            assert_matches_oracle(root, [a, b, c])

    def test_concatenation_as_a_fan_in_point(self):
        rng = np.random.default_rng(5)
        a = parameter(rng.normal(size=(2, 3)))
        b = parameter(rng.normal(size=(4, 3)))
        with Tape():
            z = ad.concat_rows([a, b, a])
            root = ad.add(ad.add(weighted_sum(z, 7), weighted_sum(z, 8)),
                          ad.add(weighted_sum(a, 9), weighted_sum(b, 10)))
            assert_matches_oracle(root, [a, b])

    @pytest.mark.parametrize("width", [1, 3])
    def test_repeated_gather_indices(self, width):
        rng = np.random.default_rng(3)
        x = parameter(rng.normal(size=(5, width)))
        with Tape():
            g1 = ad.gather_rows(x, [4, 0, 4, 4, 2, 0])
            g2 = ad.gather_rows(x, [])
            g3 = ad.gather_rows(ad.scale(x, 2.0), [1, 1])
            root = ad.add(ad.add(weighted_sum(g1, 11), weighted_sum(g3, 12)),
                          ad.add(ad.sum_all(g2), weighted_sum(x, 13)))
            assert_matches_oracle(root, [x])

    def test_tensor_from_an_outer_tape_is_a_leaf(self):
        rng = np.random.default_rng(4)
        x = parameter(rng.normal(size=(3, 3)))
        with Tape():
            h = ad.relu(ad.matmul(x, x))
            with Tape():
                root = ad.add(weighted_sum(ad.matmul(h, x), 14),
                              ad.add(weighted_sum(h, 15), weighted_sum(h, 16)))
                assert_matches_oracle(root, [x, h])
            assert h.grad is not None


def assert_steps_match_oracle(monkeypatch, trainer):
    """Train one epoch; at every step compare ``backward`` to the oracle."""
    steps = []

    def checked(root):
        assert_matches_oracle(root, trainer.optimizer.params)
        steps.append(root)

    monkeypatch.setattr(ad, "backward", checked)
    trainer.train_epochs(1)
    assert steps


def test_synth_gat_steps_match_the_oracle(monkeypatch):
    splits, texts = generate_synthetic_kg(0)
    config = RunConfig(dim=32, encoder="gat", heads=2, k=1, lambda_weight=0.2,
                       batch_size=64, lr=0.01, tau=0.05, seed=1)
    trainer = Trainer(KnowledgeGraph.build(splits, texts), config)
    trainer.queries = trainer.queries[:192]
    assert_steps_match_oracle(monkeypatch, trainer)


def test_wide_k2_gat_step_matches_the_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from widegraph import generate_wide_kg

    splits, texts = generate_wide_kg(1)
    config = RunConfig(dim=64, encoder="gat", heads=3, layers=2, k=2,
                       cap_per_hop=32, lambda_weight=0.2, batch_size=32, seed=1)
    trainer = Trainer(KnowledgeGraph.build({"train": splits["train"]}, texts),
                      config)
    trainer.queries = trainer.queries[:32]
    assert_steps_match_oracle(monkeypatch, trainer)
