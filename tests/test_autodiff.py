import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplink import autodiff as ad
from hoplink.autodiff import (
    AdamW,
    DomainError,
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    finite_diff_check,
    parameter,
)


def grad_of(f, x):
    x.grad = None
    with Tape():
        backward(f(x))
    return x.grad


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).values, b.values)

    def test_hand_case(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_gradient_hand_case(self):
        # d/da sum(a @ b) at a=[[1,1]], b=[[2],[5]] is b broadcast along rows
        a = parameter([[1.0, 1.0]])
        b = Tensor([[2.0], [5.0]])
        g = grad_of(lambda t: ad.sum_all(ad.matmul(t, b)), a)
        np.testing.assert_allclose(g, [[2.0, 5.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4, 2)))
        err = finite_diff_check(lambda t: ad.sum_all(ad.matmul(t, b)), a)
        assert err < 1e-5
        err = finite_diff_check(lambda t: ad.sum_all(ad.matmul(a, t)), b)
        assert err < 1e-5

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestElementwise:
    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor([0.0])).values[0] == 0.5

    def test_sigmoid_gradient_at_zero(self):
        x = parameter([0.0])
        err = finite_diff_check(lambda t: ad.sum_all(ad.sigmoid(t)), x, eps=1e-5)
        assert err < 1e-8
        g = grad_of(lambda t: ad.sum_all(ad.sigmoid(t)), x)
        np.testing.assert_allclose(g, [0.25])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.log(Tensor([1.0, 0.0]))

    def test_leaky_relu_slope(self):
        out = ad.leaky_relu(Tensor([-10.0, 10.0]), alpha=0.2)
        np.testing.assert_allclose(out.values, [-2.0, 10.0])

    @pytest.mark.parametrize("op", [ad.relu, ad.sigmoid, ad.exp, ad.softplus,
                                    lambda t: ad.leaky_relu(t, 0.2)])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(7)
        # keep away from the relu kink where central differences lie
        x = parameter(rng.normal(size=(2, 3)) + 0.1)
        assert finite_diff_check(lambda t: ad.sum_all(op(t)), x) < 1e-5

    def test_binary_gradients(self):
        rng = np.random.default_rng(8)
        a = parameter(rng.normal(size=(2, 3)))
        b = parameter(rng.normal(size=(2, 3)))
        for op in (ad.add, ad.sub, ad.hadamard):
            assert finite_diff_check(lambda t: ad.sum_all(op(t, b)), a) < 1e-5
            assert finite_diff_check(lambda t: ad.sum_all(op(a, t)), b) < 1e-5

    def test_log_gradient(self):
        x = parameter([0.5, 1.5, 3.0])
        assert finite_diff_check(lambda t: ad.sum_all(ad.log(t)), x) < 1e-5

    def test_scale_by_tensor(self):
        x = parameter(np.array([[1.0, 2.0]]))
        s = parameter(np.array([3.0]))
        out = ad.scale_by(x, s)
        np.testing.assert_allclose(out.values, [[3.0, 6.0]])
        assert finite_diff_check(lambda t: ad.sum_all(ad.scale_by(x, t)), s) < 1e-5

    def test_dropout_identity_at_rate_zero(self):
        x = Tensor([[1.0, 2.0]])
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_seeded_and_inverted(self):
        x = Tensor(np.ones((4, 8)))
        a = ad.dropout(x, 0.5, np.random.default_rng(3)).values
        b = ad.dropout(x, 0.5, np.random.default_rng(3)).values
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 2.0}


class TestSoftmax:
    def test_uniform_row(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3]])

    def test_no_overflow(self):
        out = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-12)

    def test_hand_case(self):
        out = ad.softmax_rows(Tensor([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.values, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = parameter(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(3, 4)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.softmax_rows(t), w)), x) < 1e-5

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(9)
        x = parameter(rng.normal(size=(4, 4)))
        w = Tensor(rng.normal(size=(4, 4)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.log_softmax_rows(t), w)), x) < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1), st.floats(-50, 50))
    def test_rows_sum_to_one_and_shift_invariance(self, n, d, seed, shift):
        x = np.random.default_rng(seed).normal(size=(n, d)) * 5
        y = ad.softmax_rows(Tensor(x)).values
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)
        shifted = x.copy()
        shifted[0] += shift
        y2 = ad.softmax_rows(Tensor(shifted)).values
        np.testing.assert_allclose(y, y2, atol=1e-9)


class TestSegmentPrimitives:
    def test_segment_softmax_normalizes_each_run(self):
        x = np.array([[5.0], [1.0], [1.0], [0.3], [-2.0]])
        out = ad.segment_softmax(Tensor(x), [0, 1, 3, 5]).values
        np.testing.assert_allclose(out[:3], [[1.0], [0.5], [0.5]])
        np.testing.assert_allclose(
            out[3:], ad.softmax_rows(Tensor(x[3:].T)).values.T, atol=1e-15)

    def test_segment_softmax_gradient(self):
        rng = np.random.default_rng(6)
        x = parameter(rng.normal(size=(7, 1)))
        w = Tensor(rng.normal(size=(7, 1)))
        assert finite_diff_check(lambda t: ad.sum_all(ad.hadamard(
            ad.segment_softmax(t, [0, 3, 4, 7]), w)), x) < 1e-5

    def test_empty_run_rejected(self):
        # like a fully masked softmax row, an empty run has nothing to weigh
        with pytest.raises(ShapeError, match="strictly"):
            ad.segment_softmax(Tensor([[1.0], [2.0]]), [0, 1, 1, 2])
        with pytest.raises(ShapeError, match="strictly"):
            ad.segment_sum(Tensor([[1.0, 2.0]]), [0, 0, 1])

    def test_segment_sum_gradient_repeats_per_run(self):
        x = parameter(np.zeros((4, 2)))
        with Tape():
            out = ad.segment_sum(x, [0, 3, 4])
            backward(ad.sum_all(ad.hadamard(out, Tensor([[1.0, 2.0], [3.0, 4.0]]))))
        np.testing.assert_array_equal(x.grad, [[1, 2], [1, 2], [1, 2], [3, 4]])

    def test_bad_indptr_rejected(self):
        x = Tensor(np.zeros((3, 1)))
        for indptr in ([0, 2], [1, 3], [0, 2, 1, 3], [0]):
            with pytest.raises(ShapeError):
                ad.segment_sum(x, indptr)
        with pytest.raises(ShapeError):
            ad.segment_softmax(Tensor(np.zeros((3, 2))), [0, 3])

    def test_scale_rows(self):
        out = ad.scale_rows(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[2.0], [-1.0]]))
        np.testing.assert_array_equal(out.values, [[2.0, 4.0], [-3.0, -4.0]])
        with pytest.raises(ShapeError):
            ad.scale_rows(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))


class TestReductionsAndShaping:
    def test_mean_rows(self):
        out = ad.mean_rows(Tensor([[2.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [1.0, 2.0])

    def test_l2_normalize(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]])
        assert not out.zero_rows.any()

    def test_l2_normalize_zero_row_flagged(self):
        out = ad.l2_normalize_rows(Tensor([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out.values[0], [0.0, 0.0])
        np.testing.assert_array_equal(out.zero_rows, [True, False])

    def test_gather_first_row(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(ad.gather_rows(x, [0]).values, x.values[:1])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            ad.gather_rows(Tensor(np.ones((2, 2))), [2])

    def test_gather_gradient_scatters_and_accumulates(self):
        x = parameter(np.ones((3, 2)))
        g = grad_of(lambda t: ad.sum_all(ad.gather_rows(t, [0, 0, 2])), x)
        np.testing.assert_array_equal(g, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_concat_cols_empty(self):
        with pytest.raises(ShapeError):
            ad.concat_cols([])

    def test_concat_rows_matches_vstack(self):
        rng = np.random.default_rng(23)
        parts = [rng.normal(size=(n, 4)) for n in (2, 1, 3)]
        out = ad.concat_rows([Tensor(p) for p in parts])
        np.testing.assert_array_equal(out.values, np.vstack(parts))

    def test_concat_rows_single_part_passthrough(self):
        x = Tensor(np.ones((2, 3)))
        assert ad.concat_rows([x]) is x
        with pytest.raises(ShapeError):
            ad.concat_rows([])

    def test_concat_rows_gradient_splits_by_block(self):
        rng = np.random.default_rng(24)
        a = parameter(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(6, 3)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.concat_rows([t, b]), w)),
            a) < 1e-5

    def test_concat_and_row_sums_gradients(self):
        rng = np.random.default_rng(11)
        a = parameter(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(3, 3)))
        assert finite_diff_check(lambda t: ad.sum_all(ad.concat_cols([t, b])), a) < 1e-5
        w = Tensor(rng.normal(size=(3, 1)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.row_sums(t), w)), a) < 1e-5

    def test_mean_rows_and_normalize_gradients(self):
        rng = np.random.default_rng(12)
        x = parameter(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3,)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.mean_rows(t), w)), x) < 1e-5
        w2 = Tensor(rng.normal(size=(4, 3)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.l2_normalize_rows(t), w2)), x) < 1e-5

    def test_stack_rows_gradient(self):
        rng = np.random.default_rng(13)
        a = parameter(rng.normal(size=(3,)))
        b = Tensor(rng.normal(size=(3,)))
        assert finite_diff_check(lambda t: ad.sum_all(ad.stack_rows([t, b, t])), a) < 1e-5

    def test_sparse_const_matmul_matches_dense(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(14)
        bag = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
        e = parameter(rng.normal(size=(3, 4)))
        out = ad.sparse_const_matmul(bag, e)
        np.testing.assert_allclose(out.values, bag.toarray() @ e.values)
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.sparse_const_matmul(bag, t)), e) < 1e-5


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter([1.0, 2.0, 3.0])
        g = grad_of(lambda t: ad.sum_all(t), x)
        np.testing.assert_array_equal(g, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = parameter([1.0, 2.0])
        g = grad_of(lambda t: ad.sum_all(ad.hadamard(t, t)), x)
        np.testing.assert_allclose(g, [2.0, 4.0])
        assert finite_diff_check(lambda t: ad.sum_all(ad.hadamard(t, t)), x) < 1e-5

    def test_fanout_accumulation(self):
        x = parameter([1.0, 1.0])
        g = grad_of(lambda t: ad.sum_all(ad.add(t, t)), x)
        np.testing.assert_array_equal(g, [2.0, 2.0])

    @given(st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_fanout_multiplies_single_path_gradient(self, n):
        x = parameter([3.0])
        with Tape():
            acc = ad.scale(x, 1.0)
            for _ in range(n - 1):
                acc = ad.add(acc, ad.scale(x, 1.0))
            x.grad = None
            backward(ad.sum_all(acc))
        np.testing.assert_array_equal(x.grad, [float(n)])

    def test_non_scalar_root_rejected(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(GraphError, match="scalar"):
            backward(x)

    def test_repeated_backward_accumulates(self):
        x = parameter([1.0])
        with Tape():
            loss = ad.sum_all(ad.scale(x, 2.0))
            backward(loss)
            backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_no_grad_suppresses_recording(self):
        x = parameter([1.0])
        with Tape() as tape:
            with ad.no_grad():
                y = ad.scale(x, 2.0)
            assert len(tape) == 0
            assert not y.requires_grad


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = parameter([1.0, -2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_first_step_is_bias_corrected_unit_step(self):
        p = parameter([0.5])
        opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        # m_hat = v_hat = 1 after correction, so the move is lr/(1 + eps)
        np.testing.assert_allclose(p.values, [0.5 - 0.1], atol=1e-8)

    def test_decay_only(self):
        p = parameter([2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(p.values, [2.0 * (1.0 - 0.1 * 0.01)])

    def test_missing_gradient_rejected(self):
        p = parameter([1.0])
        opt = AdamW([p])
        with pytest.raises(GraphError, match="no gradient"):
            opt.step()

    def test_bit_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            p = parameter(rng.normal(size=(3, 3)))
            opt = AdamW([p], lr=0.05, weight_decay=0.01)
            for _ in range(5):
                p.grad = rng.normal(size=(3, 3))
                opt.step()
            return p.values.tobytes()

        assert run() == run()


class TestFiniteDiffCheck:
    def test_linear_function_is_near_exact(self):
        x = parameter([1.0, 2.0, 3.0])
        assert finite_diff_check(ad.sum_all, x) < 1e-9

    def test_rejects_bad_eps(self):
        with pytest.raises(DomainError):
            finite_diff_check(ad.sum_all, parameter([1.0]), eps=0.0)

    def test_every_primitive_under_1e5(self):
        rng = np.random.default_rng(21)
        x = parameter(rng.normal(size=(4, 5)) + 0.05)
        w = Tensor(rng.normal(size=(4, 5)))
        m = Tensor(rng.normal(size=(5, 3)))
        cases = [
            lambda t: ad.sum_all(ad.matmul(t, m)),
            lambda t: ad.sum_all(ad.add(t, w)),
            lambda t: ad.sum_all(ad.sub(t, w)),
            lambda t: ad.sum_all(ad.hadamard(t, w)),
            lambda t: ad.sum_all(ad.scale(t, -1.7)),
            lambda t: ad.sum_all(ad.relu(t)),
            lambda t: ad.sum_all(ad.leaky_relu(t, 0.2)),
            lambda t: ad.sum_all(ad.sigmoid(t)),
            lambda t: ad.sum_all(ad.exp(t)),
            lambda t: ad.sum_all(ad.softplus(t)),
            lambda t: ad.sum_all(ad.hadamard(ad.softmax_rows(t), w)),
            lambda t: ad.sum_all(ad.hadamard(ad.log_softmax_rows(t), w)),
            lambda t, _w=Tensor(rng.normal(size=(5,))): ad.sum_all(ad.hadamard(ad.mean_rows(t), _w)),
            lambda t: ad.sum_all(ad.hadamard(ad.l2_normalize_rows(t), w)),
            lambda t: ad.sum_all(ad.gather_rows(t, [0, 2, 2])),
            lambda t, _w=Tensor(rng.normal(size=(4, 1))): ad.sum_all(ad.hadamard(ad.row_sums(t), _w)),
            lambda t: ad.sum_all(ad.transpose(t)),
            lambda t: ad.sum_all(ad.reshape(t, (2, 10))),
            lambda t: ad.sum_all(ad.concat_cols([t, w])),
        ]
        for f in cases:
            assert finite_diff_check(f, x) < 1e-5


class TestTapeIsolation:
    def test_scoped_tape_does_not_leak(self):
        outer = ad.active_tape()
        before = len(outer)
        with Tape():
            ad.scale(parameter([1.0]), 2.0)
        assert len(outer) == before

    def test_parallel_tapes_on_threads(self):
        import threading

        results = {}

        def work(name, seed):
            rng = np.random.default_rng(seed)
            x = parameter(rng.normal(size=(4,)))
            with Tape():
                backward(ad.sum_all(ad.hadamard(x, x)))
            results[name] = np.allclose(x.grad, 2 * x.values)

        threads = [threading.Thread(target=work, args=(i, i)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results.values())
