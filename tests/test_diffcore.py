"""Autodiff core: every op against finite differences, plus the contracts
around checkpoints, the optimizer, the GRU cell, and reparameterized noise."""
import contextlib
import itertools
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nviflab import diffcore as dc
from nviflab.diffcore.tensor import _propagate
from nviflab.errors import DataError, ShapeError

from conftest import (
    central_diff_grads,
    composite_gaussian_sample,
    composite_graph_conv,
    composite_gru_cell,
    composite_kl_rows,
    composite_matmul_relu,
    composite_sq_dist_rows,
    matmul,
    matmul_relu,
    max_rel_err,
    per_name_adam,
    sigmoid,
    tanh,
)

RNG = np.random.default_rng(2024)
TOL = 1e-4


def _leaf(shape, positive=False, away_from=None):
    data = RNG.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    if away_from is not None:
        # keep kinked ops (relu, min, clamp) off their non-smooth points
        data = np.where(np.abs(data - away_from) < 0.15,
                        data + np.sign(data - away_from + 1e-12) * 0.3, data)
    return dc.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def _check_grads(build, leaves):
    """build() -> scalar Tensor from the leaf tensors; compare both grads."""
    loss = build()
    for leaf in leaves:
        leaf.grad = None
    dc.backward(loss)
    numeric = central_diff_grads(lambda: float(build().data),
                                 [leaf.data for leaf in leaves])
    for leaf, num in zip(leaves, numeric):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert max_rel_err(analytic, num) <= TOL


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _weighted(t):
    # fixed weights per shape so repeated evaluations see the same scalar map
    w = np.random.default_rng(77).standard_normal(t.data.shape)
    return dc.sum(dc.mul(t, w))


class TestOpGradients:
    def test_add_same_shape(self):
        a, b = _leaf((3, 4)), _leaf((3, 4))
        _check_grads(lambda: _weighted(dc.add(a, b)), [a, b])

    def test_add_bias_broadcast(self):
        a, b = _leaf((5, 3)), _leaf((3,))
        _check_grads(lambda: _weighted(dc.add(a, b)), [a, b])

    def test_sub(self):
        a, b = _leaf((2, 6)), _leaf((2, 6))
        _check_grads(lambda: _weighted(dc.sub(a, b)), [a, b])

    def test_mul(self):
        a, b = _leaf((4, 3)), _leaf((4, 3))
        _check_grads(lambda: _weighted(dc.mul(a, b)), [a, b])

    def test_mul_scalar(self):
        a = _leaf((4, 3))
        _check_grads(lambda: _weighted(dc.mul(a, 2.5)), [a])

    def test_matmul(self):
        a, b = _leaf((4, 3)), _leaf((3, 5))
        _check_grads(lambda: _weighted(matmul(a, b)), [a, b])

    def test_sparse_matmul(self):
        adj = np.abs(RNG.standard_normal((4, 4)))
        x = _leaf((4, 3))
        _check_grads(lambda: _weighted(dc.sparse_matmul((adj,), x)), [x])

    def test_concat_axis1(self):
        a, b = _leaf((3, 2)), _leaf((3, 4))
        _check_grads(lambda: _weighted(dc.concat([a, b], axis=1)), [a, b])

    def test_concat_axis0(self):
        a, b = _leaf((2, 3)), _leaf((4, 3))
        _check_grads(lambda: _weighted(dc.concat([a, b], axis=0)), [a, b])

    def test_gather_rows_repeated_index(self):
        x = _leaf((5, 3))
        idx = [0, 2, 2, 4]
        _check_grads(lambda: _weighted(dc.gather_rows(x, idx)), [x])

    def test_take_per_row(self):
        x = _leaf((6, 5))
        idx = RNG.integers(0, 5, 6)
        _check_grads(lambda: _weighted(dc.take_per_row(x, idx)), [x])

    def test_relu(self):
        x = _leaf((4, 4), away_from=0.0)
        _check_grads(lambda: _weighted(dc.relu(x)), [x])

    def test_sigmoid(self):
        x = _leaf((3, 5))
        _check_grads(lambda: _weighted(sigmoid(x)), [x])

    def test_tanh(self):
        x = _leaf((3, 5))
        _check_grads(lambda: _weighted(tanh(x)), [x])

    def test_exp(self):
        x = _leaf((3, 4))
        _check_grads(lambda: _weighted(dc.exp(x)), [x])

    def test_clamp(self):
        x = _leaf((4, 4), away_from=0.8)
        x.data = np.where(np.abs(np.abs(x.data) - 0.8) < 0.2,
                          x.data * 2.0, x.data)
        _check_grads(lambda: _weighted(dc.clamp(x, -0.8, 0.8)), [x])

    def test_minimum(self):
        a, b = _leaf((4, 3)), _leaf((4, 3))
        b.data = b.data + 0.3 * np.sign(b.data - a.data + 1e-9)  # avoid ties
        _check_grads(lambda: _weighted(dc.minimum(a, b)), [a, b])

    def test_sum_all(self):
        x = _leaf((3, 4))
        _check_grads(lambda: dc.sum(x), [x])

    def test_sum_axis(self):
        x = _leaf((3, 4))
        _check_grads(lambda: _weighted(dc.sum(x, axis=1)), [x])

    def test_mean_all(self):
        x = _leaf((3, 4))
        _check_grads(lambda: dc.mean(x), [x])

    def test_mean_axis(self):
        x = _leaf((5, 2))
        _check_grads(lambda: _weighted(dc.mean(x, axis=0)), [x])

    def test_bce(self):
        target = RNG.random((4, 6))
        logits = dc.Tensor(_logit(RNG.random((4, 6)) * 0.9 + 0.05), requires_grad=True)
        _check_grads(lambda: dc.bce_loss(target, logits), [logits])

    def test_bce_rowwise(self):
        target = RNG.random((4, 6))
        logits = dc.Tensor(_logit(RNG.random((4, 6)) * 0.9 + 0.05), requires_grad=True)
        _check_grads(lambda: _weighted(dc.bce_loss(target, logits, axis=1)), [logits])

    def test_mse(self):
        a, b = _leaf((3, 4)), _leaf((3, 4))
        _check_grads(lambda: dc.mse(a, b), [a, b])

    def test_log_softmax(self):
        x = _leaf((4, 7))
        _check_grads(lambda: _weighted(dc.log_softmax(x)), [x])

    def test_gru_cell(self):
        params = {name: _leaf(shape) for name, shape in [
            ("w_z", (7, 4)), ("b_z", (4,)), ("w_r", (7, 4)), ("b_r", (4,)),
            ("w_n", (7, 4)), ("b_n", (4,))]}
        x, h = _leaf((3, 3)), _leaf((3, 4))
        leaves = [x, h] + list(params.values())
        _check_grads(lambda: _weighted(dc.gru_cell(x, h, params)), leaves)

    def test_matmul_relu(self):
        rng = np.random.default_rng(4)
        x, w = (dc.Tensor(rng.standard_normal(s), requires_grad=True) for s in ((4, 3), (3, 5)))
        pre = x.data @ w.data  # both signs, and no finite difference crosses the kink
        assert np.abs(pre).min() > 0.1 and 0 < (pre > 0).sum() < pre.size
        _check_grads(lambda: _weighted(matmul_relu(x, w)), [x, w])

    def test_graph_conv(self):
        rng = np.random.default_rng(1)
        x, w = (dc.Tensor(rng.standard_normal(s), requires_grad=True) for s in ((5, 3), (3, 4)))
        blocks = (rng.standard_normal((2, 2)), rng.standard_normal((3, 3)))
        pre = np.concatenate([blocks[0] @ x.data[:2], blocks[1] @ x.data[2:]]) @ w.data
        assert np.abs(pre).min() > 0.1 and 0 < (pre > 0).sum() < pre.size
        _check_grads(lambda: _weighted(dc.graph_conv(blocks, x, w)), [x, w])

    def test_kl_rows(self):
        mu, ls = _leaf((3, 4)), _leaf((3, 4))
        _check_grads(lambda: _weighted(dc.kl_rows(mu, ls)), [mu, ls])

    def test_sq_dist_rows(self):
        a, b = _leaf((4, 3)), _leaf((4, 3))
        _check_grads(lambda: _weighted(dc.sq_dist_rows(a, b)), [a, b])

    def test_gaussian_sample_fixed_eps(self):
        # a fresh generator per evaluation draws the same noise every time
        mu, ls = _leaf((3, 4)), _leaf((3, 4))
        _check_grads(lambda: _weighted(dc.gaussian_sample(
            mu, ls, rng=np.random.default_rng(3))), [mu, ls])


class TestForwardValues:
    def test_relu_values(self):
        out = dc.relu(dc.Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_bce_quarter(self):
        # t = sigmoid(l) = 0.25: -(0.25 ln 0.25 + 0.75 ln 0.75)
        val = dc.bce_loss(np.array([0.25]), dc.Tensor(_logit(np.array([0.25]))))
        expected = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
        assert abs(float(val.data) - expected) < 1e-12
        assert abs(expected - 0.5623) < 1e-4

    def test_bce_clamps_extremes(self):
        # p = 0 against t = 1, at the most negative finite logit
        val = dc.bce_loss(np.array([1.0]), dc.Tensor(np.array([-np.finfo(np.float64).max])))
        assert np.isfinite(float(val.data))

    def test_sparse_matmul_two_clique(self):
        adj = np.full((2, 2), 0.5)
        out = dc.sparse_matmul((adj,), dc.Tensor(np.array([[1.0], [3.0]])))
        np.testing.assert_allclose(out.data, [[2.0], [2.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    @pytest.mark.parametrize("shapes, axis", [
        ([(2, 3), (3, 3)], 1), ([(2, 3), (2, 4), (2, 3)], 0), ([(2, 3), (3,)], 0)])
    def test_concat_shape_error_names_the_shapes(self, shapes, axis):
        with pytest.raises(ShapeError) as err:
            dc.concat([dc.Tensor(np.zeros(s)) for s in shapes], axis=axis)
        assert all(str(s) in str(err.value) for s in shapes)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            dc.backward(dc.Tensor(np.zeros(3), requires_grad=True))


def _dense(blocks):
    """The block-diagonal matrix of ``blocks``: the oracle of the operator."""
    n = sum(b.shape[0] for b in blocks)
    out, at = np.zeros((n, n)), 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


BAD_BLOCKS = [
    ((np.ones((2, 3)),), 2),                     # a block that is not square
    ((np.ones((2, 2)), np.ones((2, 2))), 3),     # sizes that miss the rows
    ((np.ones((3, 3)),), 2),                     # a block larger than the rows
    ((), 0),                                     # no blocks
    (np.ones((3, 3)), 3),                        # a bare matrix, not its blocks
]


class TestBlockOperator:
    def test_gradient_over_unequal_blocks(self):
        blocks = (RNG.standard_normal((3, 3)), RNG.standard_normal((1, 1)),
                  RNG.standard_normal((2, 2)))  # not symmetric: the VJP transposes
        x = _leaf((6, 4))
        _check_grads(lambda: _weighted(dc.sparse_matmul(blocks, x)), [x])

    def test_value_is_the_dense_product_and_blocks_are_saved_not_copied(self):
        blocks = [RNG.standard_normal((2, 2)), RNG.standard_normal((3, 3))]
        x = _leaf((5, 2))
        out = dc.sparse_matmul(blocks, x)
        np.testing.assert_allclose(out.data, _dense(blocks) @ x.data, rtol=1e-12)
        assert all(s is b for s, b in zip(out._saved, blocks))

    @pytest.mark.parametrize("blocks, rows", BAD_BLOCKS)
    def test_shape_errors(self, blocks, rows):
        with pytest.raises(ShapeError):
            dc.sparse_matmul(blocks, dc.Tensor(np.ones((rows, 2)), requires_grad=True))

    @pytest.mark.parametrize("blocks, rows", BAD_BLOCKS)
    def test_graph_conv_shape_errors(self, blocks, rows):
        # the graph-conv layer checks its blocks as the block product does
        with pytest.raises(ShapeError):
            dc.graph_conv(blocks, dc.Tensor(np.ones((rows, 2)), requires_grad=True),
                          dc.Tensor(np.ones((2, 3)), requires_grad=True))


class TestAffine:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 5), k=st.integers(1, 5), m=st.integers(1, 5),
           bias=st.sampled_from(["row", "1xm", "nxm"]),
           dtype=st.sampled_from([np.float32, np.float64]),
           needs=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           seed=st.integers(0, 2 ** 16))
    def test_equals_matmul_then_add(self, n, k, m, bias, dtype, needs, seed):
        # the fused node computes exactly what add(matmul(x, w), b) computes,
        # value and gradients, for every subset of {x, w, b} taking a gradient
        rng = np.random.default_rng(seed)
        b_shape = {"row": (m,), "1xm": (1, m), "nxm": (n, m)}[bias]
        arrays = [rng.standard_normal(s).astype(dtype) for s in ((n, k), (k, m), b_shape)]
        upstream = rng.standard_normal((n, m)).astype(dtype)

        def run(build):
            leaves = [dc.Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, needs)]
            out = build(*leaves)
            dc.backward(dc.sum(dc.mul(out, upstream)))
            return out, [leaf.grad for leaf in leaves]

        fused, fused_grads = run(dc.affine)
        ref, ref_grads = run(lambda x, w, b: dc.add(matmul(x, w), b))
        assert fused.data.dtype == ref.data.dtype == dtype
        np.testing.assert_array_equal(fused.data, ref.data)
        assert fused.requires_grad == ref.requires_grad == any(needs)
        for got, want, need in zip(fused_grads, ref_grads, needs):
            if need:
                assert got.dtype == want.dtype == dtype
                np.testing.assert_array_equal(got, want)
            else:
                assert got is None and want is None

    def test_one_node_per_call(self):
        x = dc.Tensor(np.ones((2, 3)), requires_grad=True)
        w, b = dc.Tensor(np.ones((3, 4))), dc.Tensor(np.zeros(4))
        out = dc.affine(x, w, b)
        assert out._parents == (x, w, b)
        assert len(dc.topological_order(out)) == 4

    def test_inner_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError) as err:
            dc.affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError):
            dc.affine(np.zeros(3), np.zeros((3, 2)), np.zeros(2))

    def test_bias_that_does_not_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            dc.affine(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3))


class TestBceLogits:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        target = rng.random((3, 5))
        logits = dc.Tensor(rng.uniform(-10.0, 10.0, (3, 5)), requires_grad=True)
        _check_grads(lambda: dc.bce_loss(target, logits), [logits])
        _check_grads(lambda: _weighted(dc.bce_loss(target, logits, axis=1)), [logits])

    @given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_value_is_cross_entropy_of_sigmoid(self, pairs):
        lg, t = (np.array(col, dtype=np.float64) for col in zip(*pairs))
        # -[t log s(l) + (1-t) log(1-s(l))], with 1 - s(l) = s(-l)
        expected = -(t * np.log(1.0 / (1.0 + np.exp(-lg)))
                     + (1.0 - t) * np.log(1.0 / (1.0 + np.exp(lg))))
        rows = dc.bce_loss(t[None, :], dc.Tensor(lg[None, :]), axis=1)
        np.testing.assert_allclose(rows.data, [expected.mean()], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dc.bce_loss(t, dc.Tensor(lg)).data, expected.mean(),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_logits_keep_full_gradient(self, dtype):
        # the old clamp at 1e-7 gave these cells zero gradient
        target = np.array([0.0, 1.0, 1.0, 0.0], dtype=dtype)
        logits = dc.Tensor(np.array([100.0, -100.0, 100.0, -100.0], dtype=dtype),
                           requires_grad=True)
        loss = dc.bce_loss(target, logits)
        assert np.isfinite(loss.data) and loss.data.dtype == dtype
        dc.backward(loss)
        sig = 1.0 / (1.0 + np.exp(-logits.data.astype(np.float64)))
        np.testing.assert_allclose(logits.grad, (sig - target) / 4, rtol=1e-6, atol=1e-30)
        assert logits.grad[0] == pytest.approx(0.25) and logits.grad[1] == pytest.approx(-0.25)

    def test_sigmoid_does_not_overflow_in_float32(self):
        x = np.array([-200.0, -90.0, 0.0, 90.0, 200.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(dc.Tensor(x, requires_grad=True))
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data[[0, 2, 4]], [0.0, 0.5, 1.0])


class TestGru:
    def test_zero_params_halve_hidden(self):
        params = {name: dc.Tensor(np.zeros(shape)) for name, shape in [
            ("w_z", (5, 3)), ("b_z", (3,)), ("w_r", (5, 3)), ("b_r", (3,)),
            ("w_n", (5, 3)), ("b_n", (3,))]}
        h = np.array([[0.4, -1.0, 2.0]])
        x = np.array([[1.0, 0.5]])
        out = dc.gru_cell(dc.Tensor(x), dc.Tensor(h), params)
        np.testing.assert_allclose(out.data, 0.5 * h, atol=1e-12)

    def test_zero_hidden_zero_candidate_path(self):
        rng = np.random.default_rng(3)
        params = {name: dc.Tensor(rng.standard_normal(shape)) for name, shape in [
            ("w_z", (5, 3)), ("b_z", (3,)), ("w_r", (5, 3)), ("b_r", (3,))]}
        params["w_n"] = dc.Tensor(np.zeros((5, 3)))
        params["b_n"] = dc.Tensor(np.zeros(3))
        out = dc.gru_cell(dc.Tensor(rng.standard_normal((2, 2))),
                          dc.Tensor(np.zeros((2, 3))), params)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        n_in, n_h, batch = 3, 4, 2
        params = {}
        for gate in ("z", "r", "n"):
            params[f"w_{gate}"] = dc.Tensor(rng.standard_normal((n_in + n_h, n_h)))
            params[f"b_{gate}"] = dc.Tensor(rng.standard_normal(n_h))
        x = rng.standard_normal((batch, n_in))
        h = rng.standard_normal((batch, n_h))
        out = dc.gru_cell(dc.Tensor(x), dc.Tensor(h), params).data

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        for b in range(batch):
            for j in range(n_h):
                xh = np.concatenate([x[b], h[b]])
                z = sig(xh @ params["w_z"].data[:, j] + params["b_z"].data[j])
                r_full = sig(xh @ params["w_r"].data + params["b_r"].data)
                xrh = np.concatenate([x[b], r_full * h[b]])
                n = np.tanh(xrh @ params["w_n"].data[:, j] + params["b_n"].data[j])
                ref = (1.0 - z) * h[b, j] + z * n
                assert abs(out[b, j] - ref) < 1e-12


GRU_SLOTS = ("x", "h", "w_z", "b_z", "w_r", "b_r", "w_n", "b_n")


def _gru_shapes(rows, n_in, n_h):
    return [(rows, n_in), (rows, n_h)] + [(n_in + n_h, n_h), (n_h,)] * 3


def _fused_vs_composite(fused, composite, arrays, needs, grad_on, upstream, slots=None):
    """Build the one-node op ``fused`` and its ``composite`` oracle over copies
    of the same leaves and backpropagate ``upstream`` through each; value,
    graph membership and every leaf gradient must agree bit for bit. The
    fused node's parents are the leaves, or the leaves at the indices
    ``slots`` when an operand fills several slots. Returns the fused node."""
    def run(op):
        leaves = [dc.Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, needs)]
        with contextlib.nullcontext() if grad_on else dc.no_grad():
            out = op(*leaves)
        if out.requires_grad:
            dc.backward(dc.sum(dc.mul(out, upstream)))
        return out, leaves

    got, got_leaves = run(fused)
    want, want_leaves = run(composite)
    assert got.data.dtype == want.data.dtype == arrays[0].dtype
    np.testing.assert_array_equal(got.data, want.data)
    assert got.requires_grad == want.requires_grad == (grad_on and any(needs))
    parents = got_leaves if slots is None else [got_leaves[i] for i in slots]
    assert got._parents == (tuple(parents) if got.requires_grad else ())
    for g, w in zip(got_leaves, want_leaves):
        if got.requires_grad and g.requires_grad:
            assert g.grad.dtype == w.grad.dtype == arrays[0].dtype
            np.testing.assert_array_equal(g.grad, w.grad)
        else:
            assert g.grad is None and w.grad is None
    return got


class TestFusedGru:
    @settings(max_examples=120, deadline=None)
    @given(rows=st.integers(1, 9), n_in=st.integers(1, 6), n_h=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]),
           needs=st.tuples(*[st.booleans()] * len(GRU_SLOTS)),
           grad_on=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_equals_composite_oracle(self, rows, n_in, n_h, dtype, needs, grad_on, seed):
        # one node computes exactly what the 13-node cell computes, value and
        # gradients, for every subset of parents taking a gradient
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s).astype(dtype) for s in _gru_shapes(rows, n_in, n_h)]
        upstream = rng.standard_normal((rows, n_h)).astype(dtype)

        def on_slots(cell):
            return lambda x, h, *weights: cell(x, h, dict(zip(GRU_SLOTS[2:], weights)))

        fused = _fused_vs_composite(on_slots(dc.gru_cell), on_slots(composite_gru_cell),
                                    arrays, needs, grad_on, upstream)
        if fused.requires_grad:
            assert fused._saved is None  # the pending gradients were released

    @staticmethod
    def _cells(x, h):
        # the fused node and the oracle over copies of the same leaves
        rng = np.random.default_rng(4)
        arrays = dc.init_gru(rng, x.shape[1], h.shape[1], np.float64)
        for cell in (dc.gru_cell, composite_gru_cell):
            params = {k: dc.Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
            xt = dc.Tensor(x.copy(), requires_grad=True)
            ht = xt if h is x else dc.Tensor(h.copy())
            yield cell(xt, ht, params), xt, params

    def test_stale_pending_gradients_not_reused(self):
        # a pass that stopped after the first slot leaves gradients pending;
        # the next pass, from another upstream gradient, computes its own
        rng = np.random.default_rng(5)
        (fused, fx, fp), (ref, rx, rp) = self._cells(rng.standard_normal((2, 3)),
                                                     rng.standard_normal((2, 4)))
        fused._backward(np.ones((2, 4)), fused, 0)
        assert fused._saved is not None
        for out in (fused, ref):
            dc.backward(dc.sum(dc.mul(out, -3.0)))
        assert fused._saved is None
        np.testing.assert_array_equal(fx.grad, rx.grad)
        for name in fp:
            np.testing.assert_array_equal(fp[name].grad, rp[name].grad)

    def test_one_tensor_in_both_slots_takes_both_gradients(self):
        xh = np.random.default_rng(6).standard_normal((2, 3))
        (fused, fx, _), (ref, rx, _) = self._cells(xh, xh)
        assert fused._parents[0] is fused._parents[1]
        for out in (fused, ref):
            dc.backward(dc.sum(out))
        # the oracle interleaves the two slots' terms, so the sums may round apart
        np.testing.assert_allclose(fx.grad, rx.grad, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("slot, shape", [
        ("x", (4,)), ("x", (2, 3)), ("h", (3, 4, 1)), ("w_z", (6, 4)), ("b_r", (1, 4)),
        ("w_n", (7, 3))])
    def test_shape_error_names_the_shapes(self, slot, shape):
        arrays = dict(zip(GRU_SLOTS, (np.zeros(s) for s in _gru_shapes(3, 3, 4))))
        arrays[slot] = np.zeros(shape)
        with pytest.raises(ShapeError) as err:
            dc.gru_cell(arrays["x"], arrays["h"], arrays)
        assert str(shape) in str(err.value)


LEAN_CASE = dict(rows=st.integers(1, 9), width=st.integers(1, 6),
                 dtype=st.sampled_from([np.float32, np.float64]),
                 needs=st.tuples(st.booleans(), st.booleans()), grad_on=st.booleans(),
                 seed=st.integers(0, 2 ** 16))


class TestLeanNodes:
    """The one-node forms of the graph-conv layer, the latent sample, the
    consistency term and the KL rows against their composite oracles: same
    bits, and a node that keeps only what its VJP reads."""

    @staticmethod
    def _dead(x, w, dead):
        if dead == "rows":  # pre-activations of exactly 0 in every other row
            x[::2] = 0.0
        elif dead == "all":  # every pre-activation below 0
            x, w = np.abs(x) + 0.1, -np.abs(w) - 0.1
        return x, w

    @settings(max_examples=120, deadline=None)
    @given(n_in=st.integers(1, 6), dead=st.sampled_from(["none", "rows", "all"]), **LEAN_CASE)
    def test_matmul_relu_equals_composite(self, rows, width, n_in, dead, dtype, needs,
                                          grad_on, seed):
        # the oracle inside the graph-conv layer's composite
        rng = np.random.default_rng(seed)
        x, w = self._dead(rng.standard_normal((rows, n_in)).astype(dtype),
                          rng.standard_normal((n_in, width)).astype(dtype), dead)
        upstream = rng.standard_normal((rows, width)).astype(dtype)
        out = _fused_vs_composite(matmul_relu, composite_matmul_relu, [x, w], needs,
                                  grad_on, upstream)
        if dead == "all":
            assert not out.data.any()
        assert out._saved is None

    @settings(max_examples=120, deadline=None)
    @given(n_in=st.integers(1, 6), sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           dead=st.sampled_from(["none", "rows", "all"]),
           **{k: v for k, v in LEAN_CASE.items() if k != "rows"})
    def test_graph_conv_equals_composite(self, width, n_in, sizes, dead, dtype, needs,
                                         grad_on, seed):
        # one block per stacked graph; their sizes set the row count
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        x, w = self._dead(rng.standard_normal((n, n_in)).astype(dtype),
                          rng.standard_normal((n_in, width)).astype(dtype), dead)
        blocks = tuple(rng.random((k, k)).astype(dtype) for k in sizes)  # dead stays dead
        if dead == "rows":  # mixed rows of exactly 0 in every other row of each block
            for b in blocks:
                b[::2] = 0.0
        upstream = rng.standard_normal((n, width)).astype(dtype)
        out = _fused_vs_composite(lambda a, b: dc.graph_conv(blocks, a, b),
                                  lambda a, b: composite_graph_conv(blocks, a, b),
                                  [x, w], needs, grad_on, upstream)
        if dead == "all":
            assert not out.data.any()
        if out.requires_grad:  # the blocks themselves, and nothing more
            assert all(a is b for a, b in zip(out._saved, blocks, strict=True))

    @settings(max_examples=120, deadline=None)
    @given(**LEAN_CASE)
    def test_kl_rows_equals_composite(self, rows, width, dtype, needs, grad_on, seed):
        rng = np.random.default_rng(seed)
        mu, log_sigma = (rng.standard_normal((rows, width)).astype(dtype) for _ in range(2))
        upstream = rng.standard_normal(rows).astype(dtype)
        out = _fused_vs_composite(dc.kl_rows, composite_kl_rows, [mu, log_sigma], needs,
                                  grad_on, upstream, slots=(0, 0, 1, 1))
        assert out.data.shape == (rows,) and out._saved is None

    @settings(max_examples=60, deadline=None)
    @given(rows=LEAN_CASE["rows"], width=LEAN_CASE["width"], dtype=LEAN_CASE["dtype"],
           seed=LEAN_CASE["seed"], kl_first=st.booleans())
    def test_kl_rows_beside_the_sample_equals_composite(self, rows, width, dtype, seed,
                                                        kl_first):
        # mu and log_sigma also feed the latent sample, as in the encoder:
        # each operand's terms still add up in the composite's order
        rng = np.random.default_rng(seed)
        mu, log_sigma = (rng.standard_normal((rows, width)).astype(dtype) for _ in range(2))
        up_z, up_kl = rng.standard_normal((rows, width)), rng.standard_normal(rows)

        def run(kl):
            m, s = (dc.Tensor(a.copy(), requires_grad=True) for a in (mu, log_sigma))
            terms = [dc.sum(dc.mul(kl(m, s), up_kl.astype(dtype))),
                     dc.sum(dc.mul(dc.gaussian_sample(m, s, rng=np.random.default_rng(seed)),
                                   up_z.astype(dtype)))]
            loss = dc.add(*(terms if kl_first else terms[::-1]))
            dc.backward(loss)
            return [loss.data.tobytes(), m.grad.tobytes(), s.grad.tobytes()]

        assert run(dc.kl_rows) == run(composite_kl_rows)

    @settings(max_examples=120, deadline=None)
    @given(**LEAN_CASE)
    def test_gaussian_sample_equals_composite(self, rows, width, dtype, needs, grad_on, seed):
        rng = np.random.default_rng(seed)
        mu, log_sigma = (rng.standard_normal((rows, width)).astype(dtype) for _ in range(2))
        upstream = rng.standard_normal((rows, width)).astype(dtype)
        out = _fused_vs_composite(
            lambda m, s: dc.gaussian_sample(m, s, rng=np.random.default_rng(seed)),
            lambda m, s: composite_gaussian_sample(m, s, np.random.default_rng(seed)),
            [mu, log_sigma], needs, grad_on, upstream)
        if out.requires_grad:  # the noise, and nothing more
            np.testing.assert_array_equal(
                out._saved, np.random.default_rng(seed).standard_normal(mu.shape).astype(dtype))

    @settings(max_examples=120, deadline=None)
    @given(**LEAN_CASE)
    def test_sq_dist_rows_equals_composite(self, rows, width, dtype, needs, grad_on, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal((rows, width)).astype(dtype) for _ in range(2))
        upstream = rng.standard_normal(rows).astype(dtype)
        out = _fused_vs_composite(dc.sq_dist_rows, composite_sq_dist_rows, [a, b], needs,
                                 grad_on, upstream)
        assert out.data.shape == (rows,) and out._saved is None

    @pytest.mark.parametrize("build, shapes", [
        (matmul_relu, [(3, 4), (3, 2)]),
        (matmul_relu, [(4,), (4, 2)]),
        (matmul_relu, [(3, 4), (4, 2, 1)]),
        (lambda m, s: dc.gaussian_sample(m, s, rng=np.random.default_rng(0)), [(3, 4), (4,)]),
        (lambda m, s: dc.gaussian_sample(m, s, rng=np.random.default_rng(0)), [(3, 4), (4, 3)]),
        (dc.sq_dist_rows, [(3, 4), (3, 5)]),
        (dc.sq_dist_rows, [(3, 4, 2), (3, 4, 2)]),
        (dc.kl_rows, [(3, 4), (3, 5)]),
        (dc.kl_rows, [(3, 4), (4,)]),
        (dc.kl_rows, [(4,), (4,)]),
        (dc.kl_rows, [(3, 4, 2), (3, 4, 2)]),
        (lambda x, w: dc.graph_conv((np.eye(3),), x, w), [(3, 4), (3, 2)]),
        (lambda x, w: dc.graph_conv((np.eye(3),), x, w), [(3, 4), (4, 2, 1)]),
        (lambda x, w: dc.graph_conv((np.eye(3),), x, w), [(3, 4), (4,)]),
    ])
    def test_shape_error_names_the_shapes(self, build, shapes):
        with pytest.raises(ShapeError) as err:
            build(*(dc.Tensor(np.zeros(s), requires_grad=True) for s in shapes))
        assert all(str(s) in str(err.value) for s in shapes)


class TestGaussianSample:
    def test_degenerate_noise_returns_mu(self):
        mu = np.array([[1.0, -2.0]])
        out = dc.gaussian_sample(dc.Tensor(mu), dc.Tensor(np.full((1, 2), -10.0)),
                                 rng=np.random.default_rng(0))
        np.testing.assert_allclose(out.data, mu, atol=1e-3)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        mu = np.array([[0.7, -1.2]])
        sigma = np.array([[0.5, 2.0]])
        n = 10 ** 5
        draws = np.stack([
            dc.gaussian_sample(dc.Tensor(mu), dc.Tensor(np.log(sigma)), rng=rng).data[0]
            for _ in range(n)])
        bound = 4.0 * sigma[0] / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mu[0]) < bound)

    def test_unit_gradient_to_mu(self):
        # d/dmu of mu + exp(log_sigma) * eps is 1 whatever the noise
        mu = dc.Tensor(np.zeros((2, 3)), requires_grad=True)
        ls = dc.Tensor(np.zeros((2, 3)))
        out = dc.gaussian_sample(mu, ls, rng=np.random.default_rng(0))
        dc.backward(dc.sum(out))
        np.testing.assert_array_equal(mu.grad, np.ones((2, 3)))


# the multi-operand ops, each as (build from its tensor operands, their shapes);
# a Python number is no operand, and one tensor may fill two slots
MULTI_OPERAND = {
    "add": (dc.add, [(3, 4), (4,)]),
    "sub": (dc.sub, [(3, 1), (3, 4)]),
    "mul": (dc.mul, [(3, 4), (1, 4)]),
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "matmul_relu": (matmul_relu, [(3, 4), (4, 2)]),
    "graph_conv": (lambda x, w: dc.graph_conv((np.full((1, 1), 0.5), np.full((2, 2), -0.25)),
                                              x, w), [(3, 4), (4, 2)]),
    "kl_rows": (dc.kl_rows, [(3, 4), (3, 4)]),
    "gaussian_sample": (lambda m, s: dc.gaussian_sample(m, s, rng=np.random.default_rng(1)),
                        [(3, 4), (3, 4)]),
    "sq_dist_rows": (dc.sq_dist_rows, [(3, 4), (3, 4)]),
    "minimum": (dc.minimum, [(3, 4), (3, 4)]),
    "mse": (dc.mse, [(3, 4), (3, 4)]),
    "concat": (lambda a, b, c: dc.concat([a, b, c], axis=1), [(3, 1), (3, 2), (3, 3)]),
    "number_minus": (lambda a: dc.sub(1.5, a), [(3, 4)]),
    "times_number": (lambda a: dc.mul(a, -2.5), [(3, 4)]),
    "mul_same": (lambda a: dc.mul(a, a), [(3, 4)]),
    "sub_same": (lambda a, b: dc.add(dc.sub(a, a), b), [(3, 4), (3, 4)]),
    "concat_same": (lambda a, b: dc.concat([a, b, a], axis=0), [(2, 3), (1, 3)]),
}


class TestSplice:
    def test_stands_in_for_a_backpropagated_term(self):
        # y feeds a term f(y) and a second loss; the term's own backward plus a
        # splice of its value and df/dy give the single graph's value and gradient
        rng = np.random.default_rng(3)
        x = dc.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        y = tanh(x)
        term = lambda t: dc.sum(sigmoid(t))  # noqa: E731
        dc.backward(dc.add(dc.mul(term(y), 2.0), dc.mean(dc.mul(y, y))))
        want, x.grad = x.grad, None
        leaf = dc.Tensor(y.data, requires_grad=True)
        local = term(leaf)
        dc.backward(local)
        spliced = dc.splice(y, local.data, leaf.grad)
        assert spliced._parents == (y,) and spliced.data == local.data
        loss = dc.add(dc.mul(spliced, 2.0), dc.mean(dc.mul(y, y)))
        dc.backward(loss)
        np.testing.assert_array_equal(x.grad, want)

    def test_shapes_checked(self):
        x = dc.Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ShapeError):
            dc.splice(x, np.ones(2), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            dc.splice(x, 1.0, np.ones((3, 2)))

    def test_no_node_without_gradients(self):
        x = dc.Tensor(np.ones(3), requires_grad=True)
        with dc.no_grad():
            out = dc.splice(x, 2.0, np.ones(3))
        assert out._parents == () and not out.requires_grad and float(out.data) == 2.0


class TestBackwardContract:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_python_scalars_keep_dtype_and_add_no_node(self, dtype):
        x = dc.Tensor(np.array([0.25, 3.0], dtype=dtype), requires_grad=True)
        for out, expected in ((dc.sub(1.0, x), [0.75, -2.0]), (1.0 - x, [0.75, -2.0]),
                              (dc.mul(x, 2), [0.5, 6.0]), (x + 0.5, [0.75, 3.5])):
            assert out.data.dtype == dtype and out._parents == (x,)
            np.testing.assert_array_equal(out.data, expected)
        loss = dc.sum(dc.mul(dc.sub(1.0, x), 2.0))
        assert loss.data.dtype == dtype
        dc.backward(loss)
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad, [-2.0, -2.0])

    def test_constant_loss_zero_grads(self):
        store = dc.ParamStore()
        p = store.add("p", np.ones((2, 2)))
        store.zero_grad()
        loss = dc.mean(dc.Tensor(np.ones((3, 3))))
        dc.backward(loss)
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_linearity_on_shared_graph(self):
        rng = np.random.default_rng(5)
        w = dc.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = dc.Tensor(rng.standard_normal((4, 3)))
        y = matmul(x, w)
        l1 = dc.mean(dc.mul(y, y))
        l2 = dc.sum(sigmoid(y))
        a, b = 2.0, -0.7

        w.grad = None
        dc.backward(l1)
        g1 = w.grad.copy()
        w.grad = None
        dc.backward(l2)
        g2 = w.grad.copy()
        w.grad = None
        dc.backward(dc.add(dc.mul(l1, a), dc.mul(l2, b)))
        np.testing.assert_allclose(w.grad, a * g1 + b * g2, atol=1e-10)

    def test_grad_accumulates_across_calls(self):
        w = dc.Tensor(np.ones((2, 2)), requires_grad=True)
        loss = lambda: dc.sum(dc.mul(w, 3.0))
        dc.backward(loss())
        dc.backward(loss())
        np.testing.assert_allclose(w.grad, 6.0)

    def test_constants_get_no_gradient(self):
        w = dc.Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        c = dc.Tensor(np.array([3.0, 4.0, 5.0]))
        dc.backward(dc.sum(dc.mul(w, c)))
        assert c.grad is None
        np.testing.assert_array_equal(w.grad, [3.0, 4.0, 5.0])

    def test_interior_grads_released_leaf_grads_unchanged(self):
        # two GRU steps sharing their weights, an MLP head and a logits loss:
        # interior nodes feed several consumers and leaves several uses
        rng = np.random.default_rng(12)
        params = {k: dc.Tensor(v, requires_grad=True)
                  for k, v in dc.init_gru(rng, 3, 4, np.float64).items()}
        store = dc.ParamStore()
        dc.init_mlp(store, "head/", [4, 5, 6], rng, np.float64)
        h = dc.Tensor(np.zeros((2, 4)))
        for _ in range(2):
            h = dc.gru_cell(dc.Tensor(rng.standard_normal((2, 3))), h, params)
        loss = dc.add(dc.bce_loss(rng.random((2, 6)), dc.mlp(h, store, "head/")),
                      dc.mean(dc.mul(h, h)))
        order = dc.topological_order(loss)
        interior = [node for node in order if node._backward is not None]
        leaves = [node for node in order if node._backward is None and node.requires_grad]

        # oracle: the same reverse pass without releasing interior gradients
        loss.grad = np.ones_like(loss.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                _propagate(node)
        assert all(node.grad is not None for node in interior)
        kept = [leaf.grad.copy() for leaf in leaves]

        for leaf in leaves:
            leaf.grad = None
        dc.backward(loss)
        assert all(node.grad is None for node in interior)
        for leaf, want in zip(leaves, kept):
            np.testing.assert_array_equal(leaf.grad, want)

    @pytest.mark.parametrize("case", sorted(MULTI_OPERAND))
    @settings(max_examples=10, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 16))
    def test_only_requiring_operands_get_gradients(self, case, dtype, seed):
        # backward routes each operand's gradient by slot: the gradient an
        # operand gets does not depend on which other operands take one
        build, shapes = MULTI_OPERAND[case]
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in shapes]

        def grads(needs):
            leaves = [dc.Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, needs)]
            dc.backward(_weighted(build(*leaves)))
            return [leaf.grad for leaf in leaves]

        every = grads([True] * len(shapes))
        for needs in itertools.product([False, True], repeat=len(shapes)):
            for got, want, need in zip(grads(needs), every, needs):
                if need:
                    assert np.array_equal(got, want)
                else:
                    assert got is None

    def test_gradient_shared_by_two_parents_stays_unmodified(self):
        # add hands the same upstream array to a and b; a then takes a second
        # contribution from its other consumer, which must not change b's
        x = dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = dc.Tensor(np.array([0.5, 0.25]), requires_grad=True)
        a = dc.mul(x, 2.0)
        dc.backward(dc.sum(dc.add(dc.add(a, b), dc.mul(a, 3.0))))
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(x.grad, [8.0, 8.0])

    def test_no_grad_builds_no_graph(self):
        w = dc.Tensor(np.ones((2, 2)), requires_grad=True)
        with dc.no_grad():
            out = dc.mul(w, 2.0)
        assert out._backward is None and not out.requires_grad


class TestOptimizer:
    def test_zero_gradient_keeps_params(self):
        store = dc.ParamStore()
        p = store.add("p", np.array([1.0, 2.0]))
        store.zero_grad()
        dc.optimizer_step(store, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_is_lr_sized(self):
        store = dc.ParamStore()
        p = store.add("p", np.array([1.0]))
        p.grad = np.array([1.0])
        dc.optimizer_step(store, lr=0.1)
        assert abs(p.data[0] - 0.9) < 1e-6  # bias-corrected first update ~ lr

    def test_identical_histories_stay_bit_identical(self):
        def run():
            store = dc.ParamStore()
            p = store.add("p", np.array([0.5, -0.25]))
            rng = np.random.default_rng(8)
            for _ in range(20):
                p.grad = rng.standard_normal(2)
                dc.optimizer_step(store, lr=1e-2)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["float32", "float64"]),
                              st.lists(st.integers(0, 3), max_size=3), st.booleans()),
                    min_size=1, max_size=5),
           st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_flat_step_equals_per_name_oracle(self, specs, steps, seed):
        # the flat buffers give the per-parameter update's bits: shapes of size
        # 0 and 0-d, two dtypes interleaved, parameters whose gradient is None;
        # parameters down to 1e-4 keep a last-bit change of the step visible
        rng = np.random.default_rng(seed)
        store, params, moments = dc.ParamStore(), {}, {}
        for k, (dtype, shape, _) in enumerate(specs):
            scale = 10.0 ** rng.integers(-4, 2)
            params[f"p{k}"] = np.asarray(rng.standard_normal(shape) * scale).astype(dtype)
            store.add(f"p{k}", params[f"p{k}"])
        for t in range(1, steps + 1):
            grads = {name: None if without else
                     np.asarray(rng.standard_normal(shape)).astype(dtype)
                     for name, (dtype, shape, without) in zip(params, specs)}
            for name, g in grads.items():
                store[name].grad = g
            dc.optimizer_step(store, lr=1e-2)
            per_name_adam(params, grads, moments, t, lr=1e-2)
        assert store.step_count == steps
        assert list(store.moments) == list(moments) == store.names()
        for name, want in params.items():
            got = store[name].data
            assert got.dtype == want.dtype and got.shape == np.shape(want)
            np.testing.assert_array_equal(got, want)
            for key in ("m", "v"):
                assert store.moments[name][key].dtype == moments[name][key].dtype
                np.testing.assert_array_equal(store.moments[name][key], moments[name][key])


def _parent_store_recipe():
    """Initial values and four steps' gradients of ``tests/data/parent_store.bin``:
    a float32/float64 store (with a 0-d and a size-0 parameter, and a None
    gradient at the second step) that the per-parameter optimizer stepped
    three times before its ``save_checkpoint`` wrote the file."""
    rng = np.random.default_rng(16)
    init = {"w": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(4),
            "s": np.array(0.5, dtype=np.float32),
            "e": np.zeros((0, 2))}
    grads = [{name: None if (name == "b" and t == 1) else
              rng.standard_normal(a.shape).astype(a.dtype) for name, a in init.items()}
             for t in range(4)]
    return init, grads


class TestParamStore:
    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        store = dc.ParamStore()
        rng = np.random.default_rng(1)
        store.add("a/w", rng.standard_normal((3, 4)).astype(np.float32))
        store.add("a/b", rng.standard_normal(4))
        p = store.add("c", rng.standard_normal((2, 2)).astype(np.float32))
        p.grad = np.ones_like(p.data)
        dc.optimizer_step(store, lr=1e-3)
        other = dc.ParamStore()
        other.add("s", np.array(2.5))
        meta = {"epoch": 3, "config": {"width": 4}}
        dc.save_checkpoint(tmp_path / "ckpt", meta, {"main": store, "other": other})
        assert [f.name for f in tmp_path.iterdir()] == ["ckpt"]
        loaded_meta, stores = dc.load_checkpoint(tmp_path / "ckpt")
        assert loaded_meta == meta
        assert list(stores) == ["main", "other"]
        np.testing.assert_array_equal(stores["other"]["s"].data, 2.5)
        loaded = stores["main"]
        assert loaded.names() == store.names()
        assert loaded.step_count == store.step_count
        for name in store.names():
            np.testing.assert_array_equal(loaded[name].data, store[name].data)
            assert loaded[name].data.dtype == store[name].data.dtype
        for name, bufs in store.moments.items():
            for key in bufs:
                np.testing.assert_array_equal(loaded.moments[name][key], bufs[key])

    def test_duplicate_name_rejected(self):
        store = dc.ParamStore()
        store.add("p", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("p", np.zeros(2))

    def test_forward_reproduces_after_roundtrip(self, tmp_path):
        store = dc.ParamStore()
        rng = np.random.default_rng(4)
        w = store.add("w", rng.standard_normal((5, 3)).astype(np.float32))
        x = rng.standard_normal((2, 5)).astype(np.float32)
        before = matmul(dc.Tensor(x), w).data
        dc.save_checkpoint(tmp_path / "rt", {}, {"s": store})
        _, stores = dc.load_checkpoint(tmp_path / "rt")
        after = matmul(dc.Tensor(x), stores["s"]["w"]).data
        np.testing.assert_array_equal(before, after)

    def _saved(self, tmp_path, seed=1):
        store = dc.ParamStore()
        rng = np.random.default_rng(seed)
        store.add("w", rng.standard_normal((3, 4)).astype(np.float32))
        p = store.add("b", rng.standard_normal(4))
        p.grad = np.ones_like(p.data)
        dc.optimizer_step(store, lr=1e-3)
        dc.save_checkpoint(tmp_path / "ckpt", {"seed": seed}, {"s": store})
        return store

    def test_truncated_blob_rejected(self, tmp_path):
        self._saved(tmp_path)
        path = tmp_path / "ckpt"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match="ckpt"):
            dc.load_checkpoint(path)

    def test_overlong_blob_rejected(self, tmp_path):
        self._saved(tmp_path)
        path = tmp_path / "ckpt"
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(DataError, match="ckpt"):
            dc.load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        before = self._saved(tmp_path)
        data = (tmp_path / "ckpt").read_bytes()
        newer = dc.ParamStore()
        newer.add("w", np.zeros((3, 4), dtype=np.float32))
        newer.add("b", np.zeros(4))

        def crash(*args, **kwargs):
            raise OSError("killed before the commit")

        import nviflab.diffcore.params as params
        monkeypatch.setattr(params.os, "replace", crash)  # dies before its one rename
        with pytest.raises(OSError):
            dc.save_checkpoint(tmp_path / "ckpt", {"seed": 2}, {"s": newer})
        monkeypatch.undo()
        assert (tmp_path / "ckpt").read_bytes() == data
        meta, stores = dc.load_checkpoint(tmp_path / "ckpt")
        loaded = stores["s"]
        assert meta == {"seed": 1}
        assert loaded.step_count == before.step_count
        for name in before.names():
            np.testing.assert_array_equal(loaded[name].data, before[name].data)

    @pytest.mark.parametrize("content", [
        b"", b"not a header\n", b"\xff\xfe\n\0\0", b'["meta"]\n', b'{"meta": {}}\n'])
    def test_unreadable_header_rejected(self, tmp_path, content):
        path = tmp_path / "garbage"
        path.write_bytes(content)
        with pytest.raises(DataError, match="garbage"):
            dc.load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        self._saved(tmp_path)
        path = tmp_path / "ckpt"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(DataError, match="ckpt: unreadable checkpoint header"):
            dc.load_checkpoint(path)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["float32", "float64"]),
                              st.lists(st.integers(0, 3), max_size=3), st.booleans()),
                    max_size=5),
           st.integers(0, 10 ** 6))
    def test_roundtrip_over_random_shapes_and_dtypes(self, specs, step_count):
        # moments come from an optimizer step on random gradients (None where
        # the flag is off) whenever some parameter has one; a store that never
        # stepped saves none
        rng = np.random.default_rng(step_count)
        store = dc.ParamStore()
        store.step_count = step_count
        for k, (dtype, shape, with_grad) in enumerate(specs):
            p = store.add(f"p{k}", rng.standard_normal(shape).astype(dtype))
            if with_grad:
                p.grad = rng.standard_normal(shape).astype(dtype)
        if any(with_grad for *_, with_grad in specs):
            dc.optimizer_step(store, lr=1e-2)
        with tempfile.TemporaryDirectory() as tmp:
            dc.save_checkpoint(Path(tmp) / "ckpt", {"k": len(specs)},
                               {"s": store, "e": dc.ParamStore()})
            meta, stores = dc.load_checkpoint(Path(tmp) / "ckpt")
        loaded = stores["s"]
        assert meta == {"k": len(specs)} and stores["e"].names() == []
        assert loaded.names() == store.names() and loaded.step_count == store.step_count
        for name in store.names():
            assert loaded[name].data.dtype == store[name].data.dtype
            assert loaded[name].data.shape == store[name].data.shape
            np.testing.assert_array_equal(loaded[name].data, store[name].data)
        assert list(loaded.moments) == list(store.moments)
        for name, bufs in store.moments.items():
            for key, arr in bufs.items():
                assert loaded.moments[name][key].dtype == arr.dtype
                np.testing.assert_array_equal(loaded.moments[name][key], arr)

    @staticmethod
    def _write_raw(path, arrays: dict[str, np.ndarray]):
        """A checkpoint of one store ``s`` holding exactly ``arrays`` (table
        name -> array), written by hand in the file format."""
        table = [{"name": n, "shape": list(a.shape), "dtype": str(a.dtype)}
                 for n, a in arrays.items()]
        header = {"meta": {}, "stores": {"s": {"step_count": 1, "arrays": table}}}
        path.write_bytes(json.dumps(header).encode() + b"\n" +
                         b"".join(a.tobytes() for a in arrays.values()))

    @pytest.mark.parametrize("moments, wrong", [
        ({"moment/m/a": np.zeros(2), "moment/v/a": np.zeros(2)},
         "['b']"),
        ({"moment/m/a": np.zeros(2), "moment/m/b": np.zeros(3, np.float32),
          "moment/v/b": np.zeros(3, np.float32)},
         "['a']"),
        ({"moment/m/a": np.zeros(2), "moment/v/a": np.zeros(2),
          "moment/m/b": np.zeros(2, np.float32), "moment/v/b": np.zeros(3, np.float32)},
         "['b']"),
        ({"moment/m/a": np.zeros(2), "moment/v/a": np.zeros(2),
          "moment/m/b": np.zeros(3, np.float32), "moment/v/b": np.zeros(3, np.float32),
          "moment/m/c": np.zeros(1), "moment/v/c": np.zeros(1)},
         "['c']"),
    ], ids=["b-missing", "a-without-v", "b-misshapen", "c-unknown"])
    def test_partial_moment_table_rejected(self, tmp_path, moments, wrong):
        # the optimizer sets every parameter's moments at once, so a table
        # that covers some of them is a damaged or foreign file
        path = tmp_path / "partial"
        self._write_raw(path, {"param/a": np.ones(2), "param/b": np.ones(3, np.float32),
                               **moments})
        with pytest.raises(DataError, match=re.escape(
                f"partial: store s has Adam moments, but none or misshapen ones for {wrong}")):
            dc.load_checkpoint(path)

    def test_parent_written_checkpoint_loads_steps_and_resaves(self, tmp_path):
        # the per-parameter optimizer of the earlier layout saved this file;
        # the flat store loads it, steps exactly as that optimizer would, and
        # writes the same bytes back
        fixture = Path(__file__).parent / "data" / "parent_store.bin"
        meta, stores = dc.load_checkpoint(fixture)
        loaded = stores["main"]
        assert meta == {"recipe": "parent_store", "steps": 3}
        init, grads = _parent_store_recipe()
        params = {name: arr.copy() for name, arr in init.items()}
        moments = {}
        for t, step in enumerate(grads[:3], start=1):
            per_name_adam(params, step, moments, t, lr=1e-2)
        assert loaded.names() == list(init) and loaded.step_count == 3
        for name in init:
            assert loaded[name].data.dtype == init[name].dtype
            np.testing.assert_array_equal(loaded[name].data, params[name])
            for key in ("m", "v"):
                np.testing.assert_array_equal(loaded.moments[name][key], moments[name][key])
        dc.save_checkpoint(tmp_path / "again", meta, stores)
        assert (tmp_path / "again").read_bytes() == fixture.read_bytes()
        for name, g in grads[3].items():
            loaded[name].grad = g
        dc.optimizer_step(loaded, lr=1e-2)
        per_name_adam(params, grads[3], moments, 4, lr=1e-2)
        for name in init:
            np.testing.assert_array_equal(loaded[name].data, params[name])
            for key in ("m", "v"):
                np.testing.assert_array_equal(loaded.moments[name][key], moments[name][key])

    def test_missing_path_or_directory_is_not_found(self, tmp_path):
        for path in (tmp_path / "nowhere", tmp_path):
            with pytest.raises(FileNotFoundError, match=str(path)):
                dc.load_checkpoint(path)


class TestMlp:
    def test_names_order_and_draws_match_init_linear(self):
        store = dc.ParamStore()
        dc.init_mlp(store, "m/", [5, 7, 3], np.random.default_rng(0), np.float32,
                    out_scale=0.01)
        assert store.names() == ["m/w1", "m/b1", "m/w2", "m/b2"]
        rng = np.random.default_rng(0)
        w1, b1 = dc.init_linear(rng, 5, 7, np.float32)
        w2, b2 = dc.init_linear(rng, 7, 3, np.float32, scale=0.01)
        for name, arr in zip(store.names(), (w1, b1, w2, b2)):
            np.testing.assert_array_equal(store[name].data, arr)

    def test_relu_between_layers_none_after_last(self):
        store = dc.ParamStore()
        rng = np.random.default_rng(1)
        dc.init_mlp(store, "", [4, 6, 5, 2], rng, np.float64)
        x = rng.standard_normal((3, 4))
        h = x
        for layer in (1, 2, 3):
            h = h @ store[f"w{layer}"].data + store[f"b{layer}"].data
            if layer < 3:
                h = np.maximum(h, 0.0)
        np.testing.assert_allclose(dc.mlp(dc.Tensor(x), store, "").data, h)
