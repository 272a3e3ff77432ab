"""Autodiff core: forward values, tape semantics, gradients, grad_check; and
the primitives of the reference chains in `oracle_recurrence` and
`oracle_attention`."""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mmqa.encoders import GruCell
from mmqa.errors import ShapeError, ValidationError
from mmqa.gradcheck import TOLERANCE, _weighted
from mmqa.tensor import (
    ColumnView,
    Tape,
    Tensor,
    grad_check,
    grad_checks,
    logistic,
    take_rows,
    untaped,
)
from oracle_attention import max_pool_rows, mean_rows, relu, softmax_rows, transpose
from oracle_recurrence import (
    add,
    add_row,
    concat_cols,
    concat_rows,
    cross_entropy,
    gru_sequence,
    matmul,
    mul,
    one_minus,
    reference_logistic,
    sigmoid,
    sum_all,
    tanh,
)

matrices = arrays(np.float64, (3, 4),
                  elements=st.floats(-10, 10, allow_nan=False, width=64))


@st.composite
def equal_shaped_pairs(draw):
    """Two finite arrays of one random rank-1 or rank-2 shape."""
    shape = draw(array_shapes(min_dims=1, max_dims=2, max_side=6))
    values = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    return tuple(draw(arrays(np.float64, shape, elements=values)) for _ in range(2))


def T(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def zeros(*shape):
    return Tensor(np.zeros(shape))


class TestTensorBasics:
    def test_float64_everywhere(self):
        assert Tensor([[1, 2]]).data.dtype == np.float64

    def test_item_requires_scalar(self):
        assert T([3.5]).item() == 3.5
        with pytest.raises(ShapeError):
            T([[1.0, 2.0]]).item()


class TestForwardValues:
    def test_matmul_identity(self):
        out = matmul(T([[1, 2], [3, 4]]), T(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_matmul_hand_case(self):
        out = matmul(T([[1, 2], [3, 4]]), T([[5], [6]]))
        np.testing.assert_array_equal(out.data, [[17], [39]])

    def test_matmul_zero_annihilates(self):
        out = matmul(zeros(2, 3), T(np.arange(6).reshape(3, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(zeros(2, 3), zeros(2, 3))

    def test_relu_sign_split(self):
        np.testing.assert_array_equal(relu(T([-1.0, 0.0, 2.0])).data, [0, 0, 2])

    def test_sigmoid_at_zero(self):
        assert logistic(np.array([0.0]))[0] == 0.5

    def test_sigmoid_stable_on_tails(self):
        out = logistic(np.array([-745.0, 745.0]))
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-300 and out[1] == 1.0

    def test_mul_hand_case(self):
        np.testing.assert_array_equal(
            mul(T([1.0, 2, 3]), T([4.0, 0, -1])).data, [4, 0, -3]
        )

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax_rows(T([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_softmax_hand_case(self):
        out = softmax_rows(T([[0.0, np.log(3.0)]])).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_softmax_no_overflow(self):
        out = softmax_rows(T([[1000.0, 1000.0]])).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_mean_rows_cases(self):
        np.testing.assert_array_equal(mean_rows(T([[2.0, 4.0]])).data, [[2, 4]])
        np.testing.assert_array_equal(
            mean_rows(T([[1.0, 1], [3, 5]])).data, [[2, 3]]
        )
        np.testing.assert_array_equal(mean_rows(zeros(3, 2)).data, np.zeros((1, 2)))

    def test_max_pool_cases(self):
        np.testing.assert_array_equal(max_pool_rows(T([[1.0, 4], [3, 2]])).data, [[3, 4]])
        np.testing.assert_array_equal(max_pool_rows(T([[7.0, 8]])).data, [[7, 8]])

    def test_max_pool_tie_value_and_gradient_routing(self):
        m = T([[2.0, 0.0], [2.0, 1.0]])
        with Tape() as tape:
            tape.watch(m)
            out = max_pool_rows(m)
            np.testing.assert_array_equal(out.data, [[2, 1]])
            g = tape.backward(sum_all(out)).wrt(m)
        np.testing.assert_array_equal(g, [[1, 0], [0, 1]])

    def test_cross_entropy_near_perfect(self):
        logits = T(np.eye(3) * 50.0)
        assert cross_entropy(logits, [0, 1, 2]).item() < 1e-6

    def test_cross_entropy_uniform_is_log_vocab(self):
        assert cross_entropy(zeros(1, 4), [2]).item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_averages_steps(self):
        logits = T([[2.0, 0.0], [0.0, 3.0]])
        single0 = cross_entropy(T([[2.0, 0.0]]), [0]).item()
        single1 = cross_entropy(T([[0.0, 3.0]]), [1]).item()
        both = cross_entropy(logits, [0, 1]).item()
        assert both == pytest.approx((single0 + single1) / 2.0)

    def test_cross_entropy_bad_target(self):
        with pytest.raises(ValidationError):
            cross_entropy(zeros(1, 4), [4])

    def test_take_rows_gather_and_bounds(self):
        m = T(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(take_rows(m, [2, 0, 2]).data,
                                      [[4, 5], [0, 1], [4, 5]])
        with pytest.raises(ValidationError):
            take_rows(m, [3])

    def test_concat_cols_slices_recover_inputs(self):
        a, b = T([[1.0, 2]]), T([[3.0, 4, 5]])
        out = concat_cols(a, b)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)

    def test_concat_rows_slices_recover_inputs(self):
        a, b = T([[1.0, 2]]), T([[3.0, 4], [5.0, 6]])
        out = concat_rows(a, b)
        np.testing.assert_array_equal(out.data[:1], a.data)
        np.testing.assert_array_equal(out.data[1:], b.data)
        with pytest.raises(ShapeError):
            concat_rows(a, T([[1.0, 2, 3]]))

    def test_transpose_roundtrip(self):
        m = T(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(transpose(transpose(m)).data, m.data)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(matrices)
    def test_softmax_rows_sum_to_one(self, data):
        rows = softmax_rows(Tensor(data)).data.sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(matrices, st.floats(-5, 5, allow_nan=False))
    def test_softmax_shift_invariance(self, data, c):
        base = softmax_rows(Tensor(data)).data
        shifted = softmax_rows(Tensor(data + c)).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matmul_associative(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(3, 4)))
        c = Tensor(rng.normal(size=(4, 2)))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        np.testing.assert_allclose(left, right, rtol=1e-8, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(matrices)
    def test_max_pool_dominates_mean(self, data):
        m = Tensor(data)
        assert np.all(max_pool_rows(m).data >= mean_rows(m).data - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(-745, 745, allow_nan=False, width=64)))
    def test_logistic_tracks_the_reference_formula(self, x):
        # 0.5 * tanh(0.5 * x) + 0.5 against 1/(1 + exp(-x)): within one ulp
        # of 1, inside [0, 1], monotone, and the same bits in place
        y = logistic(x)
        assert np.abs(y - reference_logistic(x)).max() <= 2.3e-16
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert np.all(np.diff(logistic(np.sort(x))) >= 0.0)
        inplace = x.copy()
        assert logistic(inplace, out=inplace) is inplace
        np.testing.assert_array_equal(inplace, y)

    def test_tape_determinism(self):
        def run():
            x = T([[0.3, -1.2], [0.7, 2.2]])
            w = T([[1.5, -0.4], [0.2, 0.9]])
            with Tape() as tape:
                tape.watch(x)
                tape.watch(w)
                y = sum_all(tanh(matmul(tanh(x), w)))
                grads = tape.backward(y)
                return y.data.copy(), grads.wrt(x).copy(), grads.wrt(w).copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestTape:
    def test_sum_gradient_is_ones(self):
        x = T([[1.0, 2.0], [3.0, 4.0]])
        with Tape() as tape:
            tape.watch(x)
            g = tape.backward(sum_all(x)).wrt(x)
        np.testing.assert_array_equal(g, np.ones((2, 2)))

    def test_quadratic_gradient(self):
        x = T([1.0, 2.0])
        with Tape() as tape:
            tape.watch(x)
            g = tape.backward(sum_all(mul(x, x))).wrt(x)
        np.testing.assert_array_equal(g, [2.0, 4.0])

    def test_branch_and_merge_accumulates(self):
        # y = sum(x*x + 3x) so dy/dx = 2x + 3
        x = T([1.0, -2.0])
        with Tape() as tape:
            tape.watch(x)
            y = sum_all(add(mul(x, x), mul(x, T([3.0, 3.0]))))
            g = tape.backward(y).wrt(x)
        np.testing.assert_allclose(g, [5.0, -1.0])

    def test_unused_leaf_gets_zeros(self):
        x, y = T([1.0]), T([2.0])
        with Tape() as tape:
            tape.watch(x)
            tape.watch(y)
            g = tape.backward(sum_all(x))
        np.testing.assert_array_equal(g.wrt(y), [0.0])

    def test_watching_an_output_is_rejected(self):
        x = T([1.0])
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(ValidationError, match="leaf"):
                tape.watch(y)

    def test_loss_not_on_tape_rejected(self):
        loss = sum_all(T([1.0]))  # built with no tape active
        with Tape() as tape:
            with pytest.raises(ValidationError):
                tape.backward(loss)

    def test_wrt_foreign_tensor_rejected(self):
        x = T([1.0])
        with Tape() as tape:
            tape.watch(x)
            grads = tape.backward(sum_all(x))
        with pytest.raises(ValidationError):
            grads.wrt(T([1.0]))

    def test_non_scalar_loss_rejected(self):
        x = T([[1.0, 2.0]])
        with Tape() as tape:
            tape.watch(x)
            y = mul(x, x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_nested_tapes_record_to_innermost(self):
        x = T([1.0, 1.0])
        with Tape() as outer:
            outer.watch(x)
            before = len(outer)
            with Tape() as inner:
                inner.watch(x)
                g_inner = inner.backward(sum_all(mul(x, x))).wrt(x)
            assert len(outer) == before  # inner work stayed off the outer tape
            g_outer = outer.backward(sum_all(x)).wrt(x)
        np.testing.assert_array_equal(g_inner, [2.0, 2.0])
        np.testing.assert_array_equal(g_outer, [1.0, 1.0])

    def test_inner_tape_between_two_uses_keeps_the_outer_gradient(self):
        # sum(x*x + x) so dy/dx = 2x + 1, although an inner tape watched and
        # used x between the outer tape's two uses of it
        x = T([1.0, 1.0])
        with Tape() as outer:
            outer.watch(x)
            a = mul(x, x)
            with Tape() as inner:
                inner.watch(x)
                g_inner = inner.backward(sum_all(x)).wrt(x)
            g_outer = outer.backward(sum_all(add(a, x))).wrt(x)
        np.testing.assert_array_equal(g_inner, [1.0, 1.0])
        np.testing.assert_array_equal(g_outer, [3.0, 3.0])

    def test_tapes_are_thread_local(self):
        errors = []

        def worker():
            try:
                x = T([3.0])
                with Tape() as tape:
                    tape.watch(x)
                    g = tape.backward(sum_all(mul(x, x))).wrt(x)
                np.testing.assert_allclose(g, [6.0])
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        x = T([1.0])
        with Tape() as tape:
            tape.watch(x)
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            g = tape.backward(sum_all(x)).wrt(x)
        assert not errors
        np.testing.assert_array_equal(g, [1.0])

    def test_threads_taping_one_tensor_each_get_their_gradient(self):
        # the second thread tapes x while the first is between its two uses
        x = T([1.0, 1.0])
        barrier = threading.Barrier(2, timeout=10)
        results, errors = {}, []

        def first():
            try:
                with Tape() as tape:
                    tape.watch(x)
                    a = mul(x, x)
                    barrier.wait()  # let the second thread tape x
                    barrier.wait()  # ...and wait until it has
                    results["first"] = tape.backward(sum_all(add(a, x))).wrt(x)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        def second():
            try:
                barrier.wait()
                with Tape() as tape:
                    tape.watch(x)
                    y = sum_all(mul(x, T([5.0, 5.0])))
                    barrier.wait()
                    results["second"] = tape.backward(y).wrt(x)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        np.testing.assert_array_equal(results["first"], [3.0, 3.0])
        np.testing.assert_array_equal(results["second"], [5.0, 5.0])

    def test_wrt_returns_a_given_sink(self):
        x = T([[1.0, 2.0]])
        sink = np.full((1, 2), 10.0)
        with Tape({x: sink}) as tape:
            g = tape.backward(sum_all(mul(x, x))).wrt(x)
        assert g is sink
        np.testing.assert_array_equal(sink, [[12.0, 14.0]])

    def test_watch_keeps_a_given_sink(self):
        x = T([[1.0, 2.0]])
        sink = np.full((1, 2), 10.0)
        tape = Tape({x: sink})
        tape.watch(x)
        assert tape.sinks[x] is sink and tape.wrt(x) is sink

    def test_wrt_of_a_view_reads_its_columns_of_the_owners_sink(self):
        # the training layout: only the owner has a sink, the view none
        owner = T(np.arange(8.0).reshape(2, 4))
        view = ColumnView(owner, 1, 3)
        sink = np.zeros((2, 4))
        with Tape({owner: sink}) as tape:
            tape.backward(sum_all(mul(owner, T([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]))))
        assert view not in tape.sinks
        got = tape.wrt(view)
        assert got.__array_interface__ == sink[:, 1:3].__array_interface__
        np.testing.assert_array_equal(got, [[2, 3], [6, 7]])
        tape.watch(view)
        assert tape.sinks[owner] is sink and np.shares_memory(tape.wrt(view), sink)

    @pytest.mark.parametrize("kind", ["dense", "row-sparse"])
    def test_a_view_parent_adds_into_its_columns_of_the_owners_sink(self, kind):
        # a record that lists a view, under the training layout (only the
        # owner keyed) and after watching the view: both give its columns
        weights = np.arange(1.0, 7.0).reshape(3, 2)
        record = {"dense": lambda view: _weighted(view, weights),
                  "row-sparse": lambda view: _weighted(take_rows(view, [2, 0, 2]), weights)}
        sinks = []
        for watched in (False, True):
            owner = T(np.arange(12.0).reshape(3, 4))
            view = ColumnView(owner, 1, 3)
            sink = np.full((3, 4), 0.5)
            with Tape({owner: sink}) as tape:
                if watched:
                    tape.watch(view)
                tape.backward(record[kind](view))
            assert list(tape.sinks) == [owner] and tape.sinks[owner] is sink
            sinks.append(sink)
        grad = weights if kind == "dense" else [weights[1], [0.0, 0.0], weights[0] + weights[2]]
        expected = np.full((3, 4), 0.5)
        expected[:, 1:3] += grad
        np.testing.assert_array_equal(sinks[0], expected)
        assert sinks[0].tobytes() == sinks[1].tobytes()

    def test_untaped_block_records_nothing(self):
        x = T([[1.0, 2.0]])
        with Tape() as tape:
            tape.watch(x)
            before = len(tape)
            with untaped():
                y = mul(x, x)
            assert len(tape) == before
            g = tape.backward(sum_all(mul(x, y))).wrt(x)
        np.testing.assert_array_equal(g, [[1.0, 4.0]])  # y is a constant here

    def test_finished_tape_is_freed_without_the_cycle_collector(self):
        # records refer to tensors and tensors to nothing on the tape, so a
        # tape and its records form no cycle
        x = T([[1.0, 2.0]])
        gc.disable()
        try:
            with Tape() as tape:
                tape.watch(x)
                grads = tape.backward(sum_all(mul(x, x)))
            alive = weakref.ref(tape)
            del tape, grads
            assert alive() is None
        finally:
            gc.enable()

    def test_shared_contributions_are_not_summed_in_place(self):
        # add hands one gradient array to both parents and the first
        # contribution is stored as is: a's later contribution from mul must
        # not be summed into the array b holds too
        a, b, w = T([[1.0, 2.0]]), T([[3.0, 4.0]]), T([[5.0, 7.0]])
        with Tape() as tape:
            for x in (a, b, w):
                tape.watch(x)
            u = mul(a, w)
            loss = sum_all(add(add(a, b), u))
            grads = tape.backward(loss)
        np.testing.assert_array_equal(grads.wrt(a), [[6.0, 8.0]])
        np.testing.assert_array_equal(grads.wrt(b), [[1.0, 1.0]])
        np.testing.assert_array_equal(grads.wrt(w), [[1.0, 2.0]])


class TestGradCheck:
    def test_linear_function_is_exact(self):
        assert grad_check(sum_all, T([[1.0, -2.0], [0.5, 3.0]])) < 1e-10

    def test_strided_view_is_perturbed_in_place(self):
        # a column block of a larger array, as a GRU cell's named weights
        # are: a reshape of it would be a copy, and a perturbation of the
        # copy would never reach the function
        base = np.random.default_rng(8).normal(size=(3, 4))
        before = base.copy()
        view = Tensor(base[:, 1:3])
        assert view.data.base is base and not view.data.flags.c_contiguous
        square = lambda x: sum_all(mul(x, x))
        error = grad_check(square, view)
        assert error == grad_check(square, Tensor(base[:, 1:3].copy()))
        assert error < 1e-8
        assert base.tobytes() == before.tobytes()

    def test_sigmoid_chain(self):
        f = lambda x: sum_all(sigmoid(x))
        assert grad_check(f, T([0.3, -1.2])) < 1e-6

    def test_deep_composition(self):
        w = T(np.linspace(-0.5, 0.8, 12).reshape(3, 4))

        def f(x):
            h = tanh(matmul(x, w))
            return cross_entropy(add_row(h, T([[0.1, -0.2, 0.3, 0.0]])), [1, 3])

        assert grad_check(f, T([[0.4, -0.7, 0.2], [1.1, 0.3, -0.9]])) < 1e-7

    def test_one_minus_path(self):
        b = T([[0.4, -0.6]])
        f = lambda x: sum_all(mul(one_minus(x), add(x, b)))
        assert grad_check(f, T([[0.9, 0.1]])) < 1e-8

    @pytest.mark.parametrize("case", [
        "mul/left", "mul/right", "sum_all", "add/left", "add/right", "sigmoid", "tanh",
        "one_minus", "relu", "transpose", "softmax_rows", "mean_rows", "max_pool_rows",
        "concat_rows", "matmul/left", "matmul/right", "add_row/matrix", "add_row/row",
        "concat_cols", "cross_entropy",
        *(f"gru_sequence/{name}" for name in ("seq", "wz", "wr", "wh", "uz", "ur", "uh",
                                              "bz", "br", "bh", "h0"))])
    def test_oracle_primitives_match_finite_differences(self, case):
        # the reference chains' own primitives, on the inputs that
        # `primitive_checks` gives its elementwise cases; relu sees |x| >= 0.2
        # and max pooling well-spread rows, so no branch flips at +/-eps
        rng = np.random.default_rng(7)
        a, b = T(rng.normal(0.0, 1.0, size=(3, 4))), T(rng.normal(0.0, 1.0, size=(3, 4)))
        row = T(rng.normal(0.0, 1.0, size=(1, 4)))
        kinked = T(rng.uniform(0.2, 1.0, size=(3, 4))
                   * np.where(rng.random((3, 4)) < 0.5, -1.0, 1.0))
        spread = T(np.arange(12.0).reshape(3, 4) * 0.37 + rng.normal(0.0, 0.01, size=(3, 4)))
        w, logits = T(rng.normal(0.0, 1.0, size=(4, 5))), T(rng.normal(0.0, 1.0, size=(3, 5)))
        # the fused GRU record from a given state, with N(0, 0.5^2) weights
        cell = GruCell.create(rng, 3, 2)
        for p in cell.parameters().values():
            p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
        seq, h0, weights = T(rng.normal(size=(4, 3))), T(rng.normal(size=(1, 2))), \
            T(rng.normal(size=(4, 2)))
        sequence = lambda _x: sum_all(mul(gru_sequence(cell, seq, h0), weights))
        f, x = {
            "mul/left": (lambda x: sum_all(mul(x, b)), a),
            "mul/right": (lambda x: sum_all(mul(a, x)), b),
            "sum_all": (sum_all, a),
            "add/left": (lambda x: sum_all(add(x, b)), a),
            "add/right": (lambda x: sum_all(add(a, x)), b),
            "sigmoid": (lambda x: sum_all(mul(sigmoid(x), b)), a),
            "tanh": (lambda x: sum_all(mul(tanh(x), b)), a),
            "one_minus": (lambda x: sum_all(mul(one_minus(x), b)), a),
            "relu": (lambda x: sum_all(mul(relu(x), b)), kinked),
            "transpose": (lambda x: sum_all(matmul(transpose(x), b)), a),
            "softmax_rows": (lambda x: sum_all(mul(softmax_rows(x), b)), a),
            "mean_rows": (lambda x: sum_all(mul(mean_rows(x), row)), a),
            "max_pool_rows": (lambda x: sum_all(mul(max_pool_rows(x), row)), spread),
            "concat_rows": (lambda x: sum_all(mul(concat_rows(x, b), concat_rows(b, a))), a),
            "matmul/left": (lambda x: sum_all(matmul(x, w)), a),
            "matmul/right": (lambda x: sum_all(matmul(a, x)), w),
            "add_row/matrix": (lambda x: sum_all(mul(add_row(x, row), b)), a),
            "add_row/row": (lambda x: sum_all(mul(add_row(a, x), b)), row),
            "concat_cols": (lambda x: sum_all(mul(concat_cols(x, b), concat_cols(b, a))), a),
            "cross_entropy": (lambda x: cross_entropy(x, [0, 2, 4]), logits),
            **{f"gru_sequence/{name}": (sequence, x)
               for name, x in {"seq": seq, **cell.parameters(), "h0": h0}.items()},
        }[case]
        assert grad_check(f, x) < TOLERANCE

    @settings(max_examples=60, deadline=None)
    @given(equal_shaped_pairs())
    def test_weighted_gives_the_bits_of_the_product_sum(self, pair):
        # `primitive_checks` checks each kernel through `_weighted`, which
        # must keep the value and gradient of the chain it replaced
        data, w = pair
        results = []
        for loss in (lambda x: _weighted(x, w), lambda x: sum_all(mul(x, Tensor(w)))):
            x = Tensor(data)
            with Tape() as tape:
                tape.watch(x)
                y = loss(x)
                results.append((y.data.tobytes(), tape.backward(y).wrt(x).tobytes()))
        assert results[0] == results[1]

    def test_shared_pass_gives_each_inputs_own_check(self):
        # one reverse pass for several leaves of one function gives each the
        # error of a check that watches it alone
        rng = np.random.default_rng(5)
        a, b, w = T(rng.normal(size=(2, 3))), T(rng.normal(size=(2, 3))), T(rng.normal(size=(3, 2)))
        f = lambda: sum_all(tanh(matmul(mul(a, b), w)))
        assert grad_checks(f, [a, b, w]) == [grad_check(lambda _x: f(), x) for x in (a, b, w)]

    def test_eps_range_enforced(self):
        x = T([1.0])
        with pytest.raises(ValidationError):
            grad_check(sum_all, x, eps=1e-7)
        with pytest.raises(ValidationError):
            grad_check(sum_all, x, eps=1e-2)

    def test_non_scalar_f_rejected(self):
        with pytest.raises(ShapeError):
            grad_check(lambda x: mul(x, x), T([[1.0, 2.0]]))

    def test_restores_input_after_perturbation(self):
        x = T([[0.25, -0.75]])
        snapshot = x.data.copy()
        grad_check(lambda t: sum_all(mul(t, t)), x)
        assert np.array_equal(x.data, snapshot)
