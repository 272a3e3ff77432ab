"""The GRU cell, bidirectional encoding, and both attention mechanisms."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle_attention as attention
import oracle_recurrence as oracle
from conftest import FEATURE_WIDTHS, attach_random_features, corpus_vocab, overfit_dialogs
from mmqa.encoders import (
    AttentionParams,
    GruCell,
    RecurrentLayer,
    SelfAttentionParams,
    gru_run,
    gru_step,
    guided_attend,
    guided_stack,
    rnn_forward,
    rnn_stack,
    self_attend,
)
from mmqa.errors import ShapeError, ValidationError
from mmqa.model import Model
from mmqa.tensor import ColumnView, Tape, Tensor, _emit, grad_check, take_rows
from mmqa.text import embed_sentence
from oracle_recurrence import concat_cols, concat_rows, gru_sequence, mul, sum_all


def T(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def zero_gru(width, hidden):
    z = lambda shape: Tensor(np.zeros(shape))
    return GruCell(z((width, 3 * hidden)), z((1, 3 * hidden)), z((hidden, 2 * hidden)),
                   z((hidden, hidden)))


def step(cell, x, h_prev):
    """`gru_step` of a cell on a 1*in input and a 1*h state, as 1*h."""
    return gru_step((x.data @ cell.w.data + cell.b.data[0])[0], h_prev.data[0], cell.u.data,
                    cell.uh.data)[None, :]


class TestGruStep:
    def test_zero_weights_halve_previous_state(self):
        # z = r = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0,
        # so the interpolation keeps exactly half of h_prev.
        cell = zero_gru(3, 2)
        h = step(cell, T([[1.0, 2.0, 3.0]]), T([[0.8, -0.4]]))
        np.testing.assert_array_equal(h, [[0.4, -0.2]])

    def test_origin_is_fixed_point(self):
        cell = GruCell.create(np.random.default_rng(5), 3, 4)
        h = step(cell, T([[0.0, 0.0, 0.0]]), T([[0.0] * 4]))
        np.testing.assert_array_equal(h, np.zeros((1, 4)))

    def test_state_stays_inside_convex_bound(self):
        # h_t interpolates h_prev with a tanh candidate, so elementwise
        # |h_t| <= max(|h_prev|, 1)
        rng = np.random.default_rng(17)
        cell = GruCell.create(rng, 4, 3)
        for _ in range(25):
            h_prev = rng.uniform(-2.0, 2.0, size=(1, 3))
            x = T(rng.normal(size=(1, 4)))
            h = step(cell, x, T(h_prev))
            assert np.all(np.abs(h) <= np.maximum(np.abs(h_prev), 1.0) + 1e-12)

    def test_create_zero_biases_and_fan_in_bounds(self):
        cell = GruCell.create(np.random.default_rng(0), 9, 4)
        np.testing.assert_array_equal(cell.bz.data, np.zeros((1, 4)))
        assert np.all(np.abs(cell.wz.data) <= 1.0 / 3.0)
        assert np.all(np.abs(cell.uz.data) <= 0.5)

    def test_cell_is_its_four_owners(self):
        rng = np.random.default_rng(8)
        w, b, u, uh = (T(rng.normal(size=shape)) for shape in ((3, 6), (1, 6), (2, 4), (2, 2)))
        cell = GruCell(w, b, u, uh)
        assert all(got is want for got, want in zip(cell.owners(), (w, b, u, uh)))
        named = cell.parameters()
        assert list(named) == ["wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh"]
        assert named["uh"] is uh
        for name, owner, k in (("wz", w, 0), ("wr", w, 1), ("wh", w, 2), ("uz", u, 0),
                               ("ur", u, 1), ("bz", b, 0), ("br", b, 1), ("bh", b, 2)):
            assert np.shares_memory(named[name].data, owner.data), name
            np.testing.assert_array_equal(named[name].data, owner.data[:, 2 * k:2 * k + 2])
        assert (cell.input_width, cell.hidden_width) == (3, 2)

    def test_gradients_flow_through_step(self):
        # `gru_run`'s BPTT over one row against central differences of
        # `gru_step`: the gradients of the input terms, the state and both U
        rng = np.random.default_rng(3)
        h = 2
        xw, h0 = rng.normal(size=3 * h), rng.normal(size=h) * 0.5
        u_zr, u_h = rng.normal(size=(h, 2 * h)), rng.normal(size=(h, h))
        weights = rng.normal(size=h)
        out, back = gru_run(xw[None, :], h0, u_zr, u_h)
        np.testing.assert_array_equal(out[0], gru_step(xw, h0, u_zr, u_h))
        analytic = back(weights[None, :])
        for arg, got in zip((xw, h0, u_zr, u_h), (analytic[0][0], *analytic[1:])):
            numeric = np.zeros(arg.shape)
            for i in np.ndindex(arg.shape):
                orig = arg[i]
                arg[i] = orig + 1e-6
                hi = gru_step(xw, h0, u_zr, u_h) @ weights
                arg[i] = orig - 1e-6
                lo = gru_step(xw, h0, u_zr, u_h) @ weights
                arg[i] = orig
                numeric[i] = (hi - lo) / 2e-6
            np.testing.assert_allclose(got, numeric, rtol=0, atol=1e-8)


def taped_run(fn, cell, seq, h0, weights):
    """Output and the gradients of sum(output * weights) with respect to the
    input, every cell parameter and the initial state, plus the tape size."""
    inputs = [seq, *cell.parameters().values(), h0]
    with Tape() as tape:
        for x in inputs:
            tape.watch(x)
        out = fn(cell, seq, h0)
        grads = tape.backward(sum_all(mul(out, weights)))
    return out.data, [grads.wrt(x) for x in inputs], len(tape)


class TestFusedSequences:
    """The reference's fused GRU record, which the stacked recurrence is held
    to bitwise, against the per-step composition of tape records, and
    `gru_step` and `gru_run` against it."""

    def test_matches_per_step_oracle(self):
        rng = np.random.default_rng(31)
        n, width, hidden = 7, 5, 4
        cell = GruCell.create(rng, width, hidden)
        for p in cell.parameters().values():
            p.data[...] = rng.normal(0.0, 0.6, size=p.shape)
        seq = T(rng.normal(size=(n, width)))
        h0 = T(rng.normal(size=(1, hidden)))
        weights = T(rng.normal(size=(n, hidden)))
        out, grads, nodes = taped_run(gru_sequence, cell, seq, h0, weights)
        want, want_grads, _ = taped_run(oracle.step_sequence, cell, seq, h0, weights)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        for got, expected in zip(grads, want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
        # one record for the fused sequence, then mul and sum_all of the loss
        assert nodes == 3
        # `gru_run` on the same input terms gives the same states and BPTT
        states, back = gru_run(seq.data @ cell.w.data + cell.b.data[0], h0.data[0],
                               cell.u.data, cell.uh.data)
        np.testing.assert_array_equal(states, out)
        da, dh0, du_zr, du_h = back(weights.data)
        np.testing.assert_array_equal(dh0, grads[-1][0])
        np.testing.assert_array_equal(du_zr, np.concatenate(grads[4:6], axis=1))
        np.testing.assert_array_equal(du_h, grads[6])
        np.testing.assert_array_equal(da.sum(axis=0), np.concatenate(grads[7:10], axis=1)[0])

    def test_steps_are_the_one_row_case(self):
        rng = np.random.default_rng(32)
        gru = GruCell.create(rng, 3, 2)
        x, h = T(rng.normal(size=(1, 3))), T(rng.normal(size=(1, 2)))
        np.testing.assert_array_equal(step(gru, x, h), gru_sequence(gru, x, h).data)

    def test_initial_state_shape_checked(self):
        cell = GruCell.create(np.random.default_rng(0), 3, 2)
        with pytest.raises(ShapeError):
            gru_sequence(cell, T(np.zeros((2, 3))), T(np.zeros((1, 3))))
        with pytest.raises(ShapeError):
            gru_sequence(cell, T(np.zeros((2, 4))), T(np.zeros((1, 2))))


class TestRnnForward:
    def test_single_step_forward_half_matches_cell(self):
        rng = np.random.default_rng(2)
        layer = RecurrentLayer.create(rng, 3, 4)
        x = T(rng.normal(size=(1, 3)))
        out = rnn_forward(layer, x)
        zero = Tensor(np.zeros((1, 4)))
        np.testing.assert_array_equal(out.data[:, :4], step(layer.fwd, x, zero))
        np.testing.assert_array_equal(out.data[:, 4:], step(layer.bwd, x, zero))

    def test_output_shapes(self):
        rng = np.random.default_rng(4)
        layer = RecurrentLayer.create(rng, 3, 4)
        seq = T(rng.normal(size=(5, 3)))
        assert rnn_forward(layer, seq).shape == (5, 8)
        assert layer.output_width == 8

    def test_shared_cells_make_reversal_swap_halves(self):
        # with identical forward/backward weights, reversing the input
        # reverses the rows and swaps the direction halves
        rng = np.random.default_rng(6)
        cell = GruCell.create(rng, 3, 2)
        layer = RecurrentLayer(cell, cell)
        seq = rng.normal(size=(4, 3))
        out = rnn_forward(layer, T(seq)).data
        rev = rnn_forward(layer, T(seq[::-1].copy())).data
        swapped = np.concatenate([rev[::-1, 2:], rev[::-1, :2]], axis=1)
        np.testing.assert_array_equal(out, swapped)

    def test_zero_weights_give_zero_states(self):
        layer = RecurrentLayer(zero_gru(3, 2), zero_gru(3, 2))
        out = rnn_forward(layer, T(np.arange(6.0).reshape(2, 3) + 1.0))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        layer = RecurrentLayer.create(rng, 3, 2)
        with pytest.raises(ShapeError):
            rnn_forward(layer, T([1.0, 2.0, 3.0]))  # rank 1
        with pytest.raises(ShapeError):
            rnn_forward(layer, T(np.zeros((2, 4))))  # wrong width
        with pytest.raises(ShapeError):
            rnn_forward(layer, Tensor(np.zeros((0, 3))))  # no rows
        # directions of different input widths: the layer builds, and no
        # input can match both of them
        mixed = RecurrentLayer(GruCell.create(rng, 3, 2), GruCell.create(rng, 4, 2))
        for width in (3, 4):
            with pytest.raises(ShapeError, match="does not match cell input width"):
                rnn_forward(mixed, T(np.ones((2, width))))

    def test_parameter_naming(self):
        layer = RecurrentLayer.create(np.random.default_rng(0), 3, 2)
        names = set(layer.parameters())
        assert "fwd.wz" in names and "bwd.uh" in names and len(names) == 18


def flip_rows(t):
    """The rows of `t` last to first, as one tape record.

    It returns the reversed view, not a copy: numpy's matmul rounds a
    negative-stride operand differently from a contiguous copy of it, and
    `rnn_stack` multiplies the view, so only the view keeps the reference
    bitwise equal to it."""
    return _emit(t.data[::-1], (t,), lambda g: (g[::-1],))


def sequence_rnn_forward(layer, seq):
    """A bidirectional layer as two `gru_sequence` records from zero states,
    the backward one over flipped rows: the reference that the stacked
    recurrence is compared against."""
    zero = lambda: Tensor(np.zeros((1, layer.fwd.hidden_width)))
    forward = gru_sequence(layer.fwd, seq, zero())
    backward = flip_rows(gru_sequence(layer.bwd, flip_rows(seq), zero()))
    return concat_cols(forward, backward)


def stacked_run(fn, items, weights):
    """Output and the gradients of sum(output * weights) with respect to
    every distinct input and layer parameter."""
    leaves = {id(x): x for layer, seq in items for x in (seq, *layer.parameters().values())}
    with Tape() as tape:
        for x in leaves.values():
            tape.watch(x)
        out = fn(items)
        tape.backward(sum_all(mul(out, weights)))
    return out.data, [tape.wrt(x) for x in leaves.values()]


class TestRnnStack:
    """The stacked recurrence against one `gru_sequence` record per direction."""

    # (hidden width, input widths, longest run): the toy model's widths, and
    # the benchmark's hidden width 32 with its input widths; the side-by-side
    # input-term GEMM rounds differently in the two regimes
    shapes = st.one_of(
        st.tuples(st.integers(1, 4), st.lists(st.integers(1, 5), min_size=1, max_size=3),
                  st.just(6)),
        st.tuples(st.just(32), st.lists(st.sampled_from([8, 16, 64]), min_size=1, max_size=3),
                  st.just(24)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=shapes, data=st.data())
    def test_matches_per_item_sequences(self, seed, shape, data):
        hidden, widths, longest = shape
        picks = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, longest)),
                                   min_size=1, max_size=6))
        rng = np.random.default_rng(seed)
        layers = [RecurrentLayer.create(rng, width, hidden) for width in widths]
        for layer in layers:
            for p in layer.parameters().values():
                p.data[...] = rng.normal(0.0, 0.6, size=p.shape)
        items = [(layers[i % len(layers)],
                  T(rng.normal(size=(n, layers[i % len(layers)].fwd.input_width))))
                 for i, n in picks]
        weights = T(rng.normal(size=(sum(n for _, n in picks), 2 * hidden)))
        out, grads = stacked_run(rnn_stack, items, weights)
        reference = lambda its: concat_rows(*(sequence_rnn_forward(*item) for item in its))
        want, want_grads = stacked_run(reference, items, weights)
        np.testing.assert_array_equal(out, want)
        for got, expected in zip(grads, want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        event(f"gradients bitwise equal: "
              f"{all(np.array_equal(g, w) for g, w in zip(grads, want_grads))}")

    def test_packed_rows_hold_each_items_rnn_forward(self):
        rng = np.random.default_rng(41)
        shared, other = RecurrentLayer.create(rng, 3, 2), RecurrentLayer.create(rng, 5, 2)
        items = [(shared, T(rng.normal(size=(n, 3)))) for n in (4, 1, 3)]
        items.append((other, T(rng.normal(size=(2, 5)))))
        packed = rnn_stack(items).data
        assert packed.shape == (10, 4)
        start = 0
        for layer, seq in items:
            np.testing.assert_array_equal(packed[start:start + seq.rows],
                                          sequence_rnn_forward(layer, seq).data)
            start += seq.rows

    def test_one_item_forward_half_is_gru_run(self):
        # the stacked kernel and the decoder's run share one update and one
        # BPTT step: with a gradient on the forward half only, the forward
        # cell's weight gradients are those of `gru_run`'s backward
        rng = np.random.default_rng(44)
        for width, hidden, n in ((3, 2, 5), (16, 4, 7), (64, 32, 24)):
            layer = RecurrentLayer.create(rng, width, hidden)
            seq = T(rng.normal(size=(n, width)))
            cell = layer.fwd
            states, back = gru_run(seq.data @ cell.w.data + cell.b.data[0], np.zeros(hidden),
                                   cell.u.data, cell.uh.data)
            g = rng.normal(size=(n, hidden))
            weights = T(np.concatenate([g, np.zeros((n, hidden))], axis=1))
            owners = (layer.fwd.w, layer.fwd.u, layer.fwd.uh)
            with Tape() as tape:
                for p in owners:
                    tape.watch(p)
                out = rnn_stack([(layer, seq)])
                tape.backward(sum_all(mul(out, weights)))
            np.testing.assert_array_equal(out.data[:, :hidden], states)
            da, _, du_zr, du_h = back(g)
            for p, want in zip(owners, (seq.data.T @ da, du_zr, du_h)):
                np.testing.assert_array_equal(tape.wrt(p), want)

    def test_one_record_for_all_items(self):
        rng = np.random.default_rng(42)
        layer = RecurrentLayer.create(rng, 3, 2)
        items = [(layer, T(rng.normal(size=(n, 3)))) for n in (2, 5)]
        with Tape() as tape:
            packed = rnn_stack(items)
        assert len(tape) == 1 and packed.shape == (7, 4)
        # each run lists its input and its cell's four owners once, last
        # item and direction first
        parents = tape.records[0][1]
        assert len(parents) == 20
        assert parents[0] is items[1][1] and parents[1:5] == layer.bwd.owners()
        assert parents[5] is items[1][1] and parents[6:10] == layer.fwd.owners()
        assert parents[10] is items[0][1] and parents[16:20] == layer.fwd.owners()
        assert parents[1:5] == (layer.bwd.w, layer.bwd.b, layer.bwd.u, layer.bwd.uh)

    def test_watched_view_reads_its_columns_of_the_owners_gradient(self):
        rng = np.random.default_rng(45)
        layer = RecurrentLayer.create(rng, 3, 2)
        for p in layer.parameters().values():
            p.data[...] = rng.normal(0.0, 0.6, size=p.shape)
        seq, weights = T(rng.normal(size=(4, 3))), T(rng.normal(size=(4, 4)))
        named = layer.parameters()
        grads = []
        for fn in (lambda: rnn_stack([(layer, seq)]), lambda: sequence_rnn_forward(layer, seq)):
            with Tape() as tape:
                for p in named.values():
                    tape.watch(p)
                tape.backward(sum_all(mul(fn(), weights)))
            grads.append({name: tape.wrt(p) for name, p in named.items()})
            for p in named.values():
                if isinstance(p, ColumnView):
                    assert np.shares_memory(tape.wrt(p), tape.wrt(p.owner))
                    np.testing.assert_array_equal(tape.wrt(p), tape.wrt(p.owner)[:, p.columns])
            if len(grads) == 1:
                # the stacked record lists the owners; the reference lists the views
                parents = tape.records[0][1]
                assert any(p is layer.fwd.w for p in parents)
                assert not any(p is layer.fwd.wz for p in parents)
        for name in named:
            assert grads[1][name].any(), name
            np.testing.assert_allclose(grads[0][name], grads[1][name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_input_validation(self):
        rng = np.random.default_rng(43)
        layer = RecurrentLayer.create(rng, 3, 2)
        with pytest.raises(ValidationError):
            rnn_stack([])
        with pytest.raises(ShapeError, match="hidden width"):
            rnn_stack([(layer, T(np.ones((2, 3)))),
                       (RecurrentLayer.create(rng, 3, 4), T(np.ones((2, 3))))])
        with pytest.raises(ShapeError, match="input width"):
            rnn_stack([(layer, T(np.ones((2, 3)))), (layer, T(np.ones((2, 4))))])


class TestSelfAttend:
    def test_zero_params_zero_output(self):
        width = 3
        z = lambda shape: Tensor(np.zeros(shape))
        params = SelfAttentionParams(z((width, width)), z((1, width)),
                                     z((width, width)), z((1, width)))
        out = self_attend(params, T(np.random.default_rng(0).normal(size=(4, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_identity_convs_hand_case(self):
        # identity maps on a nonnegative sequence square it under the mask:
        # mean of seq*seq over rows
        eye = Tensor(np.eye(2))
        zero = Tensor(np.zeros((1, 2)))
        params = SelfAttentionParams(eye, zero, eye, zero)
        out = self_attend(params, T([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 10.0]])

    def test_shape_and_nonnegativity(self):
        rng = np.random.default_rng(11)
        params = SelfAttentionParams.create(rng, 5)
        out = self_attend(params, T(rng.normal(size=(7, 5))))
        assert out.shape == (1, 5)
        assert np.all(out.data >= 0.0)

    def test_gradients_flow(self):
        rng = np.random.default_rng(12)
        params = SelfAttentionParams.create(rng, 3)
        seq = T(rng.normal(size=(3, 3)))
        f = lambda w: sum_all(self_attend(params, seq))
        assert grad_check(f, params.conv1_w) < 1e-5


class TestGuidedAttend:
    def test_zero_guide_averages_positions_uniformly(self):
        # zero bilinear scores make every softmax row uniform, so each
        # question position sees the plain average of the sequence
        params = AttentionParams(
            Tensor(np.zeros((2, 2))),
            Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
        )
        seq = T([[1.0, 0.0], [0.0, 1.0]])
        question = T([[2.0, 0.0], [0.0, 2.0]])
        top = guided_attend(params, seq, question, pooling="max")
        np.testing.assert_allclose(top.data, [[2.5, 2.5]])
        avg = guided_attend(params, seq, question, pooling="average")
        np.testing.assert_allclose(avg.data, [[1.5, 1.5]])

    def test_single_position_sequence(self):
        rng = np.random.default_rng(13)
        params = AttentionParams.create(rng, 3)
        out = guided_attend(params, T(rng.normal(size=(1, 3))),
                            T(rng.normal(size=(1, 3))))
        assert out.shape == (1, 3)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(14)
        params = AttentionParams.create(rng, 4)
        for pooling in ("max", "average"):
            out = guided_attend(params, T(rng.normal(size=(5, 4))),
                                T(rng.normal(size=(2, 4))), pooling)
            assert np.all(out.data >= 0.0)

    def test_width_mismatch_rejected(self):
        params = AttentionParams.create(np.random.default_rng(0), 3)
        with pytest.raises(ShapeError):
            guided_attend(params, T(np.zeros((2, 3)) + 1.0), T(np.ones((1, 4))))

    def test_unknown_pooling_rejected(self):
        params = AttentionParams.create(np.random.default_rng(0), 3)
        with pytest.raises(ValidationError):
            guided_attend(params, T(np.ones((2, 3))), T(np.ones((1, 3))), "sum")

    def test_pooling_modes_differ(self):
        rng = np.random.default_rng(15)
        params = AttentionParams.create(rng, 4)
        seq, q = T(rng.normal(size=(4, 4))), T(rng.normal(size=(2, 4)))
        top = guided_attend(params, seq, q, "max")
        avg = guided_attend(params, seq, q, "average")
        assert not np.array_equal(top.data, avg.data)

    def test_gradients_flow(self):
        rng = np.random.default_rng(16)
        params = AttentionParams.create(rng, 3)
        seq, q = T(rng.normal(size=(2, 3))), T(rng.normal(size=(1, 3)))
        f = lambda w: sum_all(guided_attend(params, seq, q, "average"))
        assert grad_check(f, params.w_guide) < 1e-5


class TestFusedAttention:
    """Each attention is one tape record that agrees bitwise with the chain
    of per-operation records in `oracle_attention`."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_s=st.integers(1, 6), n_q=st.integers(1, 6),
           width=st.integers(1, 5), pooling=st.sampled_from(["max", "average"]))
    def test_matches_composed_chains_bitwise(self, seed, n_s, n_q, width, pooling):
        rng = np.random.default_rng(seed)
        draw = lambda *shape: Tensor(rng.normal(0.0, 0.5, size=shape))
        self_params = SelfAttentionParams(draw(width, width), draw(1, width),
                                          draw(width, width), draw(1, width))
        guide_params = AttentionParams(draw(width, width), draw(2 * width, width))
        seq_rows, question_rows = draw(n_s, width), draw(n_q, width)
        weights = draw(1, 3 * width)
        leaves = [seq_rows, question_rows, *self_params.parameters().values(),
                  *guide_params.parameters().values()]

        def run(self_fn, guided_fn):
            with Tape() as tape:
                for x in leaves:
                    tape.watch(x)
                # interior inputs, as `take_rows` hands them to the history
                # attention; the question feeds all three attentions, so the
                # first guided record adds to gradients the second has begun
                seq = take_rows(seq_rows, range(n_s))
                question = take_rows(question_rows, range(n_q))
                out = concat_cols(self_fn(self_params, question),
                                  guided_fn(guide_params, seq, question, pooling),
                                  guided_fn(guide_params, seq, question, pooling))
                tape.backward(sum_all(mul(out, weights)))
            return out.data, [tape.wrt(x).copy() for x in leaves]

        out, grads = run(self_attend, guided_attend)
        want, want_grads = run(attention.self_attend, attention.guided_attend)
        np.testing.assert_array_equal(out, want)
        for got, expected in zip(grads, want_grads):
            np.testing.assert_array_equal(got, expected)

    def test_one_record_each(self):
        rng = np.random.default_rng(17)
        self_params = SelfAttentionParams.create(rng, 3)
        guide_params = AttentionParams.create(rng, 3)
        seq, question = T(rng.normal(size=(4, 3))), T(rng.normal(size=(2, 3)))
        with Tape() as tape:
            self_attend(self_params, question)
            guided_attend(guide_params, seq, question)
        assert len(tape) == 2
        # a tensor with two contributions is a parent twice, in the order
        # of the composed chain's reverse sweep
        p = self_params
        assert [id(x) for x in tape.records[0][1]] == [id(x) for x in (
            question, p.conv2_b, p.conv2_w, p.conv1_b, p.conv1_w, question)]
        g = guide_params
        assert [id(x) for x in tape.records[1][1]] == [id(x) for x in (
            g.w_out, g.w_guide, question, question, seq, seq)]

    def test_softmax_stays_finite_at_large_scores(self):
        # every score is 1,000: the weights are uniform, as under a zero guide
        seq = T([[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]])
        question = T([[1.0, 0.3], [1.0, -0.4]])
        w_out = T(np.arange(8.0).reshape(4, 2) / 8.0)
        large = AttentionParams(T([[1000.0, 0.0], [0.0, 0.0]]), w_out)
        zero = AttentionParams(T(np.zeros((2, 2))), w_out)
        with Tape() as tape:
            for x in (seq, question, large.w_guide):
                tape.watch(x)
            out = guided_attend(large, seq, question, "average")
            tape.backward(sum_all(out))
        np.testing.assert_array_equal(out.data,
                                      guided_attend(zero, seq, question, "average").data)
        for x in (seq, question, large.w_guide):
            assert np.all(np.isfinite(tape.wrt(x)))

    def test_max_pooling_tie_sends_the_gradient_to_the_first_row(self):
        # equal question rows tie every column of the pooled matrix; under a
        # zero guide the question's gradient comes only through the pooled
        # rows, so it lands on row 0 alone
        params = AttentionParams(T(np.zeros((2, 2))), T(np.vstack([np.eye(2), np.eye(2)])))
        seq = T([[1.0, 2.0], [3.0, 1.0]])
        question = T([[0.5, 1.0], [0.5, 1.0]])
        with Tape() as tape:
            tape.watch(question)
            out = guided_attend(params, seq, question, "max")
            g = tape.backward(sum_all(out)).wrt(question)
        np.testing.assert_array_equal(out.data, [[2.5, 2.5]])
        np.testing.assert_array_equal(g, [[1.0, 1.0], [0.0, 0.0]])


def composed_spans(spans, seq, question, pooling):
    """One `guided_attend` record per span over its `take_rows`, stacked
    back into one matrix: the reference for `guided_stack`."""
    return concat_rows(*(guided_attend(params, take_rows(seq, range(start, stop)),
                                       question, pooling)
                         for params, start, stop in spans))


class TestGuidedStack:
    """Attention over row spans of one matrix in one record, against one
    record per span."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lead=st.integers(0, 2),
           lengths=st.lists(st.integers(1, 5), min_size=1, max_size=5),
           picks=st.lists(st.integers(0, 2), min_size=5, max_size=5),
           n_q=st.integers(1, 6), width=st.integers(1, 5),
           pooling=st.sampled_from(["max", "average"]))
    def test_matches_one_span_calls_bitwise(self, seed, lead, lengths, picks, n_q, width,
                                            pooling):
        rng = np.random.default_rng(seed)
        draw = lambda *shape: Tensor(rng.normal(0.0, 0.5, size=shape))
        pool = [AttentionParams(draw(width, width), draw(2 * width, width)) for _ in range(3)]
        ends = np.cumsum([lead, *lengths]).tolist()
        spans = [(pool[k], start, end) for k, start, end in zip(picks, ends, ends[1:])]
        seq_rows, question_rows = draw(ends[-1] + 1, width), draw(n_q, width)
        weights = draw(len(spans), width)
        leaves = [seq_rows, question_rows,
                  *(w for params in pool for w in params.parameters().values())]

        def run(attend):
            with Tape() as tape:
                for x in leaves:
                    tape.watch(x)
                # interior inputs, as `rnn_stack` and `take_rows` hand them
                # to `Model.encode`'s stacked attention
                seq = take_rows(seq_rows, range(seq_rows.rows))
                question = take_rows(question_rows, range(n_q))
                out = attend(spans, seq, question, pooling)
                tape.backward(sum_all(mul(out, weights)))
            return out.data, [tape.wrt(x).copy() for x in leaves]

        out, grads = run(guided_stack)
        want, want_grads = run(composed_spans)
        np.testing.assert_array_equal(out, want)
        for got, expected in zip(grads, want_grads):
            np.testing.assert_array_equal(got, expected)

    def test_one_record_lists_weights_then_question_then_seq(self):
        rng = np.random.default_rng(44)
        shared, other = AttentionParams.create(rng, 3), AttentionParams.create(rng, 3)
        seq, question = T(rng.normal(size=(6, 3))), T(rng.normal(size=(2, 3)))
        spans = [(shared, 1, 3), (shared, 3, 4), (other, 4, 6)]
        with Tape() as tape:
            out = guided_stack(spans, seq, question)
        assert len(tape) == 1 and out.shape == (3, 3)
        # each span's weights once, last span first, then the question twice
        # per span and the sequence twice, one contribution per product path
        assert [id(x) for x in tape.records[0][1]] == [id(x) for x in (
            other.w_out, other.w_guide, shared.w_out, shared.w_guide,
            shared.w_out, shared.w_guide, *(question,) * 6, seq, seq)]

    def test_rows_outside_every_span_get_no_gradient(self):
        rng = np.random.default_rng(45)
        params = AttentionParams.create(rng, 3)
        seq, question = T(rng.normal(size=(5, 3))), T(rng.normal(size=(2, 3)))
        with Tape() as tape:
            tape.watch(seq)
            tape.backward(sum_all(guided_stack([(params, 1, 3)], seq, question, "average")))
        g = tape.wrt(seq)
        np.testing.assert_array_equal(g[[0, 3, 4]], np.zeros((3, 3)))
        assert np.all(g[1:3] != 0.0)

    def test_input_validation(self):
        rng = np.random.default_rng(46)
        params = AttentionParams.create(rng, 3)
        seq, question = T(np.ones((4, 3))), T(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            guided_stack([], seq, question)
        for start, stop in ((2, 2), (3, 1), (-1, 2), (2, 5)):
            with pytest.raises(ShapeError, match="span"):
                guided_stack([(params, 0, 1), (params, start, stop)], seq, question)
        with pytest.raises(ShapeError, match="width"):
            guided_stack([(params, 0, 4)], seq, T(np.ones((2, 4))))
        with pytest.raises(ValidationError, match="pooling"):
            guided_stack([(params, 0, 4)], seq, question, "sum")


class TestHistoryAndFeatures:
    """The history and feature streams, read from the fused context of
    `Model.encode`: slots flow | rgb | audio | summary | history, 1*D each."""

    @staticmethod
    def model(seed=20, **widths):
        return Model.create(np.random.default_rng(seed), corpus_vocab(overfit_dialogs()),
                            embed_width=8, hidden_width=4, **widths)

    @staticmethod
    def slot(model, context, k):
        d = model.width
        return context.data[:, k * d:(k + 1) * d]

    def test_empty_history_is_zero_vector(self, toy_examples):
        model = self.model()
        example = toy_examples[0]
        example.history = []
        context, _ = model.encode(example)
        np.testing.assert_array_equal(self.slot(model, context, 4), np.zeros((1, 8)))

    def test_matches_manual_composition(self, toy_examples):
        model = self.model(22)
        example = toy_examples[1]
        assert len(example.history) == 1
        embed = lambda tokens: embed_sentence(model.vocab, model.embedding, tokens)
        q = rnn_forward(model.question_rnn, embed(example.question))
        summary_rnn, summary_attn = model.streams["summary"]
        history_rnn, history_attn = model.streams["history"]
        vecs = [guided_attend(summary_attn, rnn_forward(summary_rnn, embed(s)), q)
                for s in (example.summary, *example.history[0])]
        stacked = Tensor(np.concatenate([v.data for v in vecs[1:]], axis=0))
        history = guided_attend(history_attn, rnn_forward(history_rnn, stacked), q)
        context, _ = model.encode(example)
        np.testing.assert_array_equal(self.slot(model, context, 3), vecs[0].data)
        np.testing.assert_array_equal(self.slot(model, context, 4), history.data)

    @staticmethod
    def per_stream_encode(model, example):
        """`Model.encode` as one recurrence record per stream and direction
        and one attention record per stream: the summary, each sentence, the
        present modalities, then the history."""
        embed = lambda tokens: embed_sentence(model.vocab, model.embedding, tokens)
        zero = lambda: Tensor(np.zeros((1, model.width)))

        def stream(name, seq):
            rnn, attn = model.streams[name]
            return guided_attend(attn, sequence_rnn_forward(rnn, seq), q, model.cfg.pooling)

        q = sequence_rnn_forward(model.question_rnn, embed(example.question))
        q_vec = self_attend(model.question_attn, q)
        summary = stream("summary", embed(example.summary))
        sentences = [stream("summary", embed(tokens))
                     for pair in example.history for tokens in pair]
        features = [zero() if getattr(example, m) is None else stream(m, Tensor(getattr(example, m)))
                    for m in ("flow", "rgb", "audio")]
        history = stream("history", concat_rows(*sentences)) if sentences else zero()
        return concat_cols(*features, summary, history), q_vec

    def assert_gradients_match_per_stream_composition(self, model, example):
        rng = np.random.default_rng(9)
        weights = T(rng.normal(size=(1, 6 * model.width)))
        params = model.parameters()

        def gradients(encode):
            with Tape() as tape:
                for p in params.values():
                    tape.watch(p)
                tape.backward(sum_all(mul(concat_cols(*encode(example)), weights)))
            return {name: tape.wrt(p) for name, p in params.items()}

        got = gradients(model.encode)
        want = gradients(lambda ex: self.per_stream_encode(model, ex))
        for name in params:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_gradients_match_per_stream_composition(self, toy_examples):
        # the stacked recurrences and attention add every shared gradient
        # (the summary cell's and attention's, the question states', the
        # embedding rows') in the order of one record per stream and direction
        # with the history attended last, so all of them agree bitwise
        model = self.model(26, **{f"{m}_width": w for m, w in FEATURE_WIDTHS.items()})
        example = toy_examples[2]
        example.history = example.history + toy_examples[3].history
        attach_random_features([example], seed=8, frames=5)
        self.assert_gradients_match_per_stream_composition(model, example)

    def test_history_free_gradients_match_per_stream_composition(self, toy_examples):
        # without a history the reference's stream order is that of a record
        # per stream in the former `Model.encode`, so this also pins the
        # gradients of a history-free example to what they were before the
        # attentions were stacked
        model = self.model(27, **{f"{m}_width": w for m, w in FEATURE_WIDTHS.items()})
        example = toy_examples[2]
        example.history = []
        attach_random_features([example], seed=10, frames=4)
        example.rgb = None
        self.assert_gradients_match_per_stream_composition(model, example)

    def test_history_order_matters(self, toy_examples):
        model = self.model(23)
        example = toy_examples[0]
        other = toy_examples[1].history[0]
        example.history = [example.history[0], other]
        ordered, _ = model.encode(example)
        example.history = [other, example.history[0]]
        shuffled, _ = model.encode(example)
        assert not np.array_equal(self.slot(model, ordered, 4),
                                  self.slot(model, shuffled, 4))
        np.testing.assert_array_equal(ordered.data[:, :32], shuffled.data[:, :32])

    def test_feature_encoders_reduce_each_modality(self, toy_examples):
        model = self.model(24, **{f"{m}_width": w for m, w in FEATURE_WIDTHS.items()})
        example = toy_examples[0]
        for frames in (6, 3, 9):
            attach_random_features([example], seed=frames, frames=frames)
            context, _ = model.encode(example)
            assert context.shape == (1, 5 * model.width)
            for k in range(3):
                assert np.any(self.slot(model, context, k) != 0.0)
        example.rgb = None  # an absent modality takes the zero slot
        context, _ = model.encode(example)
        np.testing.assert_array_equal(self.slot(model, context, 1), np.zeros((1, 8)))
        assert np.any(self.slot(model, context, 2) != 0.0)

    def test_feature_validation(self, toy_examples):
        model = self.model(25, flow_width=5)
        example = toy_examples[0]
        example.flow = np.array([1.0, 2.0])
        with pytest.raises(ValidationError):
            model.encode(example)
        example.flow = np.ones((2, 4))
        with pytest.raises(ShapeError):
            model.encode(example)
