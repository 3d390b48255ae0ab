"""Planned vs interpreted parity for every repro.nn layer (≤1e-9).

Each registered gradcheck case is run twice from the same seed — once
interpreted, once with ``compile_plan`` installed on the layer — and the
forward outputs, loss, and every input/parameter gradient must agree to
1e-9.  Layers the plan does not cover (Linear, Conv1d, …) compile to
nothing and run interpreted in both passes, which pins down that the
plan machinery never perturbs modules outside its catalogue.
"""

import numpy as np
import pytest

from repro.analysis import LAYER_CASES
from repro.nn import BiLSTM, GRU, LSTM, Tensor
from repro.nn import functional as F
from repro.nn.module import Module
from repro.plan import compile_plan

TOL = 1e-9

#: the layer kinds compile_plan actually replaces with executors/fusions.
PLANNABLE = {"LSTM", "BiLSTM", "GRU", "ReviewAttention"}


def _closure_module(fn):
    """Recover the layer a LAYER_CASES closure was built around."""
    for cell in fn.__closure__ or ():
        if isinstance(cell.cell_contents, Module):
            return cell.cell_contents
    raise AssertionError("layer case closure holds no Module")


def _run_case(name, planned):
    rng = np.random.default_rng(0)
    fn, inputs, params = LAYER_CASES[name](rng)
    module = _closure_module(fn)
    plan = None
    if planned:
        try:
            plan = compile_plan(module).install()
        except ValueError:
            plan = None  # nothing plannable in this layer: trivial parity
    try:
        outputs = fn(*inputs)
        if isinstance(outputs, Tensor):
            outputs = (outputs,)
        loss = None
        for k, out in enumerate(outputs):
            # Fixed random projection: a plain sum would hide permuted or
            # sign-flipped elements that happen to cancel.
            w = np.random.default_rng(100 + k).normal(size=out.shape)
            term = F.sum(out * Tensor(w))
            loss = term if loss is None else loss + term
        loss.backward()
    finally:
        if plan is not None:
            plan.uninstall()
    outs = [np.array(o.data, copy=True) for o in outputs]
    grads = [np.array(t.grad, copy=True) for t in [*inputs, *params]]
    return outs, float(loss.data), grads


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_layer_parity(name):
    interp_outs, interp_loss, interp_grads = _run_case(name, planned=False)
    plan_outs, plan_loss, plan_grads = _run_case(name, planned=True)
    assert len(interp_outs) == len(plan_outs)
    for a, b in zip(interp_outs, plan_outs):
        assert np.max(np.abs(a - b)) <= TOL
    assert abs(interp_loss - plan_loss) <= TOL
    assert len(interp_grads) == len(plan_grads)
    for a, b in zip(interp_grads, plan_grads):
        assert np.max(np.abs(a - b)) <= TOL


def test_registry_covers_all_layers():
    # The parity sweep above is only meaningful if it really spans the
    # substrate: 14 layers, including every plannable kind.
    assert len(LAYER_CASES) == 14
    assert PLANNABLE < set(LAYER_CASES)


def _recurrent_parity(build, shape, seed=7, empty_rows=0, x_grad=True):
    """Run a recurrent layer planned and interpreted on larger, ragged
    batches than the gradcheck cases use (varied lengths stress the
    masked carry-forward and the capacity-based buffer pool).

    The first ``empty_rows`` rows are fully masked; ``x_grad=False``
    feeds an input that needs no gradient.  Returns the planned pass's parameter
    grads."""
    B, L, D = shape
    rng = np.random.default_rng(seed)
    layer = build(rng)
    mask = np.zeros((B, L), dtype=bool)
    lengths = rng.integers(1, L + 1, size=B)
    lengths[:empty_rows] = 0
    for row, n in enumerate(lengths):
        mask[row, :n] = True

    results = []
    for planned in (False, True):
        for _, p in layer.named_parameters():
            p.zero_grad()  # grads accumulate across the two passes otherwise
        x = Tensor(
            np.random.default_rng(seed + 1).normal(size=(B, L, D)),
            requires_grad=x_grad,
        )
        plan = compile_plan(layer).install() if planned else None
        try:
            steps, summary = layer(x, mask)
            w1 = np.random.default_rng(2).normal(size=steps.shape)
            w2 = np.random.default_rng(3).normal(size=summary.shape)
            loss = F.sum(steps * Tensor(w1)) + F.sum(summary * Tensor(w2))
            loss.backward()
        finally:
            if plan is not None:
                plan.uninstall()
        grads = {n: np.array(p.grad, copy=True) for n, p in layer.named_parameters()}
        results.append((steps.data.copy(), summary.data.copy(), x.grad, grads))

    (s0, h0, dx0, g0), (s1, h1, dx1, g1) = results
    assert np.max(np.abs(s0 - s1)) <= TOL
    assert np.max(np.abs(h0 - h1)) <= TOL
    if x_grad:
        assert np.max(np.abs(dx0 - dx1)) <= TOL
    else:
        assert dx0 is None and dx1 is None
    assert set(g0) == set(g1)
    for key in g0:
        assert np.max(np.abs(g0[key] - g1[key])) <= TOL, key
    return g1


def test_lstm_forward_large_ragged():
    _recurrent_parity(lambda rng: LSTM(9, 11, rng), (17, 13, 9))


def test_lstm_reverse_large_ragged():
    _recurrent_parity(lambda rng: LSTM(9, 11, rng, reverse=True), (17, 13, 9))


def test_bilstm_large_ragged():
    _recurrent_parity(lambda rng: BiLSTM(8, 10, rng), (19, 12, 8))


def test_bilstm_fully_masked_rows():
    _recurrent_parity(lambda rng: BiLSTM(8, 10, rng), (19, 12, 8), empty_rows=3)


def test_bilstm_input_without_grad():
    build = lambda rng: BiLSTM(8, 10, rng)  # noqa: E731
    with_dx = _recurrent_parity(build, (19, 12, 8))
    without_dx = _recurrent_parity(build, (19, 12, 8), x_grad=False)
    for key in with_dx:
        np.testing.assert_array_equal(without_dx[key], with_dx[key], err_msg=key)


def test_bilstm_production_shape():
    # The review encoder's shape at train-yelp's default config.
    _recurrent_parity(lambda rng: BiLSTM(20, 24, rng), (240, 18, 20))


def test_gru_large_ragged():
    _recurrent_parity(lambda rng: GRU(7, 9, rng), (15, 11, 7))


def _check_pool_reuse(build):
    # Deduplicated review batches vary in size every step; the pool must
    # serve each size as a view of one growing allocation, not a fresh
    # buffer per distinct shape.
    rng = np.random.default_rng(0)
    layer = build(rng)
    plan = compile_plan(layer).install()
    try:
        for batch in (8, 3, 12):
            x = Tensor(rng.normal(size=(batch, 4, 5)), requires_grad=True)
            steps, _ = layer(x)
            F.sum(steps).backward()
        grown = plan.pool.stats()
        for batch in (5, 12, 1):
            x = Tensor(rng.normal(size=(batch, 4, 5)), requires_grad=True)
            steps, _ = layer(x)
            F.sum(steps).backward()
        final = plan.pool.stats()
        # After the largest batch is seen, smaller/repeated batches are
        # pure hits: no new arrays, no new bytes, no new misses.
        assert final["misses"] == grown["misses"]
        assert final["buffers"] == grown["buffers"]
        assert final["bytes"] == grown["bytes"]
        assert final["hits"] > grown["hits"]
    finally:
        plan.uninstall()


def test_pool_reused_across_batch_sizes():
    _check_pool_reuse(lambda rng: LSTM(5, 6, rng))


def test_bilstm_pool_reused_across_batch_sizes():
    _check_pool_reuse(lambda rng: BiLSTM(5, 6, rng))


def test_bilstm_explain_lists_the_pooled_buffers():
    # `plan --explain` prints PlanEntry.buffers as the executor's buffer
    # schedule; after one forward + backward the executor must have
    # pooled exactly the buffers named there, no more and no fewer.
    rng = np.random.default_rng(0)
    layer = BiLSTM(5, 6, rng)
    plan = compile_plan(layer).install()
    try:
        x = Tensor(rng.normal(size=(7, 4, 5)), requires_grad=True)
        steps, summary = layer(x)
        (F.sum(steps) + F.sum(summary)).backward()
    finally:
        plan.uninstall()
    (entry,) = plan.entries
    listed = {n for buf in entry.buffers for n in buf.split()[0].split(",")}
    prefix = f"{entry.path}."
    pooled = {n[len(prefix):] for n in plan.pool.names() if n.startswith(prefix)}
    assert pooled == listed
