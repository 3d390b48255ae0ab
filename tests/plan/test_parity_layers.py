"""Fused vs reference parity for every repro.nn layer (≤1e-9).

Each registered gradcheck case is run twice from the same seed — once
with the layers' reference compositions (``BiLSTM.reference_forward``;
``masked_fill`` → ``softmax`` for the attention), once as the layers run
by default — and the forward outputs, loss, and every input/parameter
gradient must agree to 1e-9.  Layers without a fused form (Linear,
Conv1d, …) run the same code in both passes, which pins down that the
reference switch never perturbs them.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis import LAYER_CASES
from repro.nn import BiLSTM, Tensor
from repro.nn import functional as F

from .conftest import reference_masked_softmax

TOL = 1e-9

#: the layer kinds that run fused by default.
FUSED = {"BiLSTM", "ReviewAttention"}


def _run_case(name):
    rng = np.random.default_rng(0)
    fn, inputs, params = LAYER_CASES[name](rng)
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
    outs = [np.array(o.data, copy=True) for o in outputs]
    grads = [np.array(t.grad, copy=True) for t in [*inputs, *params]]
    return outs, float(loss.data), grads


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_layer_parity(name, reference_layers):
    with reference_layers():
        ref_outs, ref_loss, ref_grads = _run_case(name)
    outs, loss, grads = _run_case(name)
    assert len(ref_outs) == len(outs)
    for a, b in zip(ref_outs, outs):
        assert np.max(np.abs(a - b)) <= TOL
    assert abs(ref_loss - loss) <= TOL
    assert len(ref_grads) == len(grads)
    for a, b in zip(ref_grads, grads):
        assert np.max(np.abs(a - b)) <= TOL


def test_registry_covers_all_layers():
    # The parity sweep above is only meaningful if it really spans the
    # substrate: 12 layers, including every fused kind.
    assert len(LAYER_CASES) == 12
    assert FUSED < set(LAYER_CASES)


def test_masked_softmax_matches_two_op_reference():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(6, 9))
    mask = rng.random((6, 9)) < 0.4
    mask[:, 0] = False  # every row keeps one slot
    g = rng.normal(size=(6, 9))
    results = []
    for fn in (reference_masked_softmax, F.masked_softmax):
        x = Tensor(scores, requires_grad=True)
        out = fn(x, mask)
        out.backward(g)
        results.append((out.data, x.grad))
    (v0, g0), (v1, g1) = results
    np.testing.assert_array_equal(v0, v1)
    assert np.max(np.abs(g0 - g1)) <= TOL
    assert (g1[mask] == 0.0).all()


def _ragged_mask(rng, B, L, empty_rows=0):
    mask = np.zeros((B, L), dtype=bool)
    lengths = rng.integers(1, L + 1, size=B)
    lengths[:empty_rows] = 0
    for row, n in enumerate(lengths):
        mask[row, :n] = True
    return mask


def _bilstm_parity(shape, hidden, seed=7, empty_rows=0, x_grad=True):
    """Run a BiLSTM fused and through ``reference_forward`` on larger,
    ragged batches than the gradcheck case uses (varied lengths stress
    the masked carry-forward).

    The first ``empty_rows`` rows are fully masked; ``x_grad=False``
    feeds an input that needs no gradient.  Compares the summary and
    every gradient; returns the fused pass's parameter grads."""
    B, L, D = shape
    rng = np.random.default_rng(seed)
    layer = BiLSTM(D, hidden, rng)
    mask = _ragged_mask(rng, B, L, empty_rows)

    results = []
    for forward in (layer.reference_forward, layer):
        for _, p in layer.named_parameters():
            p.zero_grad()  # grads accumulate across the two passes otherwise
        x = Tensor(
            np.random.default_rng(seed + 1).normal(size=(B, L, D)),
            requires_grad=x_grad,
        )
        summary = forward(x, mask)
        w = np.random.default_rng(3).normal(size=summary.shape)
        F.sum(summary * Tensor(w)).backward()
        grads = {n: np.array(p.grad, copy=True) for n, p in layer.named_parameters()}
        results.append((summary.data.copy(), x.grad, grads))

    (h0, dx0, g0), (h1, dx1, g1) = results
    assert np.max(np.abs(h0 - h1)) <= TOL
    if x_grad:
        assert np.max(np.abs(dx0 - dx1)) <= TOL
    else:
        assert dx0 is None and dx1 is None
    assert set(g0) == set(g1)
    for key in g0:
        assert np.max(np.abs(g0[key] - g1[key])) <= TOL, key
    return g1


def test_bilstm_large_ragged():
    _bilstm_parity((19, 12, 8), hidden=10)


def test_bilstm_fully_masked_rows():
    _bilstm_parity((19, 12, 8), hidden=10, empty_rows=3)


def test_bilstm_input_without_grad():
    with_dx = _bilstm_parity((19, 12, 8), hidden=10)
    without_dx = _bilstm_parity((19, 12, 8), hidden=10, x_grad=False)
    for key in with_dx:
        np.testing.assert_array_equal(without_dx[key], with_dx[key], err_msg=key)


def test_bilstm_production_shape():
    # The review encoder's shape at train-yelp's default config.
    _bilstm_parity((240, 18, 20), hidden=24)


#: The review encoder's shape at train-yelp's default config.
B, L, D, H = 240, 18, 20, 24


def _production_call(layer, x, mask):
    F.sum(layer(x, mask)).backward()


def test_bilstm_call_frees_its_scratch():
    # Scratch belongs to one call: once backward has run and the output
    # is dropped, nothing of the ~16 MB the first call on a fresh layer
    # used stays allocated.
    rng = np.random.default_rng(0)
    layer = BiLSTM(D, H, rng)
    x = Tensor(rng.normal(size=(B, L, D)))
    mask = _ragged_mask(rng, B, L)
    tracemalloc.start()
    try:
        # The call replaces these with same-size sums.
        for p in layer.parameters():
            p.grad = np.zeros_like(p.data)
        before = tracemalloc.get_traced_memory()[0]
        _production_call(layer, x, mask)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before > 10_000_000  # the call really allocated its scratch
    assert abs(after - before) <= 64 * 1024


def test_bilstm_explain_scratch_bounds_traced_peak():
    # `plan --explain` lists BiLSTM.describe's scratch; its bytes never
    # exceed the traced peak of one forward + backward at the production
    # shape, so the listing does not overstate the call.
    rng = np.random.default_rng(0)
    layer = BiLSTM(D, H, rng)
    x = Tensor(rng.normal(size=(B, L, D)), requires_grad=True)
    mask = _ragged_mask(rng, B, L)
    described = layer.describe(B, L)
    listed = sum(nbytes for _, _, nbytes, _ in described["scratch"])
    names = [n for row in described["scratch"] for n in row[0].split(",")]
    assert {"z", "c", "acts", "tanh_c", "dxs", "prod", "one_minus"} <= set(names)
    # acts is the only (L, 2, 4H, B) array: backward writes the gate
    # grads over it.
    gate_sized = [row[0] for row in described["scratch"] if row[1] == (L, 2, 4 * H, B)]
    assert gate_sized == ["acts"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _production_call(layer, x, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before >= listed
