import sys
import tracemalloc

import numpy as np
import pytest

from boxlift.errors import DivergedLossError
from boxlift.geometry import wrap_angle
from boxlift.multibin import bin_targets, loss_conf, loss_loc
from boxlift.toy import bin_study, evaluate, gradient_check, make_dataset, train


@pytest.fixture(scope="module")
def small_data():
    return make_dataset(400, 0.05, seed=0)


def test_make_dataset_deterministic_and_wrapped():
    x1, y1 = make_dataset(100, 0.05, seed=3)
    x2, y2 = make_dataset(100, 0.05, seed=3)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert np.all(y1 > -np.pi) and np.all(y1 <= np.pi)
    # features are the angle's cos/sin plus noise
    assert np.allclose(x1, np.stack([np.cos(y1), np.sin(y1)], axis=1), atol=0.3)


def test_training_is_bit_reproducible(small_data):
    m1, h1 = train(small_data, kind="multibin", n_bins=2, epochs=30, seed=5)
    m2, h2 = train(small_data, kind="multibin", n_bins=2, epochs=30, seed=5)
    assert np.array_equal(h1, h2)
    for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p1, p2)


def test_zero_learning_rate_leaves_parameters_at_init(small_data):
    before, _ = train(small_data, kind="multibin", n_bins=2, epochs=1, learning_rate=0.0, seed=9)
    after, _ = train(small_data, kind="multibin", n_bins=2, epochs=50, learning_rate=0.0, seed=9)
    for (_, p1), (_, p2) in zip(before.parameters(), after.parameters()):
        assert np.array_equal(p1, p2)


@pytest.mark.parametrize(
    "kind,bins",
    [("multibin", 2), ("multibin", 4), ("multibin", 8), ("multibin", 9), ("l2_scalar", 1)],
)
def test_gradient_check_at_initialization(kind, bins):
    features, angles = make_dataset(8, 0.05, seed=11)
    model, _ = train(
        (features, angles), kind=kind, n_bins=bins, epochs=1, learning_rate=0.0, seed=2
    )
    assert gradient_check(model, features, angles) < 1e-4


def test_batched_loss_matches_per_sample_loss_functions():
    # the trainer's vectorized loss equals the reference per-sample losses
    features, angles = make_dataset(32, 0.05, seed=13)
    model, _ = train(
        (features, angles), kind="multibin", n_bins=4, epochs=1, learning_rate=0.0, seed=3
    )
    layout = model.layout
    _, out = model.forward(features)
    batch_loss, _ = model.loss_and_grads(features, angles)

    per_sample = []
    for row, theta in zip(out, angles):
        logits, raw = row[:4], row[4:].reshape(4, 2)
        target = int(np.argmin(np.abs(wrap_angle(theta - layout.centers))))
        conf, _ = loss_conf(logits, target)
        loc, _ = loss_loc(layout, raw, theta)
        per_sample.append(conf + model.loc_weight * loc)
    assert batch_loss == pytest.approx(np.mean(per_sample), rel=1e-12)


def test_precomputed_targets_give_the_same_loss_and_gradients(small_data):
    features, angles = small_data
    model, _ = train(small_data, kind="multibin", n_bins=4, epochs=3, seed=1)
    loss, grads = model.loss_and_grads(features, angles)
    again, again_grads = model.loss_and_grads(features, bin_targets(model.layout, angles))
    assert loss == again
    assert all(np.array_equal(grads[name], again_grads[name]) for name in grads)


@pytest.mark.parametrize("bins", [1, 2, 4, 8, 9])
def test_loss_and_grads_match_a_row_major_reference(bins):
    features, angles = make_dataset(300, 0.05, seed=17)
    kind = "l2_scalar" if bins == 1 else "multibin"
    model, _ = train((features, angles), kind=kind, n_bins=bins, epochs=3, seed=8)
    batch, n, w = len(features), bins, model.loc_weight

    # forward, the two losses and backprop, all on (B, ·) arrays
    hidden = np.tanh(features @ model.w1 + model.b1)
    out = hidden @ model.w2 + model.b2
    if kind == "l2_scalar":
        diff = out[:, 0] - angles
        loss = np.mean(diff**2)
        d_out = 2.0 * diff[:, None] / batch
    else:
        conf, d_logits = loss_conf(out[:, :n].copy(), bin_targets(model.layout, angles).target_bin)
        loc, d_raw = loss_loc(model.layout, out[:, n:].reshape(batch, n, 2).copy(), angles)
        loss = np.mean(conf + w * loc)
        d_out = np.concatenate([d_logits, w * d_raw.reshape(batch, 2 * n)], axis=1) / batch
    d_pre = (d_out @ model.w2.T) * (1.0 - hidden**2)
    expected = {"w1": features.T @ d_pre, "b1": d_pre.sum(axis=0),
                "w2": hidden.T @ d_out, "b2": d_out.sum(axis=0)}

    model_hidden, model_out = model.forward(features)
    assert model_hidden.shape == (batch, 32) and model_out.shape == out.shape
    np.testing.assert_allclose(model_hidden, hidden, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model_out, out, rtol=1e-12, atol=1e-12 * np.abs(out).max())
    # views of feature-major arrays: each head output is one contiguous row
    assert model_hidden.T.flags.c_contiguous and model_out.T.flags.c_contiguous
    model_loss, grads = model.loss_and_grads(features, angles)
    assert model_loss == pytest.approx(loss, rel=1e-12)
    for name, grad in grads.items():
        scale = np.abs(expected[name]).max()
        np.testing.assert_allclose(grad, expected[name], rtol=1e-12, atol=1e-12 * scale)


def test_single_bin_backprop_is_the_outer_product_bit_for_bit(small_data):
    features, angles = small_data
    model, _ = train(small_data, kind="l2_scalar", epochs=5, seed=4)
    hidden = model.forward(features)[0].T  # the call below writes d_pre over work's hidden
    work = model._work_arrays(len(features))
    _, grads = model.loss_and_grads(features, angles, work)
    _, d_out, d_hidden = work
    # each entry a single product w2[i] * d_out[j], whatever numpy's matmul would pick
    expected = np.outer(model.w2[:, 0], d_out[0])
    assert np.array_equal(d_hidden, expected)
    d_pre = (1.0 - hidden * hidden) * expected
    assert np.array_equal(grads["w1"], features.T @ d_pre.T)
    assert np.array_equal(grads["b1"], d_pre.sum(axis=1))


@pytest.mark.parametrize("kind,bins", [("l2_scalar", 1), ("multibin", 2), ("multibin", 8)])
def test_work_arrays_change_no_bit_of_loss_or_gradients(small_data, kind, bins):
    features, angles = small_data
    model, _ = train(small_data, kind=kind, n_bins=bins, epochs=5, seed=4)
    loss, grads = model.loss_and_grads(features, angles)
    work = model._work_arrays(len(features))
    for fill in (np.nan, 7.0):  # every entry is written, whatever was there
        for array in work:
            array.fill(fill)
        again, again_grads = model.loss_and_grads(features, angles, work)
        assert again == loss
        assert all(np.array_equal(grads[name], again_grads[name]) for name in grads)
        assert not any(np.shares_memory(g, w) for g in again_grads.values() for w in work)


@pytest.mark.parametrize("kind,bins", [("l2_scalar", 1), ("multibin", 2), ("multibin", 8)])
def test_train_equals_a_loop_over_plain_loss_and_grads(small_data, kind, bins):
    features, angles = small_data
    trained, history = train(small_data, kind=kind, n_bins=bins, epochs=25, seed=6)
    model, _ = train(small_data, kind=kind, n_bins=bins, epochs=0, seed=6)  # the initial model
    losses = []
    for _ in range(25):
        loss, grads = model.loss_and_grads(features, angles)
        losses.append(loss)
        for name, param in model.parameters():
            param -= 0.05 * grads[name]
    assert np.array_equal(history, losses)
    for (_, p1), (_, p2) in zip(trained.parameters(), model.parameters()):
        assert np.array_equal(p1, p2)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_extra_epochs_add_almost_no_page_faults():
    # An epoch that allocates and frees its (n, hidden) arrays makes the heap
    # return their pages and fault them in again: 1 300-1 600 minor faults an
    # epoch at 4 bins on 5 000 samples. Arrays allocated once per run leave
    # the 20 extra epochs of the longer run with none (0-1 measured).
    resource = pytest.importorskip("resource")
    data = make_dataset(5000, 0.05, seed=0)

    def faults(epochs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(data, kind="multibin", n_bins=4, epochs=epochs, seed=0)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(5), faults(5)  # warm-up: the heap grows to hold a run's arrays
    assert faults(25) - faults(5) < 400


def test_eight_bin_training_working_set_stays_small():
    # Three (·, n) work arrays and loss_loc's in-place temporaries peak at
    # 6.93 MiB here; five work arrays and a fresh array per loss_loc
    # temporary peaked at 9.67 MiB (numpy 2.4.6). The bound leaves about
    # 1 MiB for numpy's own small buffers.
    data = make_dataset(5000, 0.05, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train(data, kind="multibin", n_bins=8, epochs=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * 2**20


def test_zero_localization_weight_rejected(small_data):
    with pytest.raises(ValueError, match="weight must be positive"):
        train(small_data, kind="multibin", n_bins=2, epochs=1, loc_weight=0.0)


def test_multibin_beats_scalar_l2_on_shared_data():
    train_set = make_dataset(5000, 0.05, seed=0)
    test_x, test_y = make_dataset(2000, 0.05, seed=1)
    multibin_model, _ = train(train_set, kind="multibin", n_bins=2, seed=0)
    scalar_model, _ = train(train_set, kind="l2_scalar", seed=0)

    med_multibin, os_multibin = evaluate(multibin_model, test_x, test_y)
    med_scalar, os_scalar = evaluate(scalar_model, test_x, test_y)
    # threshold frozen from the pilot run (0.102 at this seed)
    assert med_multibin < 0.15
    assert med_scalar > med_multibin
    assert os_multibin > os_scalar


def test_scalar_l2_fails_near_the_wrap():
    # the scalar regressor's errors concentrate near +-pi
    train_set = make_dataset(5000, 0.05, seed=0)
    test_x, test_y = make_dataset(2000, 0.05, seed=1)
    scalar_model, _ = train(train_set, kind="l2_scalar", seed=0)
    predictions = scalar_model.predict(test_x)
    errors = np.abs(wrap_angle(predictions - test_y))
    near_wrap = np.abs(test_y) > 2.7
    assert np.median(errors[near_wrap]) > 4 * np.median(errors[~near_wrap])


def test_evaluate_contract_with_stubs(small_data):
    features, angles = small_data

    class Perfect:
        def predict(self, x):
            return angles

    class Antipodal:
        def predict(self, x):
            return wrap_angle(angles + np.pi)

    med, os_perfect = evaluate(Perfect(), features, angles)
    assert med == 0.0 and os_perfect == pytest.approx(1.0)
    _, os_antipodal = evaluate(Antipodal(), features, angles)
    assert os_antipodal == pytest.approx(0.0, abs=1e-12)


def test_bin_study_single_bin_never_best():
    rows, histories = bin_study(
        bin_counts=(1, 2, 4), n_train=2000, n_test=1000, epochs=150, seed=0
    )
    os_by_bins = {r.bins: r.mean_os for r in rows}
    assert os_by_bins[1] < os_by_bins[2]
    assert os_by_bins[1] < os_by_bins[4]
    assert rows[0].kind == "l2_scalar" and rows[1].kind == "multibin"
    assert len(histories) == 3 and all(len(h) == 150 for h in histories)


def test_diverged_loss_is_reported():
    data = make_dataset(500, 0.05, seed=0)
    with pytest.raises(DivergedLossError):
        train(data, kind="l2_scalar", epochs=100, learning_rate=1e8, seed=0)


def test_unknown_kind_rejected(small_data):
    with pytest.raises(ValueError):
        train(small_data, kind="svm", epochs=1, seed=0)
