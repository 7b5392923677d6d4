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


@pytest.mark.parametrize("kind,bins", [("multibin", 2), ("multibin", 4), ("l2_scalar", 1)])
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
