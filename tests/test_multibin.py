import numpy as np
import pytest

from boxlift.errors import ZeroVectorError
from boxlift.geometry import CameraIntrinsics, wrap_angle
from boxlift.multibin import (
    BinLayout,
    MultiBinEncoding,
    _over_bins,
    bin_targets,
    bins_covering,
    decode,
    encode,
    global_to_local,
    local_to_global,
    loss_conf,
    loss_dims,
    loss_loc,
    loss_total_orientation,
    ray_angle,
)


def central_difference(fn, x, step=1e-6):
    """Numeric gradient of scalar fn at x, one entry at a time."""
    x = np.array(x, dtype=float)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        hi = fn(x)
        flat[i] = original - step
        lo = fn(x)
        flat[i] = original
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def assert_gradients_close(analytic, numeric, rtol, atol):
    # atol absorbs the roundoff floor of central differences (~1e-10 here)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# --- layout -----------------------------------------------------------------


def test_layout_centers_uniform():
    layout = BinLayout(4)
    assert np.allclose(layout.centers, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])
    assert layout.coverage_half_width == pytest.approx(1.1 * np.pi / 4)


def test_layout_validation():
    with pytest.raises(ValueError):
        BinLayout(0)
    for flag in (True, np.True_):  # a bool is no bin count, though True == 1
        with pytest.raises(ValueError, match="n_bins must be a positive integer"):
            BinLayout(flag)
    with pytest.raises(ValueError):
        BinLayout(4, 0.9 * np.pi / 4)  # gaps between bins
    with pytest.raises(ValueError):
        BinLayout(4, 2.0 * np.pi / 4)  # a bin covers everything
    BinLayout(1)  # single bin covers the circle
    BinLayout(2, 0.55 * np.pi)


# --- covering ----------------------------------------------------------------


def test_bins_covering_center_hit():
    layout = BinLayout(2, 0.55 * np.pi)  # centers at -pi and 0
    assert list(bins_covering(layout, 0.0)) == [1]
    assert list(bins_covering(layout, np.pi)) == [0]


def test_bins_covering_overlap_region():
    layout = BinLayout(2, 0.55 * np.pi)
    assert list(bins_covering(layout, 0.5 * np.pi)) == [0, 1]
    assert list(bins_covering(layout, -0.5 * np.pi)) == [0, 1]


def test_bins_covering_matches_bruteforce():
    rng = np.random.default_rng(0)
    layout = BinLayout(8)
    for _ in range(300):
        theta = rng.uniform(-np.pi, np.pi)
        brute = [
            i
            for i, c in enumerate(layout.centers)
            if abs(wrap_angle(theta - c)) <= layout.coverage_half_width
        ]
        assert list(bins_covering(layout, theta)) == brute


def test_every_angle_is_covered():
    rng = np.random.default_rng(1)
    for n in range(1, 10):
        layout = BinLayout(n)
        for _ in range(200):
            assert bins_covering(layout, rng.uniform(-np.pi, np.pi)).size >= 1


def test_overlap_region_covered_twice():
    layout = BinLayout(4)
    midpoint = -np.pi + np.pi / 4  # halfway between adjacent centers
    assert bins_covering(layout, midpoint).size == 2


# --- encode / decode ----------------------------------------------------------


def test_encode_exact_center():
    layout = BinLayout(2, 0.55 * np.pi)
    enc = encode(layout, 0.0)
    assert np.allclose(enc.confidences, [0.0, 1.0])
    assert enc.residual_cos[1] == pytest.approx(1.0)
    assert enc.residual_sin[1] == pytest.approx(0.0)


def test_encode_residual_definition():
    layout = BinLayout(2, 0.55 * np.pi)
    theta = layout.centers[1] + 0.1
    enc = encode(layout, theta)
    assert np.arctan2(enc.residual_sin[1], enc.residual_cos[1]) == pytest.approx(0.1)


def test_encode_unit_norm():
    layout = BinLayout(8)
    rng = np.random.default_rng(2)
    enc = encode(layout, rng.uniform(-np.pi, np.pi, size=64))
    norms = np.hypot(enc.residual_cos, enc.residual_sin)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_decode_tie_breaks_to_lower_index():
    layout = BinLayout(4)
    enc = MultiBinEncoding(
        confidences=np.full(4, 0.25),
        residual_cos=np.ones(4),
        residual_sin=np.zeros(4),
    )
    # bin 0 wins the tie; its center -pi normalizes to +pi when wrapped
    assert wrap_angle(decode(layout, enc) - layout.centers[0]) == pytest.approx(0.0)


def test_decode_rejects_encoding_of_another_width():
    layout = BinLayout(4)
    with pytest.raises(ValueError, match="2 bins, layout has 4"):
        decode(layout, MultiBinEncoding([0.0, 1.0], [1.0, 0.5], [0.0, 0.8660254]))
    batch = encode(BinLayout(8), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="8 bins, layout has 4"):
        decode(layout, batch)


@pytest.mark.parametrize("n_bins", [1, 2, 4, 8, 16])
def test_roundtrip_identity(n_bins):
    layout = BinLayout(n_bins)
    rng = np.random.default_rng(100 + n_bins)
    theta = wrap_angle(rng.uniform(-np.pi, np.pi, size=100_000))
    recovered = decode(layout, encode(layout, theta))
    assert np.max(np.abs(wrap_angle(recovered - theta))) < 1e-12


# --- losses -------------------------------------------------------------------


def test_loss_conf_uniform_logits():
    loss, _ = loss_conf(np.zeros(2), 0)
    assert loss == pytest.approx(np.log(2.0))


def test_loss_conf_confident_logit_drives_loss_to_zero():
    losses = [loss_conf(np.array([t, 0.0]), 0)[0] for t in (5.0, 20.0, 80.0)]
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-30


def test_loss_conf_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(2, 9)
        logits = rng.normal(0, 2, size=n)
        target = int(rng.integers(n))
        _, grad = loss_conf(logits, target)
        numeric = central_difference(lambda x: loss_conf(x, target)[0], logits)
        assert_gradients_close(grad, numeric, rtol=1e-6, atol=1e-9)


def test_loss_conf_validation():
    with pytest.raises(ValueError):
        loss_conf(np.array([np.inf, 0.0]), 0)
    with pytest.raises(ValueError):
        loss_conf(np.zeros(3), 5)
    for target in (1.5, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="target bins must be integers"):
            loss_conf(np.zeros(3), target)
    with pytest.raises(ValueError, match="target bins must be integers"):
        loss_conf(np.zeros((2, 4)), np.array([0.0, 3.0]))  # integral, but floats


def test_loss_loc_perfect_prediction():
    layout = BinLayout(2, 0.55 * np.pi)
    theta = 0.5 * np.pi  # covered by both bins
    offsets = theta - layout.centers
    raw = 3.0 * np.stack([np.cos(offsets), np.sin(offsets)], axis=1)
    loss, _ = loss_loc(layout, raw, theta)
    assert loss == pytest.approx(-1.0)


def test_loss_loc_antipodal_prediction():
    layout = BinLayout(2, 0.55 * np.pi)
    theta = 0.0  # covered only by the center-0 bin
    raw = np.array([[1.0, 0.0], [np.cos(np.pi), np.sin(np.pi)]])
    loss, _ = loss_loc(layout, raw, theta)
    assert loss == pytest.approx(1.0)


def test_loss_loc_scaling_invariance():
    layout = BinLayout(4)
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(4, 2))
    theta = 0.7
    base, _ = loss_loc(layout, raw, theta)
    scaled = raw.copy()
    scaled[2] *= 37.5
    again, _ = loss_loc(layout, scaled, theta)
    assert again == pytest.approx(base, rel=1e-12)


def test_loss_loc_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        layout = BinLayout(n)
        raw = rng.normal(0, 1, size=(n, 2))
        if np.any(np.linalg.norm(raw, axis=1) < 1e-3):
            continue
        theta = rng.uniform(-np.pi, np.pi)
        _, grad = loss_loc(layout, raw, theta)
        numeric = central_difference(lambda x: loss_loc(layout, x, theta)[0], raw)
        assert_gradients_close(grad, numeric, rtol=1e-5, atol=1e-9)


def test_loss_loc_minimum_iff_all_covering_bins_decode_to_theta():
    layout = BinLayout(4)
    rng = np.random.default_rng(6)
    theta = rng.uniform(-np.pi, np.pi)
    covering = bins_covering(layout, theta)
    offsets = theta - layout.centers
    raw = np.stack([np.cos(offsets), np.sin(offsets)], axis=1)
    assert loss_loc(layout, raw, theta)[0] == pytest.approx(-1.0)
    # perturb one covering bin: loss must rise above -1
    raw[covering[0]] = [np.cos(offsets[covering[0]] + 0.2), np.sin(offsets[covering[0]] + 0.2)]
    assert loss_loc(layout, raw, theta)[0] > -1.0 + 1e-4


def test_loss_loc_zero_vector_rejected():
    layout = BinLayout(2)
    raw = np.array([[1.0, 0.0], [1e-13, 0.0]])
    with pytest.raises(ZeroVectorError):
        loss_loc(layout, raw, 0.0)


def test_loss_loc_rejects_non_finite_inputs():
    layout = BinLayout(4)
    raw = np.ones((4, 2))
    for theta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="theta"):
            loss_loc(layout, raw, theta)
    bad_raw = raw.copy()
    bad_raw[1, 0] = np.nan
    with pytest.raises(ValueError, match="raw pairs"):
        loss_loc(layout, bad_raw, 0.3)

    batch_raw = np.ones((5, 4, 2))
    theta = np.linspace(-3.0, 3.0, 5)
    theta[2] = np.nan
    with pytest.raises(ValueError, match="theta"):
        loss_loc(layout, batch_raw, theta)
    batch_raw[3, 2, 1] = np.inf
    with pytest.raises(ValueError, match="raw pairs"):
        loss_loc(layout, batch_raw, np.zeros(5))


@pytest.mark.parametrize("n_bins", [2, 4, 8, 9])
def test_losses_do_not_depend_on_memory_layout(n_bins):
    # a head stored feature-major, (3n, B), as the toy model keeps it: its
    # logit rows and interleaved (cos, sin) rows seen as (B, n) and (B, n, 2)
    layout = BinLayout(n_bins)
    rng = np.random.default_rng(60 + n_bins)
    batch = 301
    head = rng.normal(0, 2, size=(3 * n_bins, batch))
    logits, raw = head[:n_bins].T, head[n_bins:].T.reshape(batch, n_bins, 2)
    assert np.shares_memory(raw, head)
    target = rng.integers(n_bins, size=batch)
    theta = rng.uniform(-np.pi, np.pi, size=batch)

    for view, loss in ((logits, lambda x: loss_conf(x, target)),
                       (raw, lambda x: loss_loc(layout, x, theta))):
        value, grad = loss(view)
        copy_value, copy_grad = loss(np.ascontiguousarray(view))
        assert np.array_equal(value, copy_value) and np.array_equal(grad, copy_grad)
        assert grad.strides == view.strides  # the gradient in the input's layout


@pytest.mark.parametrize("n_bins", [1, 2, 3, 4, 7, 8, 9, 16])
def test_batched_losses_equal_per_row_calls(n_bins):
    layout = BinLayout(n_bins)
    rng = np.random.default_rng(40 + n_bins)
    batch = 257
    logits = rng.normal(0, 2, size=(batch, n_bins))
    target = rng.integers(n_bins, size=batch)
    raw = rng.normal(0, 1, size=(batch, n_bins, 2))
    theta = rng.uniform(-np.pi, np.pi, size=batch)

    conf, conf_grad = loss_conf(logits, target)
    loc, loc_grad = loss_loc(layout, raw, theta)
    rows = [(loss_conf(logits[i], target[i]), loss_loc(layout, raw[i], theta[i]))
            for i in range(batch)]
    assert np.array_equal(conf, [c for (c, _), _ in rows])
    assert np.array_equal(conf_grad, [g for (_, g), _ in rows])
    assert np.array_equal(loc, [v for _, (v, _) in rows])
    assert np.array_equal(loc_grad, [g for _, (_, g) in rows])

    from_targets = loss_loc(layout, raw, bin_targets(layout, theta))
    assert np.array_equal(from_targets[0], loc) and np.array_equal(from_targets[1], loc_grad)


def reference_bin_targets(layout, theta):
    """``bin_targets`` as row-major expressions with a trailing bin axis."""
    offsets = wrap_angle(np.expand_dims(theta, -1) - layout.centers)
    dist = np.abs(offsets)
    pairs = np.stack([np.cos(offsets), np.sin(offsets)], axis=-1)
    return np.argmin(dist, axis=-1), dist <= layout.coverage_half_width, pairs


def reference_loss_conf(logits, target_bin):
    """``loss_conf``'s arithmetic as row-wise reductions over the last axis."""
    target = np.expand_dims(target_bin, -1)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    loss = log_norm - np.take_along_axis(shifted, target, axis=-1)[..., 0]
    grad = np.exp(shifted - log_norm[..., None]) - (np.arange(logits.shape[-1]) == target)
    return loss, grad


def reference_loss_loc(raw, covering, pairs):
    """``loss_loc``'s arithmetic with einsums and broadcasts over the trailing pair axis."""
    norms = np.sqrt(np.einsum("...i,...i->...", raw, raw))
    unit = raw / norms[..., None]
    n_cov = covering.sum(axis=-1)
    dots = np.einsum("...i,...i->...", pairs, unit)
    loss = -(dots * covering).sum(axis=-1) / n_cov
    grad = (
        -covering[..., None].astype(float)
        * (pairs - dots[..., None] * unit)
        / (n_cov[..., None, None] * norms[..., None])
    )
    return loss, grad


@pytest.mark.parametrize("n_bins", range(1, 17))
def test_losses_equal_row_wise_reference_bit_for_bit(n_bins):
    # numpy adds 8 or more elements of a row pairwise, so 8-16 bins check that order
    layout = BinLayout(n_bins)
    rng = np.random.default_rng(70 + n_bins)
    batch = 2000
    theta = np.concatenate([rng.uniform(-np.pi, np.pi, batch - n_bins - 1),
                            layout.centers, [np.pi]])  # exact centers: one covering bin
    target_bin, covering, pairs = reference_bin_targets(layout, theta)
    targets = bin_targets(layout, theta)
    assert np.array_equal(targets.target_bin, target_bin)
    assert np.array_equal(targets.covering, covering) and np.array_equal(targets.pairs, pairs)

    out = rng.normal(0, 3, size=(batch, 3 * n_bins))  # a toy head's outputs
    forms = {
        "strided views": (out[:, :n_bins], out[:, n_bins:].reshape(batch, n_bins, 2)),
        "contiguous": (out[:, :n_bins].copy(), out[:, n_bins:].reshape(batch, n_bins, 2).copy()),
    }
    for form, (logits, raw) in forms.items():
        want_conf = reference_loss_conf(logits, target_bin)
        want_loc = reference_loss_loc(raw, covering, pairs)
        for got, want in ((loss_conf(logits, targets.target_bin), want_conf),
                          (loss_loc(layout, raw, targets), want_loc),
                          (loss_loc(layout, raw, theta), want_loc)):
            assert np.array_equal(got[0], want[0]), form
            assert np.array_equal(got[1], want[1]), form

    logits, raw = forms["contiguous"]
    for i in range(0, batch, 97):  # single samples
        conf, conf_grad = loss_conf(logits[i], target_bin[i])
        loc, loc_grad = loss_loc(layout, raw[i], theta[i])
        want_conf, want_conf_grad = reference_loss_conf(logits[i], target_bin[i])
        want_loc, want_loc_grad = reference_loss_loc(raw[i], covering[i], pairs[i])
        assert conf == want_conf and np.array_equal(conf_grad, want_conf_grad)
        assert loc == want_loc and np.array_equal(loc_grad, want_loc_grad)


@pytest.mark.parametrize("n_bins", [1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 128, 129, 200, 300])
def test_over_bins_adds_in_numpys_row_order(n_bins):
    values = np.exp(np.random.default_rng(n_bins).normal(0, 3, size=(500, n_bins)))
    assert np.array_equal(_over_bins(np.add, np.ascontiguousarray(values.T)), values.sum(axis=-1))
    assert np.array_equal(_over_bins(np.maximum, values.T), values.max(axis=-1))


def test_scalar_and_single_row_return_types():
    layout = BinLayout(4)
    logits, raw = np.array([0.3, -1.0, 2.0, 0.5]), np.arange(1.0, 9.0).reshape(4, 2)
    for loss, grad, shape in (loss_conf(logits, 2) + ((4,),),
                              loss_loc(layout, raw, 0.7) + ((4, 2),)):
        assert type(loss) is float
        assert isinstance(grad, np.ndarray) and grad.shape == shape

    conf, conf_grad = loss_conf(logits[None], np.array([2]))
    loc, loc_grad = loss_loc(layout, raw[None], np.array([0.7]))
    assert conf.shape == (1,) and conf_grad.shape == (1, 4)
    assert loc.shape == (1,) and loc_grad.shape == (1, 4, 2)
    assert conf[0] == loss_conf(logits, 2)[0] and loc[0] == loss_loc(layout, raw, 0.7)[0]


def test_batched_losses_raise_the_scalar_errors():
    layout = BinLayout(4)
    logits = np.zeros((6, 4))
    with pytest.raises(ValueError, match="target bin 4 out of range"):
        loss_conf(logits, np.array([0, 1, 2, 4, 3, 0]))
    with pytest.raises(ValueError):
        loss_conf(logits, np.zeros(5, dtype=int))  # one target short

    raw = np.ones((6, 4, 2))
    raw[4, 1] = [1e-13, 0.0]
    with pytest.raises(ZeroVectorError):
        loss_loc(layout, raw, np.zeros(6))
    for shape in ((6, 4, 3), (6, 5, 2), (6, 8)):
        with pytest.raises(ValueError, match="raw_pairs must have shape"):
            loss_loc(layout, np.ones(shape), np.zeros(6))
    with pytest.raises(ValueError, match="one angle per row"):
        loss_loc(layout, np.ones((6, 4, 2)), np.zeros(5))


def test_loss_total_orientation():
    assert loss_total_orientation(np.log(2.0), -1.0, 1.0) == pytest.approx(np.log(2.0) - 1.0)
    with pytest.raises(ValueError):
        loss_total_orientation(1.0, -1.0, 0.0)
    for w in (0.5, 1.0, 2.0):
        assert loss_total_orientation(0.3, -0.8, w) == pytest.approx(0.3 - 0.8 * w)


def test_loss_dims_exact_residual_is_zero():
    true = np.array([4.2, 1.6, 1.9])
    mean = np.array([3.9, 1.5, 1.7])
    loss, grad = loss_dims(true, mean, true - mean)
    assert loss == pytest.approx(0.0)
    assert np.allclose(grad, 0.0)


def test_loss_dims_single_axis_value():
    loss, _ = loss_dims(np.array([4.3, 1.5, 1.7]), np.array([4.0, 1.5, 1.7]), np.zeros(3))
    assert loss == pytest.approx(0.03)


def test_loss_dims_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        true = rng.uniform(0.5, 5.0, size=3)
        mean = rng.uniform(0.5, 5.0, size=3)
        delta = rng.normal(0, 0.5, size=3)
        _, grad = loss_dims(true, mean, delta)
        numeric = central_difference(lambda d: loss_dims(true, mean, d)[0], delta)
        assert_gradients_close(grad, numeric, rtol=1e-8, atol=2e-9)


# --- local / global orientation ------------------------------------------------


def test_local_to_global_addition():
    assert local_to_global(0.2, 0.3) == pytest.approx(0.5)


def test_local_global_inverse():
    rng = np.random.default_rng(8)
    for _ in range(100):
        theta_l, theta_ray = rng.uniform(-np.pi, np.pi, size=2)
        assert global_to_local(local_to_global(theta_l, theta_ray), theta_ray) == (
            pytest.approx(theta_l)
        )


def test_local_to_global_wraps():
    assert local_to_global(3.0, 1.0) == pytest.approx(4.0 - 2 * np.pi)


def test_ray_angle():
    k = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
    assert ray_angle(k, k.cx) == pytest.approx(0.0)
    assert ray_angle(k, k.cx + k.fx) == pytest.approx(np.pi / 4)
    assert ray_angle(k, k.cx - k.fx) == pytest.approx(-np.pi / 4)
