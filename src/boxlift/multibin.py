"""Discrete-continuous angle regression: bins, losses and their gradients.

An angle is represented by n overlapping bins. Each bin carries a
confidence (is the angle in this bin?) and a residual rotation relative to
the bin center, stored as a (cos, sin) pair. Decoding picks the
highest-confidence bin and applies its residual via atan2, which avoids the
wrap-around discontinuity that plain scalar regression suffers at +-pi.

Also here: the conversion between local orientation (relative to the
viewing ray through a crop) and global orientation. A detector crop only
shows appearance, which is a function of the local angle; the global yaw is
local + ray angle.

Loss functions return ``(value, gradient)`` pairs; the gradients are exact
and are verified against central finite differences in the test suite.
``loss_conf`` and ``loss_loc`` take one sample or a batch of B: a batch
gives (B,) losses, one sample a float; gradients are shaped like the input.
``bin_targets`` is the angle-only part that ``encode``, ``bins_covering``
and ``loss_loc`` share.

The two losses work bin-major on the (n, B) transpose of their batch, a bin
being one column of B values, with separate cos and sin planes; ``toy``
stores its head feature-major, so its columns are contiguous, and gradients
come back in the input's layout. ``_over_bins`` reduces over bins, one ufunc
call per column: numpy reduces a short last axis one row at a time (on
(5000, 8) logits ``max(axis=-1)`` took 411 us, ``exp`` 48 us; numpy 2.4.6,
2-vCPU Xeon). It adds in numpy's pairwise order, so losses and gradients are
bit for bit those of the row-wise expressions, in any layout.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVectorError
from .geometry import wrap_angle

__all__ = [
    "BinLayout",
    "MultiBinEncoding",
    "BinTargets",
    "bin_targets",
    "bins_covering",
    "encode",
    "decode",
    "loss_conf",
    "loss_loc",
    "loss_total_orientation",
    "loss_dims",
    "local_to_global",
    "global_to_local",
    "ray_angle",
]


@dataclass(frozen=True)
class BinLayout:
    """n bins with centers 2*pi*i/n - pi and a common coverage half-width.

    A bin covers every angle within ``coverage_half_width`` of its center.
    The default half-width 1.1 * pi/n makes adjacent bins overlap by 10% of
    their exact-tiling width, so every angle is covered by one or two bins.
    """

    n_bins: int
    coverage_half_width: float = None

    def __post_init__(self):
        n = self.n_bins
        if isinstance(n, (bool, np.bool_)) or n < 1 or int(n) != n:
            raise ValueError("n_bins must be a positive integer")
        if self.coverage_half_width is None:
            object.__setattr__(
                self, "coverage_half_width", 1.1 * np.pi / self.n_bins
            )
        hw = self.coverage_half_width
        if hw < np.pi / self.n_bins:
            raise ValueError("coverage_half_width leaves gaps between bins")
        if self.n_bins >= 2 and hw >= 2.0 * np.pi / self.n_bins:
            raise ValueError("coverage_half_width lets a bin cover everything")

    @property
    def centers(self):
        return 2.0 * np.pi * np.arange(self.n_bins) / self.n_bins - np.pi


@dataclass(frozen=True)
class MultiBinEncoding:
    """Per-bin (confidence, cos residual, sin residual) triplets."""

    confidences: np.ndarray
    residual_cos: np.ndarray
    residual_sin: np.ndarray

    def __post_init__(self):
        for name in ("confidences", "residual_cos", "residual_sin"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (
            self.confidences.shape == self.residual_cos.shape == self.residual_sin.shape
        ):
            raise ValueError("encoding arrays must have identical shapes")


BinTargets = namedtuple("BinTargets", "target_bin covering pairs")


def bin_targets(layout, theta):
    """The angle-only part of encoding angle(s) ``theta``, as ``BinTargets``.

    ``target_bin`` is the nearest bin center (ties to the lower index),
    ``covering`` marks the bins whose coverage interval contains the angle,
    and ``pairs`` is the unit (cos, sin) of wrap(theta - center) for every
    bin. Array input gives a trailing bin axis. ``covering`` and ``pairs``
    are views of bin-major arrays, whose transposes ``loss_loc`` reads
    without a copy.

    Raises:
        ValueError: if any angle is not finite.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    offsets = wrap_angle(theta - layout.centers.reshape((-1,) + (1,) * theta.ndim))
    dist = np.abs(offsets)
    covering = np.moveaxis(dist <= layout.coverage_half_width, 0, -1)
    pairs = np.moveaxis(np.stack([np.cos(offsets), np.sin(offsets)]), (0, 1), (-1, -2))
    return BinTargets(np.argmin(dist, axis=0), covering, pairs)


def bins_covering(layout, theta):
    """Indices of the bins whose coverage interval contains ``theta``."""
    return np.flatnonzero(bin_targets(layout, theta).covering)


def encode(layout, theta):
    """Training target for angle(s) ``theta``.

    Confidence is one-hot on the nearest bin center (ties to the lower
    index). Every bin stores the residual wrap(theta - center) as a unit
    (cos, sin) pair; only covering bins receive localization supervision,
    but the stored residual is well defined for all of them.

    ``theta`` may be a scalar or an array; array input produces arrays with
    a trailing bin axis.
    """
    targets = bin_targets(layout, theta)
    one_hot = np.arange(layout.n_bins) == np.expand_dims(targets.target_bin, -1)
    return MultiBinEncoding(one_hot, targets.pairs[..., 0], targets.pairs[..., 1])


def decode(layout, encoding):
    """Angle(s) from an encoding: argmax-confidence bin center + residual.

    Confidence ties resolve to the lower bin index.

    Raises:
        ValueError: if the encoding's bin axis is not ``layout.n_bins`` wide.
    """
    width = (np.shape(encoding.confidences)[-1:] or (0,))[0]
    if width != layout.n_bins:
        raise ValueError(f"encoding has {width} bins, layout has {layout.n_bins}")
    best = np.expand_dims(np.argmax(encoding.confidences, axis=-1), -1)
    cos = np.take_along_axis(encoding.residual_cos, best, axis=-1)[..., 0]
    sin = np.take_along_axis(encoding.residual_sin, best, axis=-1)[..., 0]
    out = wrap_angle(layout.centers[best[..., 0]] + np.arctan2(sin, cos))
    return float(out) if np.ndim(out) == 0 else out


def _over_bins(ufunc, bins):
    """``ufunc`` reduced over the leading (bin) axis of a bin-major array.

    Each call takes one whole column of every row: n - 1 calls for n bins,
    where numpy's reduction over a short last axis pays a fixed cost for
    every row. The association is that of numpy's pairwise summation (left
    to right below 8 bins, else 8 lanes then a pairwise tree, then the
    tail; beyond 128 halved at a multiple of 8), so a sum equals numpy's
    ``sum(axis=-1)`` of the row-major array bit for bit. For one bin the
    result is ``bins[0]`` itself.
    """
    n = len(bins)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return ufunc(_over_bins(ufunc, bins[:half]), _over_bins(ufunc, bins[half:]))
    if n < 8:
        acc, done = bins[0], 1
    else:
        done = n - n % 8
        lanes = list(bins[:8])
        for start in range(8, done, 8):
            lanes = [ufunc(lane, column) for lane, column in zip(lanes, bins[start:start + 8])]
        while len(lanes) > 1:
            lanes = [ufunc(x, y) for x, y in zip(lanes[::2], lanes[1::2])]
        acc = lanes[0]
    for column in bins[done:]:
        acc = ufunc(acc, column)
    return acc


def loss_conf(logits, target_bin):
    """Softmax cross-entropy of bin confidences against a one-hot target.

    ``logits`` is (n,) with an int ``target_bin``, or (B, n) with B of them.

    Returns:
        (loss, gradient w.r.t. logits), gradient = softmax - one_hot.

    Raises:
        ValueError: if a logit is not finite, the shapes disagree, or a
            target bin is not an integer in [0, n).
    """
    logits = np.asarray(logits, dtype=float)
    target_bin = np.asarray(target_bin)
    cols = logits.T  # bin-major: row j is bin j's column
    if not np.all(np.isfinite(cols)):
        raise ValueError("logits must be finite")
    if logits.ndim not in (1, 2) or target_bin.shape != logits.shape[:-1]:
        raise ValueError("logits must be (n,) or (B, n), with one target bin per row")
    if target_bin.dtype.kind not in "iu":
        raise ValueError(f"target bins must be integers, not {target_bin.dtype}")
    bad = (target_bin < 0) | (target_bin >= logits.shape[-1])
    if np.any(bad):
        raise ValueError(f"target bin {target_bin[bad][0]} out of range")
    shifted = cols - _over_bins(np.maximum, cols)
    log_norm = np.log(_over_bins(np.add, np.exp(shifted)))
    loss = log_norm - np.take_along_axis(shifted, target_bin[None], axis=0)[0]
    grad = np.empty_like(logits)  # in the input's layout
    one_hot = np.equal.outer(np.arange(len(cols)), target_bin)
    np.subtract(np.exp(shifted - log_norm), one_hot, out=grad.T)
    return (float(loss) if logits.ndim == 1 else loss), grad


def loss_loc(layout, raw_pairs, theta):
    """Residual-angle loss over the bins covering ``theta``.

    ``raw_pairs`` is an (n_bins, 2) array of unnormalized (cos, sin)
    outputs for one angle, or (B, n_bins, 2) for B angles; ``theta`` may
    also be their ``bin_targets``, which a training loop computes once.
    Each pair is L2-normalized, then the loss is the negative mean cosine
    of the decode error over covering bins,

        -(1/n_cov) * sum_i cos(theta - center_i) * cos_i
                         + sin(theta - center_i) * sin_i,

    which equals -(1/n_cov) * sum cos(theta - center_i - residual_i)
    without evaluating atan2. Gradient flows through the normalization, so
    scaling a raw pair by any positive factor leaves the loss unchanged.

    Raises:
        ValueError: if a raw pair or an angle is not finite.
        ZeroVectorError: if any raw pair has norm below 1e-12.
    """
    raw = np.asarray(raw_pairs, dtype=float)
    if raw.ndim not in (2, 3) or raw.shape[-2:] != (layout.n_bins, 2):
        n = layout.n_bins
        raise ValueError(f"raw_pairs must have shape ({n}, 2) or (B, {n}, 2)")
    # bin-major (cos, sin) planes: row j of each is bin j's column
    raw_cos, raw_sin = planes = raw.T
    if not np.all(np.isfinite(planes)):
        raise ValueError("raw pairs must be finite")
    _, covering, pairs = theta if isinstance(theta, BinTargets) else bin_targets(layout, theta)
    if covering.shape != raw.shape[:-1]:
        raise ValueError("theta must hold one angle per row of raw_pairs")
    # each (n, B) temporary is written in place once its value is spent
    norms = raw_cos * raw_cos
    norms += raw_sin * raw_sin
    np.sqrt(norms, out=norms)
    if np.any(norms < 1e-12):
        raise ZeroVectorError("raw (cos, sin) pair too small to normalize")

    unit_cos, unit_sin = raw_cos / norms, raw_sin / norms
    pair_cos, pair_sin = np.ascontiguousarray(pairs.T)
    cover = np.array(covering.T, dtype=float, order="C")  # a copy, negated below
    n_cov = _over_bins(np.add, cover)
    dots, spare = pair_cos * unit_cos, pair_sin * unit_sin
    dots += spare
    loss = -_over_bins(np.add, np.multiply(dots, cover, out=spare)) / n_cov
    # d/d raw of (k . raw/|raw|) = (k - (k.u) u) / |raw|
    scale = np.multiply(n_cov, norms, out=norms)  # before the negation: one bin's n_cov is cover[0]
    np.negative(cover, out=cover)
    grad = np.empty_like(raw)  # in the input's layout
    for out, pair, unit in zip(grad.T, (pair_cos, pair_sin), (unit_cos, unit_sin)):
        step = np.subtract(pair, np.multiply(dots, unit, out=unit), out=unit)
        np.divide(np.multiply(cover, step, out=step), scale, out=out)
    return (float(loss) if raw.ndim == 2 else loss), grad


def loss_total_orientation(conf_part, loc_part, weight=1.0):
    """Combined orientation loss: confidence plus weighted localization."""
    if not weight > 0:
        raise ValueError("weight must be positive")
    return conf_part + weight * loc_part


def loss_dims(true_dims, mean_dims, residual):
    """Mean squared error of the dimension residual; each argument is a 3-vector.

    Returns:
        (loss, gradient w.r.t. residual) with
        loss = mean((true - mean - residual)^2) and
        gradient = -(2/3) * (true - mean - residual).
    """
    true_dims, mean_dims = np.asarray(true_dims, dtype=float), np.asarray(mean_dims, dtype=float)
    if true_dims.shape != (3,) or mean_dims.shape != (3,):
        raise ValueError("dimensions must be a 3-vector")
    diff = true_dims - mean_dims - np.asarray(residual, dtype=float)
    return float(np.mean(diff**2)), -(2.0 / 3.0) * diff


def local_to_global(theta_local, theta_ray):
    """Global yaw from crop-local orientation: wrap(theta_ray + theta_local)."""
    return wrap_angle(theta_ray + theta_local)


def global_to_local(theta, theta_ray):
    """Crop-local orientation from global yaw: wrap(theta - theta_ray)."""
    return wrap_angle(theta - theta_ray)


def ray_angle(intrinsics, u):
    """Yaw of the viewing ray through image column ``u``.

    Zero on the optical axis, atan2(u - cx, fx) in general (camera looks
    along +z, u grows to the right).
    """
    return np.arctan2(np.asarray(u, dtype=float) - intrinsics.cx, intrinsics.fx)
