"""Desk-scale study: multi-bin angle regression versus scalar L2 regression.

A two-layer network reads a noisy (cos, sin) observation of an angle and
regresses the angle back, either through the multi-bin head (confidence
logits plus per-bin residual pairs) or through a single scalar trained with
plain L2. The scalar variant minimizes the squared difference of wrapped
angles, so targets near +-pi straddle the discontinuity and pull the
estimate toward a useless average; the multi-bin head is immune because
each bin's residual is a unit vector. The bin study in ``bin_study``
reproduces this ordering: one bin (the scalar baseline) loses to every
multi-bin width.

Training is full-batch gradient descent with manual backpropagation, bit
reproducible for a fixed seed. The multi-bin head trains on ``multibin``'s
batched ``loss_conf`` and ``loss_loc`` (targets from ``bin_targets``, once
per run) and predicts through ``multibin.decode``; this module only
backpropagates through the two layers. ``gradient_check`` verifies every
parameter tensor against central finite differences.

Each ``train`` run allocates its three work arrays once, feature-major
(·, n): ``hidden`` (the tanh activations), ``out`` (the head outputs) and
``d_hidden``. Each logit and each cos or sin output is a contiguous row of
n samples, which the losses read without a copy and whose gradients they
return in that layout, and each bias gradient is a contiguous row sum. The
other two gradients reuse a buffer once its value is spent: the head's
gradient ``d_out`` is written into ``out`` after the losses have read it,
and the gradient through tanh ``d_pre`` into ``hidden`` after ``d_w2`` has.
One allocation per epoch faulted their pages in again, 1 300-1 600 minor
faults an epoch at 4 bins on 5 000 samples. ``forward`` returns (n, ·) views.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergedLossError
from .geometry import wrap_angle
from .metrics import orientation_similarity
from .multibin import (
    BinLayout,
    BinTargets,
    MultiBinEncoding,
    bin_targets,
    decode,
    loss_conf,
    loss_loc,
    loss_total_orientation,
)

__all__ = [
    "ToyModel",
    "make_dataset",
    "train",
    "evaluate",
    "gradient_check",
    "bin_study",
]

L2_SCALAR = "l2_scalar"
MULTIBIN = "multibin"


def make_dataset(n_samples, noise_sigma, seed):
    """Angles uniform on (-pi, pi] with noisy (cos, sin) features.

    Returns:
        (features (n, 2), angles (n,)).
    """
    rng = np.random.default_rng(seed)
    angles = wrap_angle(rng.uniform(-np.pi, np.pi, size=n_samples))
    features = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    features += rng.normal(0.0, noise_sigma, size=features.shape)
    return features, angles


@dataclass
class ToyModel:
    """Two-layer tanh network with a multi-bin or scalar output head."""

    kind: str
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    layout: Optional[BinLayout] = None
    loc_weight: float = 1.0

    def parameters(self):
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def _work_arrays(self, n):
        """Fresh feature-major ``(hidden, out, d_hidden)`` arrays for n samples.

        They are C-contiguous (width, n) views of one block. ``loss_and_grads``
        writes ``d_out`` into ``out`` and ``d_pre`` into ``hidden``, so after it
        they hold those gradients. Freed at the end of a run, one block raises
        glibc's dynamic trim threshold to twice its size, so later runs'
        per-epoch loss temporaries stay in the heap too.
        """
        width, out_dim = self.w2.shape
        widths = (width, out_dim, width)
        parts = np.split(np.empty(n * sum(widths)), n * np.cumsum(widths[:-1]))
        return tuple(part.reshape(w, n) for part, w in zip(parts, widths))

    def forward(self, features, work=None):
        """(B, H) hidden activations and (B, out) head outputs, views of ``work``'s first two."""
        hidden, out = (self._work_arrays(len(features)) if work is None else work)[:2]
        np.matmul(self.w1.T, features.T, out=hidden)
        hidden += self.b1[:, None]
        np.tanh(hidden, out=hidden)
        np.matmul(self.w2.T, hidden, out=out)
        out += self.b2[:, None]
        return hidden.T, out.T

    def predict(self, features):
        """Decoded angle per sample."""
        _, out = self.forward(features)
        if self.kind == L2_SCALAR:
            return wrap_angle(out[:, 0])
        n = self.layout.n_bins
        raw = out[:, n:].reshape(-1, n, 2)
        return decode(self.layout, MultiBinEncoding(out[:, :n], raw[..., 0], raw[..., 1]))

    def loss_and_grads(self, features, angles, work=None):
        """Mean loss over the batch and gradients for every parameter.

        A multibin model also accepts the angles' ``bin_targets``, as ``train`` passes.
        ``work`` holds the three (·, n) arrays of ``_work_arrays`` (``train``
        allocates them once); without it they are allocated for this call. The
        pass writes ``hidden`` and ``out``, then ``d_out`` into ``out`` once the
        losses have read it, ``d_hidden``, and ``d_pre`` into ``hidden`` once
        ``d_w2`` has read it. The gradients never alias the work arrays. The bias
        gradients sum each row in numpy's pairwise order.
        """
        if work is None:
            work = self._work_arrays(len(features))
        hidden, out = self.forward(features, work)  # (B, ·) views
        d_out, d_hidden = work[1:]  # (·, B); d_out is out's buffer
        batch = len(out)

        if self.kind == L2_SCALAR:
            diff = out[:, 0] - angles
            with np.errstate(over="ignore"):  # divergence is reported, not a warning
                loss = float(np.mean(diff**2))
            np.divide(2.0 * diff, batch, out=d_out[0])  # the only row
        else:
            n, w = self.layout.n_bins, self.loc_weight
            targets = angles if isinstance(angles, BinTargets) else bin_targets(self.layout, angles)
            # bin-major views: each logit row and each cos or sin row is contiguous
            conf, d_logits = loss_conf(out[:, :n], targets.target_bin)
            loc, d_raw = loss_loc(self.layout, out[:, n:].reshape(batch, n, 2), targets)
            loss = float(np.mean(loss_total_orientation(conf, loc, w)))
            np.divide(d_logits.T, batch, out=d_out[:n])
            np.multiply(w, d_raw.reshape(batch, 2 * n).T, out=d_out[n:])
            d_out[n:] /= batch

        d_w2 = hidden.T @ d_out.T
        d_b2 = d_out.sum(axis=1)
        if len(d_out) == 1:  # the scalar head: the same single products as a 1-deep matmul, faster
            np.multiply(self.w2, d_out, out=d_hidden)
        else:
            np.matmul(self.w2, d_out, out=d_hidden)
        # d_hidden * (1 - hidden**2), in hidden's buffer: the products commute exactly
        d_pre = hidden.T
        np.multiply(d_pre, d_pre, out=d_pre)
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= d_hidden
        d_w1 = features.T @ d_pre.T
        d_b1 = d_pre.sum(axis=1)
        return loss, {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


def _init_model(kind, n_bins, hidden, overlap, loc_weight, rng):
    layout = None
    out_dim = 1
    if kind == MULTIBIN:
        layout = BinLayout(n_bins, overlap * np.pi / n_bins)
        out_dim = 3 * n_bins
    elif kind != L2_SCALAR:
        raise ValueError(f"unknown model kind: {kind!r}")
    return ToyModel(
        kind=kind,
        w1=rng.uniform(-0.1, 0.1, size=(2, hidden)),
        b1=rng.uniform(-0.1, 0.1, size=hidden),
        w2=rng.uniform(-0.1, 0.1, size=(hidden, out_dim)),
        b2=rng.uniform(-0.1, 0.1, size=out_dim),
        layout=layout,
        loc_weight=loc_weight,
    )


def train(
    dataset,
    kind=MULTIBIN,
    n_bins=2,
    epochs=200,
    learning_rate=0.05,
    seed=0,
    hidden=32,
    overlap=1.1,
    loc_weight=1.0,
):
    """Fit a ToyModel with full-batch gradient descent.

    Args:
        dataset: (features (n, 2), angles (n,)) as from ``make_dataset``.
        kind: "multibin" or "l2_scalar".

    Returns:
        (model, loss_history (epochs,)).

    Raises:
        DivergedLossError: if the loss becomes non-finite.
    """
    features, angles = dataset
    rng = np.random.default_rng(seed)
    model = _init_model(kind, n_bins, hidden, overlap, loc_weight, rng)
    targets = angles if kind == L2_SCALAR else bin_targets(model.layout, angles)
    history = np.empty(epochs)
    work = model._work_arrays(len(features))  # every epoch writes into these
    for epoch in range(epochs):
        loss, grads = model.loss_and_grads(features, targets, work)
        if not np.isfinite(loss):
            raise DivergedLossError(f"loss became {loss} at epoch {epoch}")
        history[epoch] = loss
        for name, param in model.parameters():
            param -= learning_rate * grads[name]
    return model, history


def evaluate(model, features, angles):
    """Median absolute angle error and mean orientation similarity."""
    predictions = model.predict(features)
    errors = np.abs(wrap_angle(predictions - angles))
    return float(np.median(errors)), float(
        np.mean(orientation_similarity(predictions - angles))
    )


def gradient_check(model, features, angles):
    """Max relative error of analytic vs central-difference gradients."""
    step = 1e-6
    _, grads = model.loss_and_grads(features, angles)
    worst = 0.0
    for name, param in model.parameters():
        flat = param.reshape(-1)
        analytic = grads[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            hi = model.loss_and_grads(features, angles)[0]
            flat[i] = original - step
            lo = model.loss_and_grads(features, angles)[0]
            flat[i] = original
            numeric = (hi - lo) / (2.0 * step)
            scale = max(abs(numeric), abs(analytic[i]), 1e-8)
            worst = max(worst, abs(numeric - analytic[i]) / scale)
    return worst


@dataclass(frozen=True)
class BinStudyRow:
    bins: int
    kind: str
    median_error: float
    mean_os: float
    final_loss: float


def bin_study(
    bin_counts=(1, 2, 4, 8),
    n_train=5000,
    n_test=2000,
    noise_sigma=0.05,
    epochs=200,
    learning_rate=0.05,
    hidden=32,
    overlap=1.1,
    loc_weight=1.0,
    seed=0,
):
    """Train one model per bin count and evaluate on a shared test set.

    A bin count of 1 trains the scalar L2 baseline (the single-mode
    regressor that the multi-bin head generalizes); counts >= 2 train
    multi-bin heads. All runs share the train/test split and the seed.

    Returns:
        (rows, histories): one BinStudyRow per bin count and the matching
        per-epoch loss arrays.
    """
    train_set = make_dataset(n_train, noise_sigma, seed)
    test_x, test_y = make_dataset(n_test, noise_sigma, seed + 1)
    rows, histories = [], []
    for bins in bin_counts:
        kind = L2_SCALAR if bins == 1 else MULTIBIN
        model, history = train(
            train_set,
            kind=kind,
            n_bins=bins,
            epochs=epochs,
            learning_rate=learning_rate,
            seed=seed,
            hidden=hidden,
            overlap=overlap,
            loc_weight=loc_weight,
        )
        median_error, mean_os = evaluate(model, test_x, test_y)
        rows.append(
            BinStudyRow(
                bins=bins,
                kind=kind,
                median_error=median_error,
                mean_os=mean_os,
                final_loss=float(history[-1]),
            )
        )
        histories.append(history)
    return rows, histories
