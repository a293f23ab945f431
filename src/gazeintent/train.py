"""Two-stage training recipe: mouse-velocity pretext pretraining, then
partial or full fine-tuning for intent classification, plus the purely
supervised baseline and the input-ablation configurations.

`collect_windows` alone picks the windows a model reads, for training,
validation and LOSO testing alike. Every stage is one `_stage` call: the
head kind picks the targets and loss (mouse velocity and MSE, or labels
and weighted cross-entropy), and `_stage` hands model inputs, targets and
that loss to `_train_loop`, which gathers batches, validates, stops early
and updates exactly the tensors that require grad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gazeintent import dataio, model, shards
from gazeintent.errors import ConfigError, DataError
from gazeintent.numerics import (
    AdamState,
    Tape,
    Tensor,
    adam_step,
    backward,
    collect_grads,
    mse_loss,
    softmax_lastaxis,
    weighted_cross_entropy,
    zero_grads,
)

FREEZE_MODES = ("full", "partial")
STAGES = ("pretext", "finetune", "supervised")


@dataclass
class TrainConfig:
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    freeze: str = "full"
    input_mode: str = "gaze_plus_comp"
    stride: int = 6
    label_fraction: float = 1.0
    val_subject_index: int = 0

    def __post_init__(self):
        # before the field rule, so that NaN also reads "must be in (0, 1]"
        if not (isinstance(self.label_fraction, (int, float)) and 0 < self.label_fraction <= 1):
            raise ConfigError("label_fraction must be in (0, 1]")
        # windowize steps through window starts as numpy int64
        dataio.check_fields(self, batch_size=1, max_epochs=1, stride=(1, np.iinfo(np.int64).max),
                            seed=0, patience=0, val_subject_index=0)
        if self.freeze not in FREEZE_MODES:
            raise ConfigError(f"unknown freeze mode {self.freeze!r}")
        model.ModelConfig(input_mode=self.input_mode)   # raises its unknown input_mode error


def compute_class_weights(labels) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (2 * N_c); mean 1 under balance."""
    labels = np.asarray(labels)
    counts = np.array([(labels == 0).sum(), (labels == 1).sum()], dtype=np.float64)
    if (counts == 0).any():
        raise DataError("both classes must be present in the training split")
    return labels.size / (2.0 * counts)


# ---------------------------------------------------------------------------
# window assembly


def split_by_subject(sessions):
    by_subject = {}
    for s in sessions:
        by_subject.setdefault(s.meta.subject_id, []).append(s)
    return by_subject


def _pick_val_subject(subjects, index: int) -> str:
    subjects = sorted(subjects)
    if len(subjects) < 2:
        raise DataError("need at least two training subjects to hold one out for validation")
    return subjects[index % len(subjects)]


def split_train_val(sessions, cfg: TrainConfig):
    """(training sessions, validation sessions): every session of the
    subject that cfg.val_subject_index picks is held out for validation."""
    by_subject = split_by_subject(sessions)
    val_subject = _pick_val_subject(by_subject, cfg.val_subject_index)
    return [s for s in sessions if s.meta.subject_id != val_subject], by_subject[val_subject]


HEAD_WINDOWS = {model.VELOCITY_HEAD: "pretext", model.CLASSIFIER_HEAD: "labeled"}


def collect_windows(sessions, cfg: TrainConfig, head_kind: str) -> dataio.Windows:
    """The windows of `sessions` that a model of cfg.input_mode with a
    `head_kind` head reads, unnormalized: pretext windows for a velocity
    head, labeled windows for a classifier head, with mouse positions when
    the input mode's streams hold "m"."""
    with_mouse = "m" in model.ModelConfig(input_mode=cfg.input_mode).streams
    return dataio.Windows.concat([
        dataio.windowize(s, cfg.stride, HEAD_WINDOWS[head_kind], with_mouse=with_mouse)
        for s in sessions])


def _subsample_labels(windows: dataio.Windows, fraction: float, seed: int) -> dataio.Windows:
    if fraction >= 1.0:
        return windows
    rng = np.random.default_rng([seed, 0x1abe1])
    keep = min(len(windows), max(2, int(round(fraction * len(windows)))))
    return windows[np.sort(rng.choice(len(windows), size=keep, replace=False))]


class History(list):
    """A stage's epoch entries, plus `windows`: windowize's accounting of
    its training split before label subsampling (in train's manifest.json)."""

    def __init__(self, entries=(), windows: dict | None = None):
        super().__init__(entries)
        self.windows = windows


# ---------------------------------------------------------------------------
# generic loop

def _epoch_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _train_loop(params: model.ModelParams, x_train: dict, y_train, x_val: dict, y_val,
                loss_fn, cfg: TrainConfig, stage: str):
    """Adam loop (`numerics.adam`'s LR and WEIGHT_DECAY) with early stopping
    on held-out-subject validation loss.

    `x_*` map each stream to its model inputs, `y_*` hold one target row
    per window, and `loss_fn(output, targets)` gives the mean loss of a
    forward output. Each step gathers a shuffled batch of rows and runs it
    through `shards.step` (forward and backward on every core, one loss on
    the whole batch's output) before the Adam update; each epoch ends with
    one untaped, sharded forward of the whole validation split and one
    loss on its output, plus `val_acc` when the targets are class ids.
    Exactly the tensors that require grad are updated, and the tape
    records no backward work for the others. Steps and validation run
    with numpy's overflow, invalid and divide warnings off; an epoch whose
    train or validation loss is not finite raises ConfigError instead.
    Returns (best_params, history); best_params keeps params' flags."""
    trainable = {k: t for k, t in params.tensors.items() if t.requires_grad}
    state = AdamState.for_params(trainable)
    rng = np.random.default_rng([cfg.seed, STAGES.index(stage)])
    classify = y_val.dtype.kind in "iu"
    history = []
    best_epoch = -1
    # a diverging stage overflows; the finite-loss check below reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.max_epochs):
            losses = []
            for idx in _epoch_batches(len(y_train), cfg.batch_size, rng):
                zero_grads(params.tensors.values())
                loss = shards.step(params, {k: v[idx] for k, v in x_train.items()},
                                   y_train[idx], loss_fn, Tape, backward)
                adam_step(trainable, collect_grads(trainable), state)
                losses.append(loss.item())
            out = Tensor(shards.forward(params, x_val))
            entry = {"stage": stage, "epoch": epoch, "train_loss": float(np.mean(losses)),
                     "val_loss": loss_fn(out, y_val).item()}
            if classify:
                hits = softmax_lastaxis(out).data.argmax(axis=1) == y_val
                entry["val_acc"] = int(hits.sum()) / len(y_val)
            if not np.isfinite([entry["train_loss"], entry["val_loss"]]).all():
                raise ConfigError(f"{stage} stage diverged in epoch {epoch}: "
                                  f"train_loss {entry['train_loss']}, "
                                  f"val_loss {entry['val_loss']}")
            history.append(entry)
            if best_epoch < 0 or entry["val_loss"] < history[best_epoch]["val_loss"]:
                best = params.copy()
                best_epoch = epoch
            elif epoch - best_epoch >= cfg.patience:
                break
    return best, history


# ---------------------------------------------------------------------------
# stages


def _stage(params: model.ModelParams, sessions, cfg: TrainConfig, stage: str, stats=None,
           stats_source: str = "computed on the training split", permute_labels: bool = False):
    """Train `params` (updated in place) for one stage on `sessions`, with
    a held-out subject for validation (`split_train_val`).

    Each split's windows come from `collect_windows`; an empty split raises
    DataError. A classifier keeps cfg.label_fraction of its training
    windows and learns their labels (shuffled with `permute_labels`) by
    class-weighted cross-entropy; a velocity head learns mouse velocity by
    MSE. Both splits are normalized by `stats`, or by stats computed on the
    training windows if none are given; the sessions and given stats must
    share one screen size. Computed stats pass the `NormStats` rule, and the
    model inputs and velocity targets `Windows.batch`: a fault of either
    raises DataError naming the stage and `stats_source`, where the stats
    came from. While the loop trains, only that float32 data and the labels
    stay alive. Returns (best_params, stats, History)."""
    train_w, val_w = (collect_windows(split, cfg, params.head_kind)
                      for split in split_train_val(sessions, cfg))
    empty = [name for name, w in (("training", train_w), ("validation", val_w)) if not w]
    if empty:
        raise DataError(f"no {HEAD_WINDOWS[params.head_kind]} windows in the {empty[0]} split")
    counts = train_w.counts
    screen = dataio.one_screen([s.meta for s in sessions] + ([] if stats is None else [stats]))
    classify = params.head_kind == model.CLASSIFIER_HEAD
    if classify:
        train_w = _subsample_labels(train_w, cfg.label_fraction, cfg.seed)
    keys = params.config.streams
    if classify:
        y_train, y_val = train_w.label, val_w.label
        if permute_labels:
            rng = np.random.default_rng([cfg.seed, 0x9e12])
            y_train = y_train[rng.permutation(y_train.size)]
        weights = Tensor(compute_class_weights(y_train))
        loss_fn = lambda logits, y: weighted_cross_entropy(logits, y, weights)
    else:
        keys += ("vel_target",)
        loss_fn = lambda out, v: mse_loss(out, Tensor(v))
    try:
        if stats is None:
            stats = dataio.compute_stats(train_w, screen)
        x_train, x_val = (dataio.normalize(w, stats).batch(keys) for w in (train_w, val_w))
    except DataError as e:
        raise DataError(f"{stage} stage: {e} under the normalization stats "
                        f"{stats_source}") from e
    del train_w, val_w
    if not classify:
        y_train, y_val = x_train.pop("vel_target"), x_val.pop("vel_target")
    best, history = _train_loop(params, x_train, y_train, x_val, y_val, loss_fn, cfg, stage)
    return best, stats, History(history, counts)


def pretrain(sessions, cfg: TrainConfig):
    """Mouse-velocity pretext pretraining; labels are never read.

    Returns (params_with_velocity_head, stats, history).
    """
    config = model.ModelConfig(input_mode=cfg.input_mode)
    if "m" in config.streams:
        raise ConfigError("the pretext stage predicts mouse velocity from gaze; "
                          "mouse input modes are not allowed")
    params = model.init_params(config, cfg.seed, head_kind=model.VELOCITY_HEAD)
    return _stage(params, sessions, cfg, "pretext")


def partial_trainable_names(params: model.ModelParams) -> list:
    """Partial fine-tuning updates the transformer layers and the head;
    encoders, cross-attention and the fusion projection stay frozen."""
    return [k for k in params.learnable_names()
            if k.startswith("tf") or k.startswith("head.")]


def finetune_params(params: model.ModelParams, stats, sessions, cfg: TrainConfig,
                    stats_source: str = "of the pretext stage", permute_labels: bool = False):
    """Swap the pretext head of `params` for a fresh classifier and fine-tune
    a copy (on shuffled labels with `permute_labels`); the caller's params
    are left untouched.

    cfg.freeze selects full (all parameters) or partial (transformer +
    head only) updates: the copy's frozen tensors stop requiring grad while
    it trains, and require it again in the result. Mouse data is never
    consumed here. `stats_source` says where `stats` came from, for the
    error a non-finite input raises.
    """
    params = model.reinit_head(params, head_seed=cfg.seed + 1)
    if params.config.input_mode != cfg.input_mode:
        raise ConfigError(f"pretext input_mode {params.config.input_mode} "
                          f"!= requested {cfg.input_mode}")
    if "m" in params.config.streams:
        raise ConfigError("fine-tuning consumes gaze streams only")
    trained = (params.learnable_names() if cfg.freeze == "full"
               else partial_trainable_names(params))
    frozen = [k for k in params.learnable_names() if k not in trained]
    for k in frozen:
        params.tensors[k].requires_grad = False
    best, stats, history = _stage(params, sessions, cfg, "finetune", stats, stats_source,
                                  permute_labels=permute_labels)
    for k in frozen:
        best.tensors[k].requires_grad = True
    return best, stats, history


def finetune(checkpoint_path, sessions, cfg: TrainConfig):
    """`finetune_params` on a pretext checkpoint read from disk."""
    params, stats = model.load_checkpoint(checkpoint_path)
    return finetune_params(params, stats, sessions, cfg,
                           stats_source=f"of checkpoint {checkpoint_path}")


def supervised_train(sessions, cfg: TrainConfig, permute_labels: bool = False):
    """Weighted-CE training from random init; supports all input ablations."""
    params = model.init_params(model.ModelConfig(input_mode=cfg.input_mode), cfg.seed,
                               head_kind=model.CLASSIFIER_HEAD)
    return _stage(params, sessions, cfg, "supervised", permute_labels=permute_labels)
