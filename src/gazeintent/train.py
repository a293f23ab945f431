"""Two-stage training recipe: mouse-velocity pretext pretraining, then
partial or full fine-tuning for intent classification, plus the purely
supervised baseline and the input-ablation configurations.

`stage_windows` alone maps a stage to its windows, and every stage runs
the one `_train_loop`: a stage hands it model inputs, targets and a
loss, and the loop gathers batches, validates and stops early.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

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
    lr: float = 3e-4
    weight_decay: float = 0.01
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
        dataio.check_fields(self, batch_size=1, max_epochs=1, stride=1, seed=0, patience=0,
                            val_subject_index=0, weight_decay=0)
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr!r}")
        if self.freeze not in FREEZE_MODES:
            raise ConfigError(f"unknown freeze mode {self.freeze!r}")
        if self.input_mode not in model.INPUT_MODES:
            raise ConfigError(f"unknown input_mode {self.input_mode!r}")


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


def collect_windows(sessions, cfg: TrainConfig, mode: str,
                    with_mouse: bool = False) -> dataio.Windows:
    return dataio.Windows.concat([dataio.windowize(s, cfg.stride, mode, with_mouse=with_mouse)
                                  for s in sessions])


def _subsample_labels(windows: dataio.Windows, fraction: float, seed: int) -> dataio.Windows:
    if fraction >= 1.0:
        return windows
    rng = np.random.default_rng([seed, 0x1abe1])
    keep = min(len(windows), max(2, int(round(fraction * len(windows)))))
    return windows[np.sort(rng.choice(len(windows), size=keep, replace=False))]


def stage_windows(sessions, cfg: TrainConfig, params: model.ModelParams):
    """(training windows, validation windows) of the stage that trains
    `params`, unnormalized and before label subsampling: pretext windows
    for a velocity head, labeled windows for a classifier head, with mouse
    positions when the model's streams hold "m". An empty split raises
    DataError."""
    mode = "pretext" if params.head_kind == model.VELOCITY_HEAD else "labeled"
    with_mouse = "m" in params.config.streams
    splits = [collect_windows(split, cfg, mode, with_mouse)
              for split in split_train_val(sessions, cfg)]
    for name, windows in zip(("training", "validation"), splits):
        if not windows:
            raise DataError(f"no {mode} windows in the {name} split")
    return splits


def _stage_windows(sessions, cfg: TrainConfig, params: model.ModelParams, stats=None):
    """`stage_windows` with cfg.label_fraction of a classifier's training
    windows kept, stats computed on the training windows unless given, and
    both splits normalized. The sessions (and given stats) must share one
    screen size. Returns (train windows, validation windows, stats, the
    training split's windowize counts before label subsampling)."""
    train_w, val_w = stage_windows(sessions, cfg, params)
    counts = train_w.counts
    screen = dataio.one_screen([s.meta for s in sessions] + ([] if stats is None else [stats]))
    if params.head_kind == model.CLASSIFIER_HEAD:
        train_w = _subsample_labels(train_w, cfg.label_fraction, cfg.seed)
    if stats is None:
        stats = dataio.compute_stats(train_w, screen)
    return dataio.normalize(train_w, stats), dataio.normalize(val_w, stats), stats, counts


class History(list):
    """A stage's epoch entries, plus `windows`: windowize's accounting of
    its training split before label subsampling (written to run.json)."""

    def __init__(self, entries=(), windows: dict | None = None):
        super().__init__(entries)
        self.windows = windows


# ---------------------------------------------------------------------------
# generic loop

EVAL_BATCH = 512  # rows per untaped forward in validation and `evaluate.predict_labels`


def forward_rows(params: model.ModelParams, x: dict, sl: slice) -> Tensor:
    """Untaped forward output of rows `sl` of `x`, run in `shards`."""
    return Tensor(shards.forward(params, {k: v[sl] for k, v in x.items()}))


def _epoch_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _train_loop(params: model.ModelParams, trainable_names, x_train: dict, y_train,
                x_val: dict, y_val, loss_fn, cfg: TrainConfig, stage: str):
    """Adam loop with early stopping on held-out-subject validation loss.

    `x_*` map each stream to its model inputs, `y_*` hold one target row
    per window, and `loss_fn(output, targets)` gives the mean loss of a
    forward output. Each step gathers a shuffled batch of rows and runs it
    through `shards.step` (forward and backward on every core, one loss on
    the whole batch's output) before the Adam update; each epoch ends with
    an untaped validation pass in EVAL_BATCH slices, also sharded, which
    records `val_acc` when the targets are class ids. Only the tensors in
    `trainable_names` require gradients while the loop runs, so the tape
    records no backward work for frozen ones. Steps and validation run
    with numpy's overflow, invalid and divide warnings off; an epoch whose
    train or validation loss is not finite raises ConfigError instead.
    Returns (best_params, history)."""
    trainable = {k: params.tensors[k] for k in trainable_names}
    frozen = [k for k, t in params.tensors.items() if k not in trainable and t.requires_grad]
    for k in frozen:
        params.tensors[k].requires_grad = False
    state = AdamState.for_params(trainable)
    rng = np.random.default_rng([cfg.seed, STAGES.index(stage)])
    classify = y_val.dtype.kind in "iu"
    history = []
    best_epoch = -1
    try:
        # a diverging stage overflows; the finite-loss check below reports it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch in range(cfg.max_epochs):
                losses = []
                for idx in _epoch_batches(len(y_train), cfg.batch_size, rng):
                    zero_grads(params.tensors.values())
                    loss = shards.step(params, {k: v[idx] for k, v in x_train.items()},
                                       y_train[idx], loss_fn, Tape, backward)
                    adam_step(trainable, collect_grads(trainable), state,
                              lr=cfg.lr, weight_decay=cfg.weight_decay)
                    losses.append(loss.item())
                total, hits = 0.0, 0
                for i in range(0, len(y_val), EVAL_BATCH):
                    sl = slice(i, i + EVAL_BATCH)
                    out = forward_rows(params, x_val, sl)
                    total += loss_fn(out, y_val[sl]).item() * len(y_val[sl])
                    if classify:
                        hits += int((softmax_lastaxis(out).data.argmax(axis=1) == y_val[sl]).sum())
                entry = {"stage": stage, "epoch": epoch, "train_loss": float(np.mean(losses)),
                         "val_loss": total / len(y_val)}
                if classify:
                    entry["val_acc"] = hits / len(y_val)
                if not np.isfinite([entry["train_loss"], entry["val_loss"]]).all():
                    raise ConfigError(f"{stage} stage diverged in epoch {epoch} at lr {cfg.lr}: "
                                      f"train_loss {entry['train_loss']}, "
                                      f"val_loss {entry['val_loss']}")
                history.append(entry)
                if best_epoch < 0 or entry["val_loss"] < history[best_epoch]["val_loss"]:
                    best = params.copy()
                    best_epoch = epoch
                elif epoch - best_epoch >= cfg.patience:
                    break
    finally:
        for k in frozen:
            params.tensors[k].requires_grad = True
    for k in frozen:
        best.tensors[k].requires_grad = True
    return best, history


# ---------------------------------------------------------------------------
# stages


def pretrain(sessions, cfg: TrainConfig):
    """Mouse-velocity pretext pretraining; labels are never read.

    Returns (params_with_velocity_head, stats, history).
    """
    if cfg.input_mode in ("mouse_only", "mouse_gaze_comp"):
        raise ConfigError("the pretext stage predicts mouse velocity from gaze; "
                          "mouse input modes are not allowed")
    mcfg = model.ModelConfig(input_mode=cfg.input_mode)
    params = model.init_params(mcfg, cfg.seed, head_kind=model.VELOCITY_HEAD)
    train_w, val_w, stats, counts = _stage_windows(sessions, cfg, params)
    best, history = _train_loop(
        params, params.learnable_names(),
        train_w.batch(mcfg.streams), train_w.vel_target.astype(np.float32),
        val_w.batch(mcfg.streams), val_w.vel_target.astype(np.float32),
        lambda out, v: mse_loss(out, Tensor(v)), cfg, "pretext")
    return best, stats, History(history, counts)


def _classifier_stage(params, stats, sessions, cfg: TrainConfig, stage: str,
                      trainable_names, permute_labels: bool = False):
    train_w, val_w, stats, counts = _stage_windows(sessions, cfg, params, stats)
    y_train = train_w.label
    if permute_labels:
        rng = np.random.default_rng([cfg.seed, 0x9e12])
        y_train = y_train[rng.permutation(y_train.size)]
    weights = Tensor(compute_class_weights(y_train))
    streams = params.config.streams
    best, history = _train_loop(
        params, trainable_names, train_w.batch(streams), y_train,
        val_w.batch(streams), val_w.label,
        lambda logits, y: weighted_cross_entropy(logits, y, weights), cfg, stage)
    return best, stats, History(history, counts)


def partial_trainable_names(params: model.ModelParams) -> list:
    """Partial fine-tuning updates the transformer layers and the head;
    encoders, cross-attention and the fusion projection stay frozen."""
    return [k for k in params.learnable_names()
            if k.startswith("tf") or k.startswith("head.")]


def finetune_params(params: model.ModelParams, stats, sessions, cfg: TrainConfig):
    """Swap the pretext head of `params` for a fresh classifier and fine-tune
    a copy; the caller's params are left untouched.

    cfg.freeze selects full (all parameters) or partial (transformer +
    head only) updates. Mouse data is never consumed here.
    """
    params = model.reinit_head(params, head_seed=cfg.seed + 1)
    if params.config.input_mode != cfg.input_mode:
        raise ConfigError(f"pretext input_mode {params.config.input_mode} "
                          f"!= requested {cfg.input_mode}")
    if "m" in params.config.streams:
        raise ConfigError("fine-tuning consumes gaze streams only")
    trainable = (params.learnable_names() if cfg.freeze == "full"
                 else partial_trainable_names(params))
    return _classifier_stage(params, stats, sessions, cfg, "finetune", trainable)


def finetune(checkpoint_path, sessions, cfg: TrainConfig):
    """`finetune_params` on a pretext checkpoint read from disk."""
    params, stats = model.load_checkpoint(checkpoint_path)
    return finetune_params(params, stats, sessions, cfg)


def supervised_train(sessions, cfg: TrainConfig, permute_labels: bool = False):
    """Weighted-CE training from random init; supports all input ablations."""
    mcfg = model.ModelConfig(input_mode=cfg.input_mode)
    params = model.init_params(mcfg, cfg.seed, head_kind=model.CLASSIFIER_HEAD)
    return _classifier_stage(params, None, sessions, cfg, "supervised",
                             params.learnable_names(), permute_labels=permute_labels)


# ---------------------------------------------------------------------------
# artifacts


def write_artifacts(out_dir, params, stats, history, cfg: TrainConfig,
                    extra_manifest: dict | None = None):
    """Checkpoint directory + history.jsonl + run.json."""
    out_dir = Path(out_dir)
    model.save_checkpoint(params, stats, out_dir / "checkpoint")
    with open(out_dir / "history.jsonl", "w") as f:
        for entry in history:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    manifest = {"config": asdict(cfg), **(extra_manifest or {})}
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
