"""Two-stage training recipe: mouse-velocity pretext pretraining, then
partial or full fine-tuning for intent classification, plus the purely
supervised baseline and the input-ablation configurations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from gazeintent import dataio, model
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
    keep = max(2, int(round(fraction * len(windows))))
    return windows[np.sort(rng.choice(len(windows), size=keep, replace=False))]


def _stage_windows(sessions, cfg: TrainConfig, mode: str, streams, fraction: float = 1.0,
                   stats=None):
    """One stage's windows: split by subject, collect `mode` windows (with
    mouse positions when `streams` holds "m"), keep `fraction` of the
    training windows, compute stats on them unless given, and normalize
    both splits. Returns (train windows, validation windows, stats)."""
    train_sessions, val_sessions = split_train_val(sessions, cfg)
    train_w = _subsample_labels(collect_windows(train_sessions, cfg, mode, "m" in streams),
                                fraction, cfg.seed)
    val_w = collect_windows(val_sessions, cfg, mode, "m" in streams)
    for split, windows in (("training", train_w), ("validation", val_w)):
        if not windows:
            raise DataError(f"no {mode} windows in the {split} split")
    if stats is None:
        stats = dataio.compute_stats(train_w, sessions[0].meta)
    return dataio.normalize(train_w, stats), dataio.normalize(val_w, stats), stats


# ---------------------------------------------------------------------------
# generic loop

EVAL_BATCH = 512  # rows per untaped forward in validation and `evaluate.predict_labels`


def _val_outputs(params, x_val: dict, n: int):
    """(slice, untaped forward output) for each EVAL_BATCH rows of `x_val`."""
    for i in range(0, n, EVAL_BATCH):
        sl = slice(i, i + EVAL_BATCH)
        yield sl, model.forward(params, {k: v[sl] for k, v in x_val.items()})


def _epoch_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _train_loop(params: model.ModelParams, trainable_names, make_loss,
                eval_val, n_train: int, cfg: TrainConfig, stage: str):
    """Adam loop with early stopping on held-out-subject validation loss.
    Only the tensors in `trainable_names` require gradients while the loop
    runs, so the tape records no backward work for frozen ones. Steps and
    validation run with numpy's overflow, invalid and divide warnings off;
    an epoch whose train or validation loss is not finite raises
    ConfigError instead. Returns (best_params, history)."""
    trainable = {k: params.tensors[k] for k in trainable_names}
    frozen = [k for k, t in params.tensors.items() if k not in trainable and t.requires_grad]
    for k in frozen:
        params.tensors[k].requires_grad = False
    state = AdamState.for_params(trainable)
    rng = np.random.default_rng([cfg.seed, STAGES.index(stage)])
    history = []
    best_epoch = -1
    try:
        # a diverging stage overflows; the finite-loss check below reports it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch in range(cfg.max_epochs):
                losses = []
                for idx in _epoch_batches(n_train, cfg.batch_size, rng):
                    zero_grads(params.tensors.values())
                    with Tape() as tape:
                        loss = make_loss(idx)
                    backward(loss, tape, params=trainable.values())
                    adam_step(trainable, collect_grads(trainable), state,
                              lr=cfg.lr, weight_decay=cfg.weight_decay)
                    losses.append(loss.item())
                entry = {"stage": stage, "epoch": epoch,
                         "train_loss": float(np.mean(losses)), **eval_val(params)}
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
    train_w, val_w, stats = _stage_windows(sessions, cfg, "pretext", mcfg.streams)
    params = model.init_params(mcfg, cfg.seed, head_kind=model.VELOCITY_HEAD)
    x_train, v_train = train_w.batch(mcfg.streams), train_w.vel_target.astype(np.float32)
    x_val, v_val = val_w.batch(mcfg.streams), val_w.vel_target.astype(np.float32)

    def make_loss(idx):
        batch = {k: v[idx] for k, v in x_train.items()}
        return mse_loss(model.forward(params, batch), Tensor(v_train[idx]))

    def eval_val(p):
        total = 0.0
        for sl, out in _val_outputs(p, x_val, len(v_val)):
            total += mse_loss(out, Tensor(v_val[sl])).item() * len(v_val[sl])
        return {"val_loss": total / len(v_val)}

    best, history = _train_loop(params, params.learnable_names(), make_loss,
                                eval_val, len(train_w), cfg, "pretext")
    return best, stats, history


def _classifier_stage(params, stats, sessions, cfg: TrainConfig, stage: str,
                      trainable_names, permute_labels: bool = False):
    mcfg = params.config
    train_w, val_w, stats = _stage_windows(sessions, cfg, "labeled", mcfg.streams,
                                           cfg.label_fraction, stats)
    x_train, y_train = train_w.batch(mcfg.streams), train_w.label
    x_val, y_val = val_w.batch(mcfg.streams), val_w.label
    if permute_labels:
        rng = np.random.default_rng([cfg.seed, 0x9e12])
        y_train = y_train[rng.permutation(y_train.size)]
    weights = Tensor(compute_class_weights(y_train))

    def make_loss(idx):
        batch = {k: v[idx] for k, v in x_train.items()}
        return weighted_cross_entropy(model.forward(params, batch), y_train[idx], weights)

    def eval_val(p):
        # one untaped forward per slice gives both the loss and the accuracy
        total, hits = 0.0, 0
        for sl, logits in _val_outputs(p, x_val, y_val.size):
            total += weighted_cross_entropy(logits, y_val[sl], weights).item() * y_val[sl].size
            hits += int((softmax_lastaxis(logits).data.argmax(axis=1) == y_val[sl]).sum())
        return {"val_loss": total / y_val.size, "val_acc": hits / y_val.size}

    best, history = _train_loop(params, trainable_names, make_loss, eval_val,
                                len(train_w), cfg, stage)
    return best, stats, history


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
