"""Metrics, the leave-one-subject-out harness, and the permuted-label
sanity baseline."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from gazeintent import dataio, model, train
from gazeintent.errors import ConfigError, DataError

PIPELINES = ("supervised", "semi_partial", "semi_full", "random")


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


def confusion(pred, gold, positive: int) -> ConfusionCounts:
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    return ConfusionCounts(
        tp=int(((pred == positive) & (gold == positive)).sum()),
        fp=int(((pred == positive) & (gold != positive)).sum()),
        fn=int(((pred != positive) & (gold == positive)).sum()),
        tn=int(((pred != positive) & (gold != positive)).sum()),
    )


def _f1_from_counts(c: ConfusionCounts, in_gold: bool, in_pred: bool) -> float:
    if not in_gold:
        # degenerate conventions: class absent everywhere is a vacuous 100
        return 100.0 if not in_pred else 0.0
    denom = 2 * c.tp + c.fp + c.fn
    return 100.0 * 2 * c.tp / denom if denom else 0.0


def f1_per_class(pred, gold):
    """Per-class F1 in percent, classes (reading, scanning)."""
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    if pred.size == 0 or pred.size != gold.size:
        raise DataError("f1_per_class requires equal-length, non-empty inputs")
    out = []
    for cls in (dataio.READING, dataio.SCANNING):
        c = confusion(pred, gold, cls)
        out.append(_f1_from_counts(c, in_gold=bool((gold == cls).any()),
                                   in_pred=bool((pred == cls).any())))
    return tuple(out)


def macro_f1(f1_reading: float, f1_scanning: float) -> float:
    """The overall score: unweighted mean of the two class F1s."""
    return (f1_reading + f1_scanning) / 2.0


@dataclass
class FoldResult:
    subject: str
    f1_reading: float
    f1_scanning: float
    f1_overall: float
    n_windows: int
    counts_reading: ConfusionCounts
    counts_scanning: ConfusionCounts


@dataclass
class F1Report:
    pipeline: str
    folds: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def f1_reading(self) -> float:
        return float(np.mean([f.f1_reading for f in self.folds]))

    @property
    def f1_scanning(self) -> float:
        return float(np.mean([f.f1_scanning for f in self.folds]))

    @property
    def f1_overall(self) -> float:
        return float(np.mean([f.f1_overall for f in self.folds]))

    def to_json(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "folds": [{**asdict(f)} for f in self.folds],
            "skipped_subjects": self.skipped,
            "mean": {"f1_reading": self.f1_reading,
                     "f1_scanning": self.f1_scanning,
                     "f1_overall": self.f1_overall},
        }

    def table(self) -> str:
        lines = [f"{'Fold':<8}{'Reading F1':>12}{'Scanning F1':>13}{'Overall F1':>12}"]
        for f in self.folds:
            lines.append(f"{f.subject:<8}{f.f1_reading:>12.2f}{f.f1_scanning:>13.2f}{f.f1_overall:>12.2f}")
        lines.append(f"{'mean':<8}{self.f1_reading:>12.2f}{self.f1_scanning:>13.2f}{self.f1_overall:>12.2f}")
        return "\n".join(lines)


def predict_labels(params: model.ModelParams, stats, windows, batch_size: int = 512):
    """Classify normalized-on-the-fly windows; returns (pred, gold) arrays."""
    windows = dataio.normalize(windows, stats)
    streams = params.config.streams
    preds = [model.predict_proba(params, windows[i:i + batch_size].batch(streams)).argmax(axis=1)
             for i in range(0, len(windows), batch_size)]
    return np.concatenate(preds), windows.label


def loso_evaluate(sessions, pipeline: str, cfg: train.TrainConfig) -> F1Report:
    """Hold out each subject in turn; train on the rest, test on the held-out.

    Semi pipelines pretrain on the training subjects' unlabeled windows
    inside every fold, so the test subject never leaks into pretraining
    or normalization statistics.
    """
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    by_subject = train.split_by_subject(sessions)
    subjects = sorted(by_subject)
    if len(subjects) < 3:
        raise DataError(f"LOSO needs at least 3 subjects, got {len(subjects)}")
    report = F1Report(pipeline=pipeline)
    for fold_idx, test_subject in enumerate(subjects):
        train_sessions = [s for s in sessions if s.meta.subject_id != test_subject]
        test_windows = train.collect_windows(by_subject[test_subject], cfg, "labeled")
        if not test_windows:
            import logging
            logging.getLogger(__name__).warning(
                "subject %s has no valid windows; fold skipped", test_subject)
            report.skipped.append(test_subject)
            continue
        fold_cfg = replace(cfg, seed=cfg.seed + fold_idx)
        if pipeline == "supervised":
            params, stats, _ = train.supervised_train(
                train_sessions, replace(fold_cfg, val_subject_index=fold_idx))
        elif pipeline == "random":
            params, stats, _ = train.supervised_train(
                train_sessions, replace(fold_cfg, val_subject_index=fold_idx),
                permute_labels=True)
        else:
            pre_params, pre_stats, _ = train.pretrain(
                train_sessions, replace(fold_cfg, val_subject_index=fold_idx))
            import tempfile
            with tempfile.TemporaryDirectory() as tmp:
                ckpt = Path(tmp) / "pretext"
                model.save_checkpoint(pre_params, pre_stats, ckpt)
                ft_cfg = replace(fold_cfg, val_subject_index=fold_idx,
                                 freeze="partial" if pipeline == "semi_partial" else "full")
                params, stats, _ = train.finetune(ckpt, train_sessions, ft_cfg)
        pred, gold = predict_labels(params, stats, test_windows)
        f1_r, f1_s = f1_per_class(pred, gold)
        report.folds.append(FoldResult(
            subject=test_subject,
            f1_reading=f1_r, f1_scanning=f1_s, f1_overall=macro_f1(f1_r, f1_s),
            n_windows=len(test_windows),
            counts_reading=confusion(pred, gold, dataio.READING),
            counts_scanning=confusion(pred, gold, dataio.SCANNING),
        ))
    return report


def write_report(report: F1Report, path, extra: dict | None = None) -> None:
    doc = report.to_json()
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))
