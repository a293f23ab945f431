"""Metrics, the leave-one-subject-out harness, and the permuted-label
sanity baseline."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from gazeintent import dataio, model, train
from gazeintent.errors import ConfigError, DataError
from gazeintent.numerics import softmax_lastaxis

PIPELINES = ("supervised", "semi_partial", "semi_full", "random")

_log = logging.getLogger(__name__)


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


def _f1_from_counts(c: ConfusionCounts) -> float:
    if c.tp + c.fn == 0:
        # class absent from gold: a vacuous 100 unless it was predicted
        return 100.0 if c.tp + c.fp == 0 else 0.0
    return 100.0 * 2 * c.tp / (2 * c.tp + c.fp + c.fn)


def _class_counts(pred, gold) -> tuple:
    """(reading, scanning) confusion counts of equal-length, non-empty inputs."""
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    if pred.size == 0 or pred.size != gold.size:
        raise DataError("f1_per_class requires equal-length, non-empty inputs")
    return tuple(confusion(pred, gold, cls) for cls in (dataio.READING, dataio.SCANNING))


def f1_per_class(pred, gold):
    """Per-class F1 in percent, classes (reading, scanning)."""
    return tuple(_f1_from_counts(c) for c in _class_counts(pred, gold))


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


def predict_labels(params: model.ModelParams, stats, windows):
    """Classify normalized-on-the-fly windows; returns (pred, gold) arrays."""
    if params.head_kind != model.CLASSIFIER_HEAD:
        raise ConfigError("predict_labels requires the classifier head")
    windows = dataio.normalize(windows, stats)
    x = windows.batch(params.config.streams)
    preds = [softmax_lastaxis(train.forward_rows(params, x, slice(i, i + train.EVAL_BATCH)))
             .data.argmax(axis=1) for i in range(0, len(windows), train.EVAL_BATCH)]
    return np.concatenate(preds), windows.label


def loso_evaluate(sessions, pipeline: str, cfg: train.TrainConfig) -> F1Report:
    """Hold out each subject in turn; train on the rest, test on the held-out.

    Semi pipelines pretrain on the training subjects' unlabeled windows
    inside every fold, so the test subject never leaks into pretraining
    or normalization statistics. A subject without labeled windows is
    listed in `skipped` and left out of every fold. All sessions must share
    one screen size.
    """
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    by_subject = train.split_by_subject(sessions)
    report = F1Report(pipeline=pipeline)
    folds = {}
    for subject in sorted(by_subject):
        windows = train.collect_windows(by_subject[subject], cfg, "labeled")
        if windows:
            folds[subject] = windows
        else:
            # it trains in no fold: one validating on it would find no windows
            _log.warning("subject %s has no valid windows; fold skipped", subject)
            report.skipped.append(subject)
    if len(folds) < 3:
        raise DataError(f"LOSO needs at least 3 subjects with labeled windows, got {len(folds)}")
    dataio.one_screen(s.meta for s in sessions)
    sessions = [s for s in sessions if s.meta.subject_id in folds]
    for fold_idx, (test_subject, test_windows) in enumerate(folds.items()):
        train_sessions = [s for s in sessions if s.meta.subject_id != test_subject]
        fold_cfg = replace(cfg, seed=cfg.seed + fold_idx, val_subject_index=fold_idx)
        if pipeline in ("supervised", "random"):
            params, stats, _ = train.supervised_train(
                train_sessions, fold_cfg, permute_labels=(pipeline == "random"))
        else:
            pre_params, pre_stats, _ = train.pretrain(train_sessions, fold_cfg)
            params, stats, _ = train.finetune_params(
                pre_params, pre_stats, train_sessions,
                replace(fold_cfg, freeze="partial" if pipeline == "semi_partial" else "full"))
        pred, gold = predict_labels(params, stats, test_windows)
        counts_r, counts_s = _class_counts(pred, gold)
        f1_r, f1_s = _f1_from_counts(counts_r), _f1_from_counts(counts_s)
        report.folds.append(FoldResult(
            subject=test_subject,
            f1_reading=f1_r, f1_scanning=f1_s, f1_overall=macro_f1(f1_r, f1_s),
            n_windows=len(test_windows),
            counts_reading=counts_r, counts_scanning=counts_s,
        ))
    return report


def write_report(report: F1Report, path, extra: dict | None = None) -> None:
    doc = report.to_json()
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))
