"""Metrics, the leave-one-subject-out harness, and the permuted-label
sanity baseline. `loso_evaluate` alone makes a LOSO report: the config
its folds ran, and per fold the F1s and both classes' confusion counts."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace, asdict

import numpy as np

from gazeintent import dataio, model, shards, train
from gazeintent.errors import ConfigError, DataError
from gazeintent.numerics import Tensor, softmax_lastaxis

# each pipeline and the freeze its folds train the classifier with; the
# supervised and random pipelines train every tensor
PIPELINES = {"supervised": "full", "semi_partial": "partial", "semi_full": "full",
             "random": "full"}

_log = logging.getLogger(__name__)


def class_counts(pred, gold) -> tuple:
    """(reading, scanning) confusion counts {tp, fp, fn, tn} of equal-length,
    non-empty class-id inputs, read off one 2x2 matrix m[gold, pred]; an
    id other than READING or SCANNING raises DataError."""
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    if pred.size == 0 or pred.size != gold.size:
        raise DataError("class_counts requires equal-length, non-empty inputs")
    ids = np.union1d(pred, gold)
    if not np.isin(ids, (dataio.READING, dataio.SCANNING)).all():
        raise DataError(f"class ids must be {dataio.READING} or {dataio.SCANNING}, "
                        f"got {ids.tolist()}")
    m = np.bincount((2 * gold + pred).astype(np.intp), minlength=4).reshape(2, 2)
    # scanning's matrix is reading's with both classes swapped
    return tuple({"tp": int(k[0, 0]), "fp": int(k[1, 0]), "fn": int(k[0, 1]), "tn": int(k[1, 1])}
                 for k in (m, m[::-1, ::-1]))


def _f1_from_counts(c: dict) -> float:
    if c["tp"] + c["fn"] == 0:
        # class absent from gold: a vacuous 100 unless it was predicted
        return 100.0 if c["tp"] + c["fp"] == 0 else 0.0
    return 100.0 * 2 * c["tp"] / (2 * c["tp"] + c["fp"] + c["fn"])


def f1_per_class(pred, gold):
    """Per-class F1 in percent, classes (reading, scanning)."""
    return tuple(_f1_from_counts(c) for c in class_counts(pred, gold))


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
    counts_reading: dict
    counts_scanning: dict


@dataclass
class F1Report:
    """A pipeline's LOSO folds under `config`, the TrainConfig they ran
    (with the pipeline's freeze), and the subjects left out of every fold."""
    pipeline: str
    config: train.TrainConfig
    folds: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def means(self) -> dict:
        """Each F1 of a fold, averaged over the folds."""
        return {k: float(np.mean([getattr(f, k) for f in self.folds]))
                for k in ("f1_reading", "f1_scanning", "f1_overall")}

    @property
    def f1_overall(self) -> float:
        return self.means()["f1_overall"]

    def to_json(self) -> dict:
        return {"pipeline": self.pipeline, "folds": [asdict(f) for f in self.folds],
                "skipped_subjects": self.skipped, "mean": self.means()}

    def table(self) -> str:
        lines = [f"{'Fold':<8}{'Reading F1':>12}{'Scanning F1':>13}{'Overall F1':>12}"]
        rows = [(f.subject, f.f1_reading, f.f1_scanning, f.f1_overall) for f in self.folds]
        for name, f1_r, f1_s, f1 in rows + [("mean", *self.means().values())]:
            lines.append(f"{name:<8}{f1_r:>12.2f}{f1_s:>13.2f}{f1:>12.2f}")
        return "\n".join(lines)


def predict_labels(params: model.ModelParams, stats, windows):
    """Classify normalized-on-the-fly windows; returns (pred, gold) arrays."""
    if params.head_kind != model.CLASSIFIER_HEAD:
        raise ConfigError("predict_labels requires the classifier head")
    windows = dataio.normalize(windows, stats)
    logits = Tensor(shards.forward(params, windows.batch(params.config.streams)))
    return softmax_lastaxis(logits).data.argmax(axis=1), windows.label


def loso_evaluate(sessions, pipeline: str, cfg: train.TrainConfig) -> F1Report:
    """Hold out each subject in turn; train on the rest, test on the held-out.

    Semi pipelines pretrain on the training subjects' unlabeled windows
    inside every fold, so the test subject never leaks into pretraining
    or normalization statistics. Each subject is tested on the windows
    that `train.collect_windows` gives a classifier of cfg.input_mode; a
    subject without any is listed in `skipped` and left out of every fold.
    All sessions must share one screen size. Fold k trains at seed
    cfg.seed + k and validates on training subject cfg.val_subject_index + k.
    Every fold runs cfg with the pipeline's freeze (`PIPELINES`), and the
    report's `config` is that TrainConfig.
    """
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    cfg = replace(cfg, freeze=PIPELINES[pipeline])
    by_subject = train.split_by_subject(sessions)
    report = F1Report(pipeline=pipeline, config=cfg)
    folds = {}
    for subject in sorted(by_subject):
        windows = train.collect_windows(by_subject[subject], cfg, model.CLASSIFIER_HEAD)
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
        fold_cfg = replace(cfg, seed=cfg.seed + fold_idx,
                           val_subject_index=cfg.val_subject_index + fold_idx)
        if pipeline in ("supervised", "random"):
            params, stats, _ = train.supervised_train(
                train_sessions, fold_cfg, permute_labels=(pipeline == "random"))
        else:
            pre_params, pre_stats, _ = train.pretrain(train_sessions, fold_cfg)
            params, stats, _ = train.finetune_params(pre_params, pre_stats, train_sessions,
                                                     fold_cfg)
        counts = class_counts(*predict_labels(params, stats, test_windows))
        f1_r, f1_s = (_f1_from_counts(c) for c in counts)
        report.folds.append(FoldResult(test_subject, f1_r, f1_s, macro_f1(f1_r, f1_s),
                                       len(test_windows), *counts))
    return report
