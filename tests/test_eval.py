import dataclasses
import json

import numpy as np
import pytest

from gazeintent import dataio, evaluate, model, synth, train
from gazeintent.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def sessions():
    cfg = synth.SynthConfig(n_subjects=3, session_len=10.0, seed=5)
    return [synth.generate_session(cfg, i, "text") for i in range(3)]


class TestConfusion:
    def test_hand_case(self):
        pred = [0, 0, 1, 1, 0]
        gold = [0, 1, 1, 0, 0]
        reading, scanning = evaluate.class_counts(pred, gold)
        assert reading == {"tp": 2, "fp": 1, "fn": 1, "tn": 1}
        assert scanning == {"tp": 1, "fp": 1, "fn": 1, "tn": 2}

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            pred = rng.integers(0, 2, n)
            gold = rng.integers(0, 2, n)
            for cls, c in zip((0, 1), evaluate.class_counts(pred, gold)):
                tp = sum(1 for p, g in zip(pred, gold) if p == cls and g == cls)
                fp = sum(1 for p, g in zip(pred, gold) if p == cls and g != cls)
                fn = sum(1 for p, g in zip(pred, gold) if p != cls and g == cls)
                tn = n - tp - fp - fn
                assert c == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}

    @pytest.mark.parametrize("pred,gold", [([0, 2], [0, 1]), ([0, 1], [-1, 1]),
                                           ([0.5, 1], [0, 1]), ([0, 1], [np.nan, 1])])
    def test_class_id_other_than_0_or_1_rejected(self, pred, gold):
        # before, such an id counted as a negative of both classes
        with pytest.raises(DataError, match="class ids must be 0 or 1"):
            evaluate.class_counts(pred, gold)


class TestF1:
    def test_perfect_prediction(self):
        assert evaluate.f1_per_class([0, 1, 0], [0, 1, 0]) == (100.0, 100.0)

    def test_hand_case(self):
        # reading: tp=2 fp=1 fn=1 -> F1 = 2*2/(4+1+1); scanning symmetric
        pred = [0, 0, 1, 1, 0]
        gold = [0, 1, 1, 0, 0]
        f1_r, f1_s = evaluate.f1_per_class(pred, gold)
        assert f1_r == pytest.approx(100.0 * 4 / 6)
        assert f1_s == pytest.approx(100.0 * 2 / 4)

    def test_against_formula_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 100))
            pred = rng.integers(0, 2, n)
            gold = rng.integers(0, 2, n)
            got = evaluate.f1_per_class(pred, gold)
            for cls, f1 in zip((0, 1), got):
                if not (gold == cls).any():
                    continue
                tp = ((pred == cls) & (gold == cls)).sum()
                prec = tp / max((pred == cls).sum(), 1)
                rec = tp / (gold == cls).sum()
                expect = 0.0 if prec + rec == 0 else 200.0 * prec * rec / (prec + rec)
                assert f1 == pytest.approx(expect)

    def test_absent_class_conventions(self):
        # class never in gold nor predictions: vacuous 100
        assert evaluate.f1_per_class([0, 0], [0, 0]) == (100.0, 100.0)
        # class predicted but absent in gold: 0
        assert evaluate.f1_per_class([0, 1], [0, 0])[1] == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError, match="class_counts requires equal-length, non-empty"):
            evaluate.f1_per_class([], [])
        with pytest.raises(DataError, match="class_counts requires equal-length, non-empty"):
            evaluate.f1_per_class([0], [0, 1])

    @pytest.mark.parametrize("f1_r, f1_s, expected", [
        (91.27, 68.78, 80.02),
        (93.13, 78.80, 85.97),
        (68.39, 71.62, 70.01),
    ])
    def test_macro_f1_reference_triples(self, f1_r, f1_s, expected):
        assert evaluate.macro_f1(f1_r, f1_s) == pytest.approx(expected, abs=0.05)


@pytest.fixture(scope="module")
def report(sessions):
    cfg = train.TrainConfig(stride=12, batch_size=128, max_epochs=1)
    return evaluate.loso_evaluate(sessions, "supervised", cfg)


class TestLoso:
    def test_one_fold_per_subject(self, report):
        assert [f.subject for f in report.folds] == ["S00", "S01", "S02"]
        assert report.skipped == []

    def test_fold_metrics_consistent(self, report):
        for f in report.folds:
            assert f.f1_overall == pytest.approx(
                evaluate.macro_f1(f.f1_reading, f.f1_scanning))
            for counts in (f.counts_reading, f.counts_scanning):
                assert sum(counts.values()) == f.n_windows > 0
            assert (f.counts_reading["tp"], f.counts_reading["fn"]) == \
                (f.counts_scanning["tn"], f.counts_scanning["fp"])

    @pytest.mark.parametrize("pipeline", ["semi_partial", "supervised"])
    def test_report_config_is_the_config_its_folds_ran(self, sessions, monkeypatch, pipeline):
        ran = []
        stage = train._stage
        monkeypatch.setattr(train, "_stage", lambda params, sessions, cfg, *a, **k: (
            ran.append(cfg) or stage(params, sessions, cfg, *a, **k)))
        cfg = train.TrainConfig(stride=24, batch_size=128, max_epochs=1, freeze="partial")
        rep = evaluate.loso_evaluate(sessions, pipeline, dataclasses.replace(cfg, seed=3))
        row = evaluate.PIPELINES[pipeline]
        assert rep.config.freeze == row.freeze
        assert rep.config == dataclasses.replace(cfg, seed=3, freeze=rep.config.freeze)
        assert {c.freeze for c in ran} == {rep.config.freeze}
        assert len(ran) == 3 * {"semi_partial": 2, "supervised": 1}[pipeline]

    def test_mean_is_average_of_folds(self, report):
        assert report.f1_overall == pytest.approx(
            np.mean([f.f1_overall for f in report.folds]))

    def test_report_json_and_table(self, report):
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["pipeline"] == "supervised"
        assert len(doc["folds"]) == 3
        assert doc["mean"]["f1_overall"] == pytest.approx(report.f1_overall)
        table = report.table()
        assert table.splitlines()[0].startswith("Fold")
        assert table.splitlines()[-1].startswith("mean")

    def test_too_few_subjects_rejected(self, sessions):
        with pytest.raises(DataError, match="3 subjects"):
            evaluate.loso_evaluate(sessions[:2], "supervised",
                                   train.TrainConfig())

    def test_unknown_pipeline_rejected(self, sessions):
        with pytest.raises(ConfigError):
            evaluate.loso_evaluate(sessions, "semi", train.TrainConfig())

    @pytest.mark.parametrize("pipeline", ["semi_partial", "semi_full"])
    def test_semi_pipelines_write_no_checkpoint(self, sessions, monkeypatch, pipeline):
        def refuse(*args, **kwargs):
            raise AssertionError("LOSO must not go through a checkpoint")
        monkeypatch.setattr(model, "save_checkpoint", refuse)
        monkeypatch.setattr(model, "load_checkpoint", refuse)
        cfg = train.TrainConfig(stride=24, batch_size=128, max_epochs=1)
        rep = evaluate.loso_evaluate(sessions, pipeline, cfg)
        assert [f.subject for f in rep.folds] == ["S00", "S01", "S02"]

    def test_subject_without_labeled_windows_skipped(self):
        # S01 has no labels: its fold is skipped, and it trains (or
        # validates) in no other fold
        cfg = synth.SynthConfig(n_subjects=4, session_len=8.0, seed=5)
        sessions = [synth.generate_session(cfg, i, "text") for i in range(4)]
        sessions[1] = dataclasses.replace(sessions[1], labels=[])
        rep = evaluate.loso_evaluate(sessions, "supervised",
                                     train.TrainConfig(stride=24, max_epochs=1))
        assert rep.skipped == ["S01"]
        assert [f.subject for f in rep.folds] == ["S00", "S02", "S03"]
        assert rep.to_json()["skipped_subjects"] == ["S01"]
        sessions[2] = dataclasses.replace(sessions[2], labels=[])
        with pytest.raises(DataError, match="3 subjects with labeled windows, got 2"):
            evaluate.loso_evaluate(sessions, "supervised", train.TrainConfig())

    def test_two_screen_sizes_rejected(self, sessions, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no fold may train")
        monkeypatch.setattr(train, "supervised_train", refuse)
        small = dataclasses.replace(sessions[2].meta, screen_w=1280.0, screen_h=720.0)
        mixed = sessions[:2] + [dataclasses.replace(sessions[2], meta=small)]
        with pytest.raises(DataError, match="screen size"):
            evaluate.loso_evaluate(mixed, "supervised", train.TrainConfig())

    @pytest.mark.parametrize("pipeline", ["supervised", "random"])
    @pytest.mark.parametrize("input_mode", ["mouse_gaze_comp", "mouse_only"])
    def test_mouse_modes_test_on_mouse_windows(self, sessions, monkeypatch, pipeline,
                                               input_mode):
        tested = []
        predict = evaluate.predict_labels
        monkeypatch.setattr(evaluate, "predict_labels", lambda params, stats, windows: (
            tested.append(windows) or predict(params, stats, windows)))
        cfg = train.TrainConfig(stride=24, batch_size=128, max_epochs=1, input_mode=input_mode)
        rep = evaluate.loso_evaluate(sessions, pipeline, cfg)
        assert [f.subject for f in rep.folds] == ["S00", "S01", "S02"]
        assert [f.n_windows for f in rep.folds] == [len(w) for w in tested]
        assert all(w.m is not None and w.m.shape == w.g.shape for w in tested)

    @pytest.mark.parametrize("index,validated", [(0, ["S01", "S02", "S00"]),
                                                 (1, ["S02", "S00", "S01"])])
    def test_fold_validates_on_offset_subject(self, sessions, monkeypatch, index, validated):
        # fold k validates on training subject val_subject_index + k, as it trains at seed + k
        seen = []
        split = train.split_train_val
        monkeypatch.setattr(train, "split_train_val", lambda sessions, cfg: (
            seen.append((splits := split(sessions, cfg))[1][0].meta.subject_id) or splits))
        cfg = train.TrainConfig(stride=24, batch_size=128, max_epochs=1, val_subject_index=index)
        evaluate.loso_evaluate(sessions, "supervised", cfg)
        assert seen == validated

    def test_random_pipeline_differs_from_supervised(self, sessions, report):
        cfg = train.TrainConfig(stride=12, batch_size=128, max_epochs=1)
        rnd = evaluate.loso_evaluate(sessions, "random", cfg)
        assert rnd.pipeline == "random"
        sup_f1s = [f.f1_overall for f in report.folds]
        rnd_f1s = [f.f1_overall for f in rnd.folds]
        assert sup_f1s != rnd_f1s

    @pytest.mark.parametrize("pretext", [False, True])
    def test_row_permutation_reaches_its_classifier_stage(self, sessions, monkeypatch, pretext):
        ran = []
        stage = train._stage
        monkeypatch.setattr(train, "_stage", lambda params, sessions, cfg, name, *a, **k: (
            ran.append((name, k.get("permute_labels", False)))
            or stage(params, sessions, cfg, name, *a, **k)))
        monkeypatch.setitem(evaluate.PIPELINES, "permuted",
                            evaluate.Pipeline(pretext, "full", True))
        cfg = train.TrainConfig(stride=24, batch_size=128, max_epochs=1)
        evaluate.loso_evaluate(sessions, "permuted", cfg)
        fold = [("pretext", False), ("finetune", True)] if pretext else [("supervised", True)]
        assert ran == fold * 3


class TestPredictLabels:
    def test_gold_labels_passed_through(self, sessions):
        cfg = train.TrainConfig(stride=12, batch_size=128, max_epochs=1)
        params, stats, _ = train.supervised_train(sessions, cfg)
        wins = train.collect_windows(sessions[:1], cfg, params.head_kind)
        pred, gold = evaluate.predict_labels(params, stats, wins)
        assert pred.shape == gold.shape == (len(wins),)
        np.testing.assert_array_equal(gold, [w.label for w in wins])
        assert set(np.unique(pred)) <= {0, 1}
