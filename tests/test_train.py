import copy
import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

from gazeintent import dataio, model, shards, synth, train
from gazeintent.errors import ConfigError, DataError
from gazeintent.numerics import (AdamState, Tape, Tensor, adam_step, backward,
                                 collect_grads, mse_loss, weighted_cross_entropy)
from test_cli import UNREAD
from test_dataio import VELOCITY_FAULTS, break_velocity


@pytest.fixture(scope="module")
def sessions():
    cfg = synth.SynthConfig(n_subjects=3, session_len=10.0, seed=5)
    return [synth.generate_session(cfg, i, "text") for i in range(3)]


def quick_cfg(**kw):
    kw.setdefault("stride", 6)
    kw.setdefault("batch_size", 128)
    kw.setdefault("max_epochs", 2)
    kw.setdefault("patience", 2)
    return train.TrainConfig(**kw)


class TestClassWeights:
    def test_inverse_frequency_hand_case(self):
        labels = np.array([0] * 80 + [1] * 20)
        np.testing.assert_allclose(train.compute_class_weights(labels),
                                   [0.625, 2.5])

    def test_balanced_gives_unit_weights(self):
        np.testing.assert_allclose(
            train.compute_class_weights([0, 1, 0, 1]), [1.0, 1.0])

    def test_weighted_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            labels = rng.integers(0, 2, size=rng.integers(10, 200))
            if labels.min() == labels.max():
                continue
            w = train.compute_class_weights(labels)
            counts = np.array([(labels == 0).sum(), (labels == 1).sum()])
            assert (counts * w).sum() == pytest.approx(labels.size)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train.compute_class_weights([1, 1, 1])


class TestSplits:
    def test_split_by_subject(self, sessions):
        by = train.split_by_subject(sessions)
        assert sorted(by) == ["S00", "S01", "S02"]
        assert all(len(v) == 1 for v in by.values())

    def test_val_subject_rotates(self):
        subjects = ["S02", "S00", "S01"]
        assert train._pick_val_subject(subjects, 0) == "S00"
        assert train._pick_val_subject(subjects, 1) == "S01"
        assert train._pick_val_subject(subjects, 3) == "S00"

    def test_single_subject_rejected(self):
        with pytest.raises(DataError):
            train._pick_val_subject(["S00"], 0)


class TestLabelSubsampling:
    def _windows(self, n):
        return dataio.Windows.from_rows(
            dataio.Window(g=np.full((2, 24), i), c=np.zeros((2, 24)),
                          t_end=i * 0.1, subject_id="S00", label=i % 2)
            for i in range(n))

    def test_full_fraction_is_identity(self):
        wins = self._windows(10)
        assert train._subsample_labels(wins, 1.0, seed=0) is wins

    def test_keeps_rounded_fraction_in_order(self):
        wins = self._windows(100)
        kept = train._subsample_labels(wins, 0.1, seed=0)
        assert len(kept) == 10
        ts = [w.t_end for w in kept]
        assert ts == sorted(ts)

    def test_deterministic_per_seed(self):
        wins = self._windows(50)
        a = train._subsample_labels(wins, 0.2, seed=3)
        b = train._subsample_labels(wins, 0.2, seed=3)
        c = train._subsample_labels(wins, 0.2, seed=4)
        assert [w.t_end for w in a] == [w.t_end for w in b]
        assert [w.t_end for w in a] != [w.t_end for w in c]

    def test_floor_of_two(self):
        wins = self._windows(30)
        assert len(train._subsample_labels(wins, 0.01, seed=0)) == 2

    def test_single_window_kept(self):
        wins = self._windows(1)
        assert len(train._subsample_labels(wins, 0.5, seed=0)) == 1


class TestConfigValidation:
    def test_bad_freeze(self):
        with pytest.raises(ConfigError):
            quick_cfg(freeze="none")

    def test_bad_label_fraction(self):
        with pytest.raises(ConfigError):
            quick_cfg(label_fraction=0.0)

    def test_bad_input_mode(self):
        with pytest.raises(ConfigError):
            quick_cfg(input_mode="gaze")

    def test_stride_is_an_int64(self):
        # windowize steps through window starts as numpy int64
        assert quick_cfg(stride=2**63 - 1).stride == 2**63 - 1
        with pytest.raises(ConfigError, match=rf"stride must be in \[1, {2**63 - 1}\], "
                                              rf"got {2**63}"):
            quick_cfg(stride=2**63)

    def test_fields_are_the_ones_a_run_sets(self):
        # the optimizer's lr and weight decay are numerics.adam constants, not fields
        assert [f.name for f in dataclasses.fields(train.TrainConfig)] == [
            "batch_size", "max_epochs", "patience", "seed", "freeze", "input_mode", "stride",
            "label_fraction", "val_subject_index"]


@pytest.mark.parametrize("stage,mode", [("supervised_train", "labeled"), ("pretrain", "pretext")])
def test_step_functions_called_through_train_module(sessions, monkeypatch, stage, mode):
    # perfbench's tracer counts steps by wrapping these names in `train`
    calls = {}
    for name in ("zero_grads", "backward", "adam_step"):
        def counted(*args, _name=name, _fn=getattr(train, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(train, name, counted)
    cfg = quick_cfg(max_epochs=1, batch_size=64)
    params, _, _ = getattr(train, stage)(sessions, cfg)
    assert train.HEAD_WINDOWS[params.head_kind] == mode
    n = len(train.collect_windows(train.split_train_val(sessions, cfg)[0], cfg,
                                  params.head_kind))
    assert calls == dict.fromkeys(("zero_grads", "backward", "adam_step"), -(-n // 64))
    assert -(-n // 64) > 1


class TestStageWindows:
    @pytest.mark.parametrize("head,input_mode,mode", [
        (model.VELOCITY_HEAD, "gaze_plus_comp", "pretext"),
        (model.CLASSIFIER_HEAD, "gaze_only", "labeled"),
        (model.CLASSIFIER_HEAD, "mouse_gaze_comp", "labeled"),
    ])
    def test_head_and_streams_pick_the_windows(self, sessions, head, input_mode, mode):
        cfg = quick_cfg(input_mode=input_mode)
        with_mouse = "m" in model.ModelConfig(input_mode=input_mode).streams
        for split in train.split_train_val(sessions, cfg):
            windows = train.collect_windows(split, cfg, head)
            want = dataio.Windows.concat([dataio.windowize(s, cfg.stride, mode,
                                                           with_mouse=with_mouse)
                                          for s in split])
            assert windows.counts == want.counts and len(windows) == len(want) > 0
            assert (windows.m is not None) == with_mouse
            assert (windows.label >= 0).all() == (mode == "labeled")
            np.testing.assert_array_equal(windows.g, want.g)

    def test_empty_split_rejected(self, sessions):
        cfg = quick_cfg()
        train_sessions, _ = train.split_train_val(sessions, cfg)
        stripped = [copy.deepcopy(s) for s in sessions]
        for s in stripped:
            if s.meta.subject_id != train_sessions[0].meta.subject_id:
                s.labels = []
        with pytest.raises(DataError, match="no labeled windows in the validation split"):
            train.supervised_train(stripped, cfg)


def mixed_screen_sessions():
    """Two 1920 x 1080 subjects and one 1280 x 720 subject."""
    big = synth.SynthConfig(n_subjects=3, session_len=8.0, seed=5)
    small = synth.SynthConfig(n_subjects=3, session_len=8.0, seed=5,
                              screen_w=1280.0, screen_h=720.0)
    return [synth.generate_session(cfg, i, "text") for i, cfg in enumerate((big, big, small))]


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1]])
def test_stage_with_two_screen_sizes_rejected(order):
    sessions = mixed_screen_sessions()
    sessions = [sessions[i] for i in order]
    with pytest.raises(DataError, match="screen size"):
        train.supervised_train(sessions, quick_cfg(max_epochs=1))


def test_early_stopping_returns_best_epoch():
    # the validation loss rises after epoch 0: with patience p the loop
    # runs p + 1 epochs and returns the params it had after epoch 0
    patience = 2
    cfg = quick_cfg(max_epochs=10, patience=patience, batch_size=16)
    params = model.init_params(model.ModelConfig(input_mode="gaze_only"), 0,
                               head_kind=model.VELOCITY_HEAD)
    rng = np.random.default_rng(4)
    x = {"g": rng.normal(size=(16, 2, dataio.WINDOW_LEN)).astype(np.float32)}
    y_train = np.zeros((16, 2), dtype=np.float32)
    y_val = np.ones((16, 2), dtype=np.float32)
    after_epoch = []

    def loss_fn(out, targets):
        if targets[0, 0] == 0:  # a training batch
            return mse_loss(out, Tensor(targets))
        after_epoch.append(params.checksum())
        return Tensor(np.float32(len(after_epoch)))

    best, history = train._train_loop(params, x, y_train, x, y_val, loss_fn, cfg, "pretext")
    assert [h["epoch"] for h in history] == list(range(patience + 1))
    assert [h["val_loss"] for h in history] == [1.0, 2.0, 3.0]
    assert all("val_acc" not in h for h in history)
    assert best.checksum() == after_epoch[0] != params.checksum()


@pytest.mark.parametrize("head", [model.CLASSIFIER_HEAD, model.VELOCITY_HEAD])
def test_val_loss_is_the_loss_of_the_whole_split(head):
    # 1,200 validation rows, the first 512 mostly reading and the rest mostly
    # scanning, scored by class weights of a 3:1 training split: a loss
    # averaged over row slices would weight the classes differently
    cfg = quick_cfg(max_epochs=1, batch_size=64)
    params = model.init_params(model.ModelConfig(input_mode="gaze_only"), 0, head_kind=head)
    rng = np.random.default_rng(7)
    x_train = {"g": rng.normal(size=(64, 2, dataio.WINDOW_LEN))}
    x_val = {"g": rng.normal(size=(1200, 2, dataio.WINDOW_LEN))}
    if head == model.CLASSIFIER_HEAD:
        y_train = (np.arange(64) % 4 == 0).astype(np.int64)
        y_val = np.r_[np.arange(512) % 8 == 0, np.arange(688) % 8 != 0].astype(np.int64)
        weights = Tensor(train.compute_class_weights(y_train))
        stage, loss_fn = "supervised", lambda out, y: weighted_cross_entropy(out, y, weights)
    else:
        y_train, y_val = (rng.normal(size=(n, 2)).astype(np.float32) for n in (64, 1200))
        stage, loss_fn = "pretext", lambda out, v: mse_loss(out, Tensor(v))
    best, history = train._train_loop(params, x_train, y_train, x_val, y_val, loss_fn, cfg,
                                      stage)
    whole = Tensor(shards.forward(best, x_val))
    assert history[0]["val_loss"] == loss_fn(whole, y_val).item()


class TestSupervised:
    def test_loss_decreases(self, sessions):
        _, _, history = train.supervised_train(sessions, quick_cfg(max_epochs=4))
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        assert all(h["stage"] == "supervised" for h in history)
        assert {"epoch", "train_loss", "val_loss", "val_acc"} <= history[0].keys()

    def test_deterministic(self, sessions):
        cfg = quick_cfg(max_epochs=1)
        a, _, ha = train.supervised_train(sessions, cfg)
        b, _, hb = train.supervised_train(sessions, cfg)
        assert a.checksum() == b.checksum()
        assert ha == hb

    def test_seed_changes_outcome(self, sessions):
        a, _, _ = train.supervised_train(sessions, quick_cfg(max_epochs=1, seed=0))
        b, _, _ = train.supervised_train(sessions, quick_cfg(max_epochs=1, seed=1))
        assert a.checksum() != b.checksum()

    def test_stats_come_from_training_split_only(self, sessions):
        cfg = quick_cfg(max_epochs=1)
        params, stats, _ = train.supervised_train(sessions, cfg)
        val_subject = train._pick_val_subject(train.split_by_subject(sessions),
                                              cfg.val_subject_index)
        train_w = train.collect_windows(
            [s for s in sessions if s.meta.subject_id != val_subject], cfg, params.head_kind)
        expected = dataio.compute_stats(train_w, sessions[0].meta)
        for key in expected.channels:
            np.testing.assert_array_equal(stats.channels[key][0],
                                          expected.channels[key][0])

    def test_permuted_labels_change_training(self, sessions):
        cfg = quick_cfg(max_epochs=1)
        a, _, _ = train.supervised_train(sessions, cfg)
        b, _, _ = train.supervised_train(sessions, cfg, permute_labels=True)
        assert a.checksum() != b.checksum()


@pytest.fixture(scope="module")
def pretrained(sessions, tmp_path_factory):
    params, stats, history = train.pretrain(sessions, quick_cfg())
    ckpt = tmp_path_factory.mktemp("pre") / "ckpt"
    model.save_checkpoint(params, stats, ckpt)
    return params, stats, history, ckpt


class TestPretext:
    def test_velocity_head_and_history(self, pretrained):
        params, _, history, _ = pretrained
        assert params.head_kind == model.VELOCITY_HEAD
        assert all(h["stage"] == "pretext" for h in history)

    def test_labels_never_read(self, sessions, pretrained):
        stripped = [copy.deepcopy(s) for s in sessions]
        for s in stripped:
            s.labels = []
        params, _, _ = train.pretrain(stripped, quick_cfg())
        assert params.checksum() == pretrained[0].checksum()

    def test_validation_subject_without_mouse_rejected(self, sessions):
        cfg = quick_cfg()
        _, val_sessions = train.split_train_val(sessions, cfg)
        stripped = [copy.deepcopy(s) for s in sessions]
        for s in stripped:
            if s.meta.subject_id == val_sessions[0].meta.subject_id:
                s.mouse = []
        with pytest.raises(DataError, match="validation split"):
            train.pretrain(stripped, cfg)

    def test_mouse_input_modes_rejected(self, sessions):
        for mode in ("mouse_only", "mouse_gaze_comp"):
            with pytest.raises(ConfigError):
                train.pretrain(sessions, quick_cfg(input_mode=mode))

    def test_partial_finetune_freezes_backbone_front(self, sessions, pretrained):
        params, _, _, ckpt = pretrained
        ft, _, history = train.finetune(
            ckpt, sessions, quick_cfg(max_epochs=1, freeze="partial"))
        frozen = [k for k in ft.backbone_names() if not k.startswith("tf")]
        assert ft.checksum(frozen) == params.checksum(frozen)
        tuned = [k for k in ft.learnable_names() if k.startswith("tf")]
        assert ft.checksum(tuned) != params.checksum(tuned)
        assert ft.head_kind == model.CLASSIFIER_HEAD
        assert all(h["stage"] == "finetune" for h in history)

    def test_full_finetune_updates_everything(self, sessions, pretrained):
        params, _, _, ckpt = pretrained
        ft, _, _ = train.finetune(ckpt, sessions,
                                  quick_cfg(max_epochs=1, freeze="full"))
        for name in ft.learnable_names():
            assert not np.array_equal(ft.tensors[name].data,
                                      params.tensors[name].data), name

    def test_head_is_freshly_initialized(self, sessions, pretrained):
        # the velocity head's weights must not leak into the classifier head
        params, _, _, ckpt = pretrained
        cfg = quick_cfg(max_epochs=1, freeze="partial")
        loaded, _ = model.load_for_finetune(ckpt, head_seed=cfg.seed + 1)
        fresh = model.init_params(params.config, cfg.seed + 1)
        np.testing.assert_array_equal(loaded.tensors["head.w"].data,
                                      fresh.tensors["head.w"].data)
        assert not np.array_equal(loaded.tensors["head.w"].data,
                                  params.tensors["head.w"].data)

    def test_finetune_params_leaves_pretext_params_unchanged(self, sessions, pretrained):
        params, stats, _, ckpt = pretrained
        before = params.checksum()
        cfg = quick_cfg(max_epochs=1, freeze="full")
        ft, _, _ = train.finetune_params(params, stats, sessions, cfg)
        assert params.checksum() == before
        assert params.head_kind == model.VELOCITY_HEAD
        assert all(t.requires_grad == (k != "pos") for k, t in params.tensors.items())
        # the same fine-tune as from the checkpoint on disk
        assert ft.checksum() == train.finetune(ckpt, sessions, cfg)[0].checksum()

    def test_non_finite_input_names_the_stats(self, sessions, pretrained):
        # a std > 0 so small that normalized windows overflow float32 is a
        # data fault of the stats, not a learning rate that diverged
        params, stats, _, _ = pretrained
        channels = {**stats.channels, "c": (stats.channels["c"][0], np.array([1.0, 1e-300]))}
        tiny = dataio.NormStats(stats.screen_w, stats.screen_h, channels, stats.vel)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="finetune stage: model input stream c is not "
                                                "finite as float32 under the normalization "
                                                "stats of the pretext stage"):
                train.finetune_params(params, tiny, sessions, quick_cfg(max_epochs=1))

    @pytest.mark.parametrize("fault", VELOCITY_FAULTS)
    def test_target_that_is_not_finite_names_the_stage(self, sessions, fault):
        # a velocity target is model data: it passes the inputs' finite check
        hostile = [copy.deepcopy(s) for s in sessions]
        for s in hostile:
            break_velocity(s, fault)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="pretext stage: model input stream vel_target "
                                                "is not finite as float32 under the "
                                                "normalization stats computed on the "
                                                "training split"):
                train.pretrain(hostile, quick_cfg(max_epochs=1))

    def test_stats_that_overflow_name_the_stage(self, sessions):
        # finite velocities of a training subject whose squares pass float64's
        # range: the stats are refused where they are made, not in a checkpoint
        hostile = [copy.deepcopy(s) for s in sessions]
        assert any(s is hostile[1] for s in train.split_train_val(hostile, quick_cfg())[0])
        mouse = hostile[1].mouse
        mouse.mx[:] = np.where(np.arange(len(mouse)) % 2, 5e306, -5e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match=r"^pretext stage: stats\.vel: std must be two "
                                                r"finite positive numbers, got \[inf, "):
                train.pretrain(hostile, quick_cfg(max_epochs=1))

    def test_only_model_data_lives_while_the_loop_trains(self, sessions, monkeypatch):
        made = []
        for owner, name in ((train, "collect_windows"), (dataio, "normalize")):
            def kept(*args, _fn=getattr(owner, name), **kwargs):
                out = _fn(*args, **kwargs)
                made.append(weakref.ref(out))
                return out
            monkeypatch.setattr(owner, name, kept)
        loop = train._train_loop

        def check_then_loop(*args):
            gc.collect()
            assert [ref() for ref in made] == [None] * 4
            return loop(*args)

        monkeypatch.setattr(train, "_train_loop", check_then_loop)
        train.pretrain(sessions, quick_cfg(max_epochs=1))
        assert len(made) == 4

    def test_finetune_input_mode_mismatch_rejected(self, sessions, pretrained):
        with pytest.raises(ConfigError, match="input_mode"):
            train.finetune(pretrained[3], sessions,
                           quick_cfg(max_epochs=1, input_mode="gaze_only"))

    def test_partial_step_skips_frozen_backward(self, pretrained, monkeypatch):
        # one partial-mode step: the frozen tensors get no gradient, and the
        # updated tensors equal a step that back-propagates through all of
        # them (every tensor requiring grad) bit for bit
        ckpt = pretrained[3]
        cfg = quick_cfg(max_epochs=1, batch_size=64, freeze="partial")
        rng = np.random.default_rng(3)
        params, _ = model.load_for_finetune(ckpt, head_seed=cfg.seed + 1)
        x = {k: rng.normal(size=(40, 2, dataio.WINDOW_LEN)).astype(np.float32)
             for k in params.config.streams}
        y = rng.integers(0, 2, size=40)
        weights = Tensor(train.compute_class_weights(y))

        def loss_fn(out, targets):
            return weighted_cross_entropy(out, targets, weights)

        seen = []
        epoch_batches = train._epoch_batches

        def recorded(*args):
            batches = epoch_batches(*args)
            seen.extend(batches)
            return batches

        monkeypatch.setattr(train, "_epoch_batches", recorded)
        names = train.partial_trainable_names(params)
        reference = params.copy()
        # frozen as finetune_params freezes its copy
        frozen = [k for k in params.learnable_names() if k not in names]
        for k in frozen:
            params.tensors[k].requires_grad = False
        best, _ = train._train_loop(params, x, y, x, y, loss_fn, cfg, "finetune")
        assert len(seen) == 1
        assert len(frozen) == 34
        assert all(params.tensors[k].grad is None for k in frozen)
        assert all(params.tensors[k].grad is not None for k in names)
        # the loop leaves the flags as it found them, on params and on the result
        for p in (params, best):
            assert all(t.requires_grad == (k in names) for k, t in p.tensors.items())

        trainable = {k: reference.tensors[k] for k in names}
        with Tape() as tape:
            idx = seen[0]
            loss = loss_fn(model.forward(reference, {k: v[idx] for k, v in x.items()}), y[idx])
        backward(loss, tape, params=trainable.values())
        adam_step(trainable, collect_grads(trainable), AdamState.for_params(trainable))
        for k in params.tensors:
            assert params.tensors[k].data.tobytes() == reference.tensors[k].data.tobytes(), k

    def test_partial_finetune_restores_flags_and_leaves_caller_untouched(self, sessions,
                                                                         pretrained):
        params, stats, _, _ = pretrained
        before = params.checksum()
        cfg = quick_cfg(max_epochs=1, freeze="partial")
        ft, _, _ = train.finetune_params(params, stats, sessions, cfg)
        assert all(ft.tensors[k].requires_grad for k in ft.learnable_names())
        assert not ft.tensors["pos"].requires_grad
        # a stage that raises leaves the caller's flags and values as they were
        channels = {**stats.channels, "c": (stats.channels["c"][0], np.array([1.0, 1e-300]))}
        tiny = dataio.NormStats(stats.screen_w, stats.screen_h, channels, stats.vel)
        with pytest.raises(DataError, match="not finite"):
            train.finetune_params(params, tiny, sessions, cfg)
        assert all(t.requires_grad == (k != "pos") for k, t in params.tensors.items())
        assert params.checksum() == before

    def test_partial_trainable_names(self, pretrained):
        names = train.partial_trainable_names(pretrained[0])
        assert all(k.startswith(("tf", "head.")) for k in names)
        assert "head.w" in names and "tf2.attn.wq" in names
        assert not any(k.startswith(("enc_", "cross_", "fusion")) for k in names)


class TestUnreadFields:
    """The config fields `train` refuses under a mode (test_cli.UNREAD,
    the table of cli.cmd_train) leave what that mode trains unchanged,
    while a fine-tune reads each of them."""

    # a value of each refused field other than its default
    NAMED = {"freeze": "partial", "label_fraction": 0.5}
    STAGES = {"train supervised": train.supervised_train, "train pretrain": train.pretrain}

    @pytest.fixture(scope="class")
    def tiny(self):
        cfg = synth.SynthConfig(n_subjects=3, session_len=8.0, seed=0)
        return [synth.generate_session(cfg, i, "text") for i in range(3)]

    @staticmethod
    def trained(stage, sessions, cfg):
        params, stats, history = stage(sessions, cfg)
        return params.checksum(), stats.to_json(), list(history), history.windows

    @pytest.mark.parametrize("command", sorted(STAGES))
    def test_refused_fields_change_nothing(self, tiny, command):
        cfg = quick_cfg(stride=24, max_epochs=1)
        named = dataclasses.replace(cfg, **{k: self.NAMED[k] for k in UNREAD[command]})
        assert named != cfg
        stage = self.STAGES[command]
        assert self.trained(stage, tiny, named) == self.trained(stage, tiny, cfg)

    def test_finetune_reads_every_refused_field(self, tiny):
        assert UNREAD["train finetune"] == []
        cfg = quick_cfg(stride=24, max_epochs=1)
        params, stats, _ = train.pretrain(tiny, cfg)
        base = train.finetune_params(params, stats, tiny, cfg)[0].checksum()
        refused = {k for command in self.STAGES for k in UNREAD[command]}
        assert refused == set(self.NAMED)
        for k in sorted(refused):
            named = dataclasses.replace(cfg, **{k: self.NAMED[k]})
            assert train.finetune_params(params, stats, tiny, named)[0].checksum() != base, k
