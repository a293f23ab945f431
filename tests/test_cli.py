import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazeintent import cli, dataio, evaluate, model, numerics, shards, stream, synth, train
from gazeintent.errors import ConfigError, DataError
from test_dataio import line_edits, parse_gaze_row
from test_model import edit_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset plus a quickly trained supervised checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["gen", "--out", str(data), "--subjects", "3",
                     "--session-len", "8", "--seed", "9"]) == 0
    run = root / "run"
    assert cli.main(["train", "--mode", "supervised", "--data", str(data),
                     "--out", str(run), "--stride", "12", "--batch-size", "128",
                     "--max-epochs", "1", "--task", "text"]) == 0
    return root, data, run / "checkpoint"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGen:
    def test_deterministic_across_runs(self, tmp_path):
        for d in ("a", "b"):
            assert cli.main(["gen", "--out", str(tmp_path / d), "--subjects", "2",
                             "--session-len", "5", "--seed", "4"]) == 0
        for p in sorted((tmp_path / "a").glob("*.session")):
            assert sha(p) == sha(tmp_path / "b" / p.name)

    def test_refuses_to_mix_datasets(self, tmp_path, capsys):
        out = tmp_path / "data"
        gen = ["gen", "--out", str(out), "--session-len", "5"]

        def sessions():
            return {p.name: sha(p) for p in out.glob("*.session") if p.is_file()}

        assert cli.main(gen + ["--subjects", "2", "--seed", "0"]) == 0
        before = sessions()
        assert len(before) == 4
        # S01_* would join every later train, eval and sweep of the 1-subject dataset
        assert cli.main(gen + ["--subjects", "1", "--seed", "1"]) == 2
        assert f"error: {out / 'S01_text.session'}: " in capsys.readouterr().err
        assert sessions() == before
        assert json.loads((out / "manifest.json").read_text())["config"]["n_subjects"] == 2
        # a rerun writes the same names; a directory is no session file
        (out / "S07_text.session").mkdir()
        assert cli.main(gen + ["--subjects", "2", "--seed", "0"]) == 0
        assert sessions() == before

    def test_manifest_written(self, workspace):
        _, data, _ = workspace
        doc = json.loads((data / "manifest.json").read_text())
        assert doc["command"] == "gen"
        assert len(doc["artifacts"]) == 6
        assert doc["config"]["seed"] == 9

    def test_huge_magnification_warns_nothing(self, tmp_path, capsys):
        # (content - viewport) * 1e308 overflows; the clip maps it to the screen bound
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"magnification": 1e308}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x"),
                             "--subjects", "1", "--session-len", "5"]) == 0
        assert capsys.readouterr().err == ""
        for p in sorted((tmp_path / "x").glob("*.session")):
            session = dataio.parse_session(p)
            assert session.meta.magnification == 1e308
            assert np.nanmax(session.gaze.lx) <= session.meta.screen_w

    def test_rejects_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"magnification": 0.5}))
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2

    def test_rejects_malformed_config_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 3,')
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2
        assert cli.main(["train", "--mode", "supervised", "--config", str(cfg),
                         "--data", str(tmp_path), "--out", str(tmp_path / "y")]) == 2

    def test_rejects_non_object_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("3")
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2

    def test_rejects_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zoom": 2.0}))
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2


class TestTrain:
    def test_bad_session_magnification_exits_3_naming_the_file(self, workspace, tmp_path,
                                                                capsys):
        _, data, _ = workspace
        shutil.copytree(data, tmp_path / "data")
        bad = tmp_path / "data" / "S01_text.session"
        session = dataio.parse_session(bad)
        session.meta.magnification = 0.5
        dataio.write_session(session, bad)
        assert cli.main(["train", "--mode", "supervised", "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "run"), "--max-epochs", "1"]) == 3
        assert f"error: {bad}:1: malformed meta: magnification must be >= 1, got 0.5" \
            in capsys.readouterr().err

    def test_finetune_requires_checkpoint(self, workspace):
        _, data, _ = workspace
        assert cli.main(["train", "--mode", "finetune", "--data", str(data),
                         "--out", "/tmp/nope"]) == 2

    @pytest.mark.parametrize("mode", ["supervised", "pretrain"])
    @pytest.mark.parametrize("option,value", [("--from", "/nonexistent"),
                                              ("--freeze", "partial")])
    def test_finetune_options_rejected_in_other_modes(self, workspace, tmp_path, capsys,
                                                      mode, option, value):
        _, data, _ = workspace
        out = tmp_path / "run"
        assert cli.main(["train", "--mode", mode, option, value, "--data", str(data),
                         "--out", str(out), "--stride", "48", "--max-epochs", "1"]) == 2
        # --freeze names a config field; --from names none
        message = ("config field freeze is not read by --mode " + mode if option == "--freeze"
                   else "--from applies only to --mode finetune")
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode,field,option,value", [
        ("supervised", "freeze", "--config", '{"freeze": "partial"}'),
        ("pretrain", "freeze", "--config", '{"freeze": "partial"}'),
        ("pretrain", "label_fraction", "--label-fraction", "0.1"),
        ("supervised", "freeze", "--config", '{"freeze": "full"}'),
        ("pretrain", "freeze", "--config", '{"freeze": "full"}'),
        ("pretrain", "label_fraction", "--label-fraction", "1.0"),
        ("pretrain", "label_fraction", "--config", '{"label_fraction": 1.0}'),
    ], ids=["supervised-freeze", "pretrain-freeze", "pretrain-label_fraction",
            "supervised-default-freeze", "pretrain-default-freeze",
            "pretrain-default-label_fraction", "pretrain-default-label_fraction-config"])
    def test_config_fields_rejected_where_the_mode_never_reads_them(
            self, workspace, tmp_path, capsys, mode, field, option, value):
        # a named field is refused also when it names the default
        _, data, _ = workspace
        if option == "--config":
            (tmp_path / "config.json").write_text(value)
            value = str(tmp_path / "config.json")
        out = tmp_path / "run"
        assert cli.main(["train", "--mode", mode, option, value, "--data", str(data),
                         "--out", str(out), "--stride", "48", "--max-epochs", "1"]) == 2
        assert (f"error: config field {field} is not read by --mode {mode}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_data_dir(self, tmp_path):
        assert cli.main(["train", "--mode", "supervised",
                         "--data", str(tmp_path / "empty"),
                         "--out", str(tmp_path / "out")]) == 3

    def test_artifacts_exist(self, workspace):
        root, _, ckpt = workspace
        assert (ckpt / "manifest.json").exists()
        assert (ckpt / "weights.bin").exists()
        history = (root / "run" / "history.jsonl").read_text().splitlines()
        assert json.loads(history[0])["stage"] == "supervised"

    def test_manifest_records_window_counts(self, workspace):
        root, _, _ = workspace
        counts = json.loads((root / "run" / "manifest.json").read_text())["windows"]
        assert set(counts) == set(dataio.COUNTS) and counts["kept"] > 0
        # two training subjects' 8 s text sessions (960 samples) at stride 12
        assert sum(counts.values()) == 2 * ((960 - 24) // 12 + 1)
        # one run record: the manifest
        assert not (root / "run" / "run.json").exists()

    def test_artifacts_round_trip(self, workspace, tmp_path, monkeypatch):
        _, data, _ = workspace
        trained = []
        stage = train.supervised_train
        monkeypatch.setattr(train, "supervised_train",
                            lambda *a, **k: trained.append(stage(*a, **k)) or trained[-1])
        assert cli.main(["train", "--mode", "supervised", "--data", str(data),
                         "--out", str(tmp_path), "--stride", "48", "--max-epochs", "2",
                         "--task", "text"]) == 0
        (params, _, history), = trained
        back, _ = model.load_checkpoint(tmp_path / "checkpoint")
        assert back.checksum() == params.checksum()
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == list(history)

    @pytest.mark.parametrize("mode,windows", [("supervised", "labeled"),
                                              ("pretrain", "pretext")])
    def test_train_windowizes_each_split_once(self, workspace, tmp_path, monkeypatch,
                                              mode, windows):
        # the stage hands back its training split's counts for the manifest
        _, data, _ = workspace
        calls = []
        collect = train.collect_windows
        monkeypatch.setattr(train, "collect_windows", lambda sessions, cfg, head_kind: calls.append(
            train.HEAD_WINDOWS[head_kind]) or collect(sessions, cfg, head_kind))
        assert cli.main(["train", "--mode", mode, "--data", str(data),
                         "--out", str(tmp_path / "run"), "--stride", "12",
                         "--max-epochs", "1", "--task", "text"]) == 0
        assert calls == [windows, windows]
        sessions, _ = cli._load_sessions(data, "text")
        head = model.VELOCITY_HEAD if mode == "pretrain" else model.CLASSIFIER_HEAD
        cfg = train.TrainConfig(stride=12)
        want = train.collect_windows(train.split_train_val(sessions, cfg)[0], cfg, head).counts
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["windows"] == want

    def test_unknown_task_filter(self, workspace, tmp_path):
        # all generated sessions are text/webpage; filtering is exercised in
        # the workspace fixture, here the empty result path
        _, data, _ = workspace
        assert cli.main(["train", "--mode", "supervised", "--data", str(data),
                         "--out", str(tmp_path / "o"), "--task", "text",
                         "--stride", "48", "--max-epochs", "1"]) == 0


class TestEval:
    def test_non_string_subject_id_exits_3(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        path = sorted(bad.glob("*.session"))[0]
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0][len("#meta "):])
        lines[0] = "#meta " + json.dumps({**meta, "subject_id": [1]})
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["eval", "--pipeline", "supervised", "--data", str(bad),
                         "--out", str(tmp_path / "report.json"), "--max-epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert "subject_id must be a string" in err and "Traceback" not in err

    def test_report_structure(self, workspace, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--pipeline", "supervised", "--data", str(data),
                         "--out", str(out), "--task", "text", "--stride", "24",
                         "--batch-size", "128", "--max-epochs", "1"]) == 0
        doc = json.loads(out.read_text())
        assert [f["subject"] for f in doc["folds"]] == ["S00", "S01", "S02"]
        assert "config_hash" in doc and "input_checksums" in doc
        assert set(doc["mean"]) == {"f1_reading", "f1_scanning", "f1_overall"}

    @pytest.mark.parametrize("pipeline,freeze", [("semi_partial", "partial"),
                                                 ("supervised", "full")])
    def test_report_config_states_the_freeze_its_folds_ran(self, workspace, tmp_path,
                                                           capsys, pipeline, freeze):
        # the pipeline sets the freeze; a config may not name it, not even its default
        _, data, _ = workspace
        argv = ["eval", "--pipeline", pipeline, "--data", str(data), "--task", "text",
                "--stride", "24", "--batch-size", "128", "--max-epochs", "1"]
        out = tmp_path / "report.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_bytes())
        assert doc["config"]["freeze"] == freeze == evaluate.PIPELINES[pipeline].freeze
        assert doc["config_hash"] == hashlib.sha256(
            json.dumps(doc["config"], sort_keys=True).encode()).hexdigest()
        config = tmp_path / "full.json"
        config.write_text(json.dumps({"freeze": train.TrainConfig().freeze}))
        named = tmp_path / "named_report.json"
        assert cli.main(argv + ["--out", str(named), "--config", str(config)]) == 2
        assert ("error: config field freeze is not read by eval: --pipeline sets it"
                in capsys.readouterr().err)
        assert not named.exists()

    @pytest.mark.parametrize("pipeline,code", [("supervised", 0), ("random", 0),
                                               ("semi_full", 2)])
    def test_mouse_only_eval(self, workspace, tmp_path, capsys, pipeline, code):
        # a mouse input mode trains and tests on mouse windows; pretraining
        # predicts mouse velocity, so a semi pipeline refuses it
        _, data, _ = workspace
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--pipeline", pipeline, "--input-mode", "mouse_only",
                         "--data", str(data), "--out", str(out), "--task", "text",
                         "--stride", "24", "--max-epochs", "1"]) == code
        assert "Traceback" not in capsys.readouterr().err
        if code == 0:
            assert [f["subject"] for f in json.loads(out.read_text())["folds"]] == \
                ["S00", "S01", "S02"]


def option_strings(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions for s in a.option_strings}


def test_train_and_eval_options_unchanged():
    shared = {"-h", "--help", "--data", "--out", "--config", "--task", "--input-mode",
              "--seed", "--stride", "--batch-size", "--max-epochs", "--patience",
              "--label-fraction"}
    assert option_strings("train") == shared | {"--mode", "--from", "--freeze"}
    assert option_strings("eval") == shared | {"--pipeline"}
    assert option_strings("sweep") == option_strings("eval")
    assert option_strings("gen") == {"-h", "--help", "--config", "--out", "--seed",
                                     "--subjects", "--session-len"}
    assert option_strings("infer") == {"-h", "--help", "--ckpt", "--input", "--stride",
                                       "--eye", "--magnification"}


# Each option or config file below once ended in a traceback (exit 1), or in
# gen's case also in session files that train rejects; each is a config error.
BAD_CONFIGS = [
    ("train", ["--batch-size", "0"], None),
    ("train", ["--max-epochs", "0"], None),
    ("train", ["--seed", "-1"], None),
    ("train", [], '{"batch_size": "x"}'),
    ("sweep", ["--batch-size", "0"], None),
    ("sweep", ["--seed", "0", "-1"], None),
    ("eval", [], '{"max_epochs": 0}'),
    ("gen", ["--seed", "-1"], None),
    ("gen", [], '{"session_len": NaN}'),
    ("gen", [], '{"n_subjects": 1.5}'),
    ("gen", [], '{"columns": 0}'),
    ("gen", [], '{"tracker_noise_px": -1}'),
    ("gen", [], '{"magnification": NaN}'),
    ("gen", [], '{"viewport_gain": NaN}'),
    ("gen", [], '{"screen_w": Infinity}'),
    ("gen", [], '{"seed": true}'),
    ("gen", [], '{"dropout_burst_rate": -3.0}'),
    ("gen", [], '{"screen_w": 160}'),
    ("gen", [], '{"screen_w": 180}'),
    ("train", [], '{"lr": 1e-3}'),
    ("train", [], '{"weight_decay": 0}'),
]
# simulated-reader values that are constants now: a config naming one is an unknown key
READER_KEYS = ("fixation_ms_mean", "fixation_ms_std", "saccade_px_mean", "saccade_px_std",
               "scan_jump_px", "tracker_noise_px", "line_height_px", "margin_px",
               "viewport_gain", "mouse_gain", "columns", "read_seg_s", "scan_seg_s")
# so are the optimizer's: numerics.adam's LR and WEIGHT_DECAY are the one statement of them
OPTIMIZER_KEYS = ("lr", "weight_decay")


@pytest.mark.parametrize("command,options,config", BAD_CONFIGS)
def test_bad_config_exits_2_before_any_work(workspace, tmp_path, capsys, command,
                                            options, config):
    _, data, _ = workspace
    argv = [command, "--out", str(tmp_path / "out")] + options
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    argv += {"train": ["--mode", "supervised"], "eval": ["--pipeline", "supervised"],
             "sweep": ["--pipeline", "supervised"], "gen": []}[command]
    if command != "gen":
        argv += ["--data", str(data)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    for cls, keys in (("SynthConfig", READER_KEYS), ("TrainConfig", OPTIMIZER_KEYS)):
        named = [k for k in keys if config and f'"{k}"' in config]
        if named:
            assert f"unknown config keys for {cls}: {named}" in err


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_stride_past_int64_exits_2_naming_it(workspace, tmp_path, capsys, command):
    # windowize's numpy range once ended it in an IndexError (exit 4)
    _, data, _ = workspace
    run = ["--mode", "supervised"] if command == "train" else ["--pipeline", "supervised"]
    assert cli.main([command, *run, "--stride", str(2**63), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 2
    assert f"error: stride must be in [1, {2**63 - 1}], got {2**63}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", READER_KEYS)
def test_reader_key_in_gen_config_exits_2_naming_it(tmp_path, capsys, key):
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1, key: 1}))
    assert cli.main(["gen", "--out", str(tmp_path / "out"),
                     "--config", str(tmp_path / "cfg.json")]) == 2
    assert f"unknown config keys for SynthConfig: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_option_checked_before_sessions_are_read(workspace, tmp_path, capsys):
    _, data, _ = workspace
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    (bad / "S00_text.session").write_text("#gaze\n")
    argv = ["train", "--mode", "supervised", "--data", str(bad), "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--stride", "0"]) == 2
    assert "stride" in capsys.readouterr().err
    assert cli.main(argv) == 3


def test_unwritable_out_exits_2_before_any_work(workspace, tmp_path, capsys):
    _, data, _ = workspace
    (tmp_path / "file").write_text("")
    opts = ["--data", str(data), "--max-epochs", "1", "--stride", "48"]
    with mock.patch.object(cli, "_load_sessions", side_effect=AssertionError("read")):
        assert cli.main(["eval", "--pipeline", "supervised", "--out", str(tmp_path)]
                        + opts) == 2
        assert "--out" in capsys.readouterr().err
        assert cli.main(["train", "--mode", "supervised",
                         "--out", str(tmp_path / "file")] + opts) == 2
        assert f"error: cannot write {tmp_path / 'file'}: " in capsys.readouterr().err


# the options of each command that writes files, besides --data and --out
_WRITING = {"gen": ["--subjects", "3", "--session-len", "5"],
            "train": ["--mode", "supervised"],
            "eval": ["--pipeline", "supervised"],
            "sweep": ["--pipeline", "supervised"]}
_TRAINING = ["--task", "text", "--stride", "48", "--batch-size", "128", "--max-epochs", "1"]


def _argv(command, data, out) -> list:
    inputs = [] if command == "gen" else ["--data", str(data)] + _TRAINING
    return [command] + _WRITING[command] + inputs + ["--out", str(out)]


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("pipeline", ["supervised", "semi_partial"])
def test_freeze_in_config_exits_2_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                  command, pipeline):
    # --pipeline sets the freeze, as train rejects a field that its mode never reads;
    # a config that names the default freeze names it too
    _, data, _ = workspace
    monkeypatch.setattr(cli, "_load_sessions", mock.Mock(side_effect=AssertionError("read")))
    for freeze in train.FREEZE_MODES:
        (tmp_path / "cfg.json").write_text(json.dumps({"freeze": freeze, "max_epochs": 1,
                                                       "stride": 24}))
        argv = _argv(command, data, tmp_path / "out") + ["--config", str(tmp_path / "cfg.json")]
        argv[argv.index("supervised")] = pipeline
        assert cli.main(argv) == 2
        assert (f"error: config field freeze is not read by {command}: --pipeline sets it"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(_WRITING))
def test_unusable_out_dir_exits_2_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                  command):
    # root ignores directory modes, so the writer's temporary-file step is made to fail
    _, data, _ = workspace
    monkeypatch.setattr(dataio, "_open_temp", mock.Mock(side_effect=PermissionError(
        13, "Permission denied")))
    monkeypatch.setattr(cli, "_load_sessions", mock.Mock(side_effect=AssertionError("read")))
    monkeypatch.setattr(synth, "generate_dataset", mock.Mock(side_effect=AssertionError("gen")))
    out = tmp_path / ("report.json" if command == "eval" else "out")
    assert cli.main(_argv(command, data, out)) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out.parent if command == 'eval' else out}: " \
        "Permission denied" in err


@pytest.mark.parametrize("command,name", [("gen", "S01_webpage.session"),
                                          ("gen", "manifest.json"),
                                          ("train", "history.jsonl"),
                                          ("train", "checkpoint/weights.bin"),
                                          ("eval", ""),
                                          ("sweep", "supervised_lf1.0_seed0.json"),
                                          ("sweep", "sweep.json")])
def test_failed_write_exits_2_naming_the_path(workspace, tmp_path, capsys, command, name):
    # a directory where the command writes a file
    _, data, _ = workspace
    out = tmp_path / ("report.json" if command == "eval" else "out")
    (out / name).mkdir(parents=True)
    assert cli.main(_argv(command, data, out)) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out / name if name else out}: " in err
    assert "internal error" not in err and "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_json_artifacts_have_one_format(workspace, tmp_path):
    root, data, ckpt = workspace
    assert cli.main(_argv("sweep", data, tmp_path / "sweep")) == 0
    docs = [data / "manifest.json", root / "run" / "manifest.json", ckpt / "manifest.json",
            tmp_path / "sweep" / "supervised_lf1.0_seed0.json", tmp_path / "sweep" / "sweep.json"]
    for path in docs:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True), path


def _train_diverging(tmp_path, capsys, monkeypatch, session_len: str, stride: str) -> None:
    data, out = tmp_path / "data", tmp_path / "run"
    monkeypatch.setattr(numerics.adam, "LR", 1e6)
    assert cli.main(["gen", "--out", str(data), "--subjects", "3",
                     "--session-len", session_len, "--seed", "0"]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--mode", "supervised", "--data", str(data),
                         "--out", str(out), "--stride", stride, "--max-epochs", "3"]) == 2
    # the overflow is reported by the divergence check, not by numpy
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "supervised stage diverged in epoch 0: train_loss " in err
    assert "Warning" not in err
    assert not out.exists() or not any(out.iterdir())


def test_diverged_training_exits_2_without_artifacts(tmp_path, capsys, monkeypatch):
    _train_diverging(tmp_path, capsys, monkeypatch, "6", "24")


needs_helpers = pytest.mark.skipif(
    shards._openblas() is None or len(os.sched_getaffinity(0)) < 2,
    reason="helpers run only where OpenBLAS is loaded and two CPUs are usable")


@needs_helpers
def test_diverged_training_with_a_helper_exits_2_without_warnings(tmp_path, capsys,
                                                                 monkeypatch):
    # batches of 256 rows: the helper runs shard 1 under the loop's errstate
    used = []
    helpers = shards._helpers
    monkeypatch.setattr(shards, "_helpers", lambda n: used.append(n) or helpers(n))
    _train_diverging(tmp_path, capsys, monkeypatch, "15", "6")
    assert max(used) == 1


@needs_helpers
def test_killed_helper_exits_4(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert cli.main(["gen", "--out", str(data), "--subjects", "3",
                     "--session-len", "15", "--seed", "0"]) == 0
    adam_step = train.adam_step

    def adam_then_kill(*args, **kwargs):
        adam_step(*args, **kwargs)
        for pid in shards.helper_pids():
            os.kill(pid, signal.SIGKILL)

    monkeypatch.setattr(train, "adam_step", adam_then_kill)
    assert cli.main(["train", "--mode", "supervised", "--data", str(data),
                     "--out", str(tmp_path / "run"), "--stride", "6",
                     "--max-epochs", "1"]) == 4
    err = capsys.readouterr().err
    assert "internal error: shard helper (pid" in err and "exited" in err
    assert "Traceback" not in err


def test_unexpected_exception_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("no such state")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    assert cli.main(["gen", "--out", str(tmp_path / "data")]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: no such state\n"


def test_interrupt_is_not_an_internal_error(tmp_path, monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_gen", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["gen", "--out", str(tmp_path / "data")])


CONFIG_VALUES = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.integers(-2, 4)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.floats(0, 4)
                 | st.text(max_size=4) | st.lists(st.integers(), max_size=2))


@pytest.mark.parametrize("cls", [synth.SynthConfig, train.TrainConfig])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_json_fuzz(tmp_path_factory, cls, data):
    # any JSON value in any field: a ConfigError, or a config that works;
    # an accepted SynthConfig makes a session file that parses
    names = [f.name for f in dataclasses.fields(cls)]
    doc = data.draw(st.dictionaries(st.sampled_from(names), CONFIG_VALUES, max_size=4))
    root = tmp_path_factory.mktemp("cfg")
    (root / "cfg.json").write_text(json.dumps(doc))
    try:
        cfg = cls(**cli._load_config(root / "cfg.json", cls))
    except ConfigError:
        return
    if cls is synth.SynthConfig:
        session = synth.generate_session(replace(cfg, session_len=2.0), 0,
                                         data.draw(st.sampled_from(["text", "webpage"])))
        dataio.write_session(session, root / "s.session")
        assert dataio.parse_session(root / "s.session").gaze == session.gaze


# a valid value of each TrainConfig field, its default among them
TRAIN_VALUES = {name: st.just(getattr(train.TrainConfig(), name)) | values for name, values in {
    "batch_size": st.integers(1, 512), "max_epochs": st.integers(1, 60),
    "patience": st.integers(0, 9), "seed": st.integers(0, 2**40),
    "freeze": st.sampled_from(train.FREEZE_MODES), "input_mode": st.sampled_from(model.INPUT_MODES),
    "stride": st.integers(1, 60), "label_fraction": st.floats(0, 1, exclude_min=True),
    "val_subject_index": st.integers(0, 5)}.items()}
# the option that names each field; train alone has --freeze, and no option names
# val_subject_index
FIELD_OPTIONS = {"input_mode": "--input-mode", "seed": "--seed", "stride": "--stride",
                 "batch_size": "--batch-size", "max_epochs": "--max-epochs",
                 "patience": "--patience", "label_fraction": "--label-fraction",
                 "freeze": "--freeze"}
# each command (a train mode apart), and the fields that it never reads
UNREAD = {"train supervised": ["freeze"], "train pretrain": ["freeze", "label_fraction"],
          "train finetune": [], "eval": ["freeze"], "sweep": ["freeze"]}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(list(UNREAD)))
def test_named_field_exits_2_exactly_when_the_command_never_reads_it(
        tmp_path_factory, data, command):
    # valid values named in the config file, as options, or both; the run
    # stops where it would read the sessions
    root = tmp_path_factory.mktemp("named")
    argv = command.replace("train ", "train --mode ").split()
    file_fields, option_fields = {}, {}
    for name, values in TRAIN_VALUES.items():
        ways = ["", "file"]
        if name in FIELD_OPTIONS and (name != "freeze" or argv[0] == "train"):
            ways += ["option", "both"]
        way = data.draw(st.sampled_from(ways), label=name)
        if way in ("file", "both"):
            file_fields[name] = data.draw(values, label=f"{name} in the file")
        if way in ("option", "both"):
            option_fields[name] = data.draw(values, label=f"{name} as an option")
            argv += [FIELD_OPTIONS[name], str(option_fields[name])]
    (root / "cfg.json").write_text(json.dumps(file_fields))
    if command == "train finetune":
        argv += ["--from", str(root / "ckpt")]
    elif argv[0] != "train":
        argv += ["--pipeline", data.draw(st.sampled_from(list(evaluate.PIPELINES)))]
    out = root / ("report.json" if command == "eval" else "out")
    argv += ["--data", str(root / "data"), "--out", str(out), "--config", str(root / "cfg.json")]
    built = []  # every TrainConfig made, in order
    post_init = train.TrainConfig.__post_init__

    def record(cfg):
        post_init(cfg)
        built.append(cfg)

    stop = mock.Mock(side_effect=DataError("stopped before the sessions are read"))
    with mock.patch.object(cli, "_load_sessions", stop), \
            mock.patch.object(train.TrainConfig, "__post_init__", record), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    named = [name for name in UNREAD[command] if name in file_fields or name in option_fields]
    if named:
        reader = (f"--mode {argv[2]}" if argv[0] == "train"
                  else f"{command}: --pipeline sets it")
        assert code == 2 and not stop.called
        assert f"error: config field {named[0]} is not read by {reader}" in err.getvalue()
    else:
        # sweep's one cell is the last config made
        assert code == 3 and stop.called, err.getvalue()
        assert built[-1] == replace(train.TrainConfig(**file_fields), **option_fields)


class TestSweep:
    def test_cells_equal_eval_reports(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        opts = ["--data", str(data), "--task", "text", "--stride", "24",
                "--batch-size", "128", "--max-epochs", "1"]
        assert cli.main(["sweep", "--pipeline", "supervised", "semi_full",
                         "--label-fraction", "0.5", "--seed", "0", "1",
                         "--out", str(tmp_path / "sweep")] + opts) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == ["fraction", "supervised", "semi_full"]
        assert table[1].split()[0] == "0.5"
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert [(r["label_fraction"], r["pipeline"], r["seeds"]) for r in rows] == \
            [(0.5, "supervised", [0, 1]), (0.5, "semi_full", [0, 1])]
        for r in rows:
            assert r["mean"] == pytest.approx(np.mean(r["f1_overall"]))
            assert r["std"] == pytest.approx(np.std(r["f1_overall"]))
        assert cli.main(["eval", "--pipeline", "semi_full", "--label-fraction", "0.5",
                         "--seed", "1", "--out", str(tmp_path / "report.json")] + opts) == 0
        cell = tmp_path / "sweep" / "semi_full_lf0.5_seed1.json"
        assert cell.read_bytes() == (tmp_path / "report.json").read_bytes()
        assert json.loads(cell.read_text())["mean"]["f1_overall"] == rows[1]["f1_overall"][1]

    def test_missing_data_dir(self, tmp_path, capsys):
        assert cli.main(["sweep", "--pipeline", "supervised", "--data",
                         str(tmp_path / "none"), "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_out_is_a_file(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        (tmp_path / "o").write_text("")
        assert cli.main(["sweep", "--pipeline", "supervised", "--data", str(data),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"error: cannot write {tmp_path / 'o'}: " in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["0", "1.5", "nan"])
    def test_label_fraction_outside_unit_interval(self, workspace, tmp_path, capsys,
                                                  fraction):
        _, data, _ = workspace
        assert cli.main(["sweep", "--pipeline", "supervised", "--data", str(data),
                         "--label-fraction", "0.5", fraction,
                         "--out", str(tmp_path / "o")]) == 2
        assert "label_fraction must be in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestInfer:
    def test_missing_checkpoint(self, tmp_path, workspace, capsys):
        # the loader's DataError is the one rule for a checkpoint it cannot read
        _, data, _ = workspace
        missing = tmp_path / "none"
        for argv in (["infer", "--ckpt", str(missing), "--input", "-"],
                     ["train", "--mode", "finetune", "--from", str(missing),
                      "--data", str(data), "--out", str(tmp_path / "o")]):
            assert cli.main(argv) == 3
            assert f"error: cannot read checkpoint at {missing}: [Errno 2] " \
                in capsys.readouterr().err

    def test_missing_input_file(self, workspace):
        _, _, ckpt = workspace
        assert cli.main(["infer", "--ckpt", str(ckpt),
                         "--input", "/no/such/file"]) == 3

    def test_decision_count_matches_oracle(self, workspace, capsys):
        _, data, ckpt = workspace
        session_path = data / "S00_text.session"
        stride = 6
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input",
                         str(session_path), "--stride", str(stride),
                         "--eye", "left"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("{")]
        session = dataio.parse_session(session_path)
        _, _, missing = dataio.eye_series(session.gaze, "left")
        expected = 0
        for end in range(23, len(session.gaze)):
            if (end - 23) % stride:
                continue
            if missing[end - 23:end + 1].sum() <= dataio.MAX_MISSING:
                expected += 1
        assert len(lines) == expected > 0
        first = json.loads(lines[0])
        assert set(first) == {"t", "label", "p_reading"}
        assert first["label"] in dataio.LABELS

    def test_silent_push_counts_on_stderr(self, workspace, capsys):
        _, data, ckpt = workspace
        session_path = data / "S00_text.session"
        stride = 6
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(session_path),
                         "--stride", str(stride), "--eye", "left"]) == 0
        captured = capsys.readouterr()
        n = sum(1 for l in captured.out.splitlines() if l.startswith("{"))
        err = captured.err.splitlines()
        assert f"emitted {n} decisions" in err
        counts = json.loads(err[-1])
        pushes = len(dataio.parse_session(session_path).gaze)
        points = (pushes - dataio.WINDOW_LEN) // stride + 1
        assert counts == {"pushes": pushes, "decisions": n,
                          "silent": {"warmup": dataio.WINDOW_LEN - 1,
                                     "stride": pushes - dataio.WINDOW_LEN + 1 - points,
                                     "missing": points - n},
                          "eye": "left", "eye_rows": None}

    def test_session_on_another_screen_exits_3(self, workspace, tmp_path, capsys):
        # the checkpoint's stats were made on 1920 x 1080 sessions
        _, data, ckpt = workspace
        path = tmp_path / "S00_text.session"
        lines = (data / "S00_text.session").read_text().splitlines()
        meta = json.loads(lines[0][len("#meta "):])
        lines[0] = "#meta " + json.dumps({**meta, "screen_w": 2560.0, "screen_h": 1440.0})
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert "screen size" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_session_file_and_csv_feed_agree(self, workspace, capsys,
                                             monkeypatch, tmp_path):
        _, data, ckpt = workspace
        session_path = data / "S01_text.session"

        assert cli.main(["infer", "--ckpt", str(ckpt), "--input",
                         str(session_path), "--eye", "left"]) == 0
        from_file = capsys.readouterr().out

        rows, magnification = self._feed_rows(session_path)
        assert self._infer_stdin(ckpt, rows, monkeypatch, magnification) == 0
        from_stdin = capsys.readouterr().out
        assert from_file == from_stdin

        feed = tmp_path / "feed.csv"   # a file feed is checked in blocks of rows
        feed.write_text("\n".join(rows) + "\n")
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(feed), "--eye", "left",
                         "--magnification", str(magnification)]) == 0
        assert capsys.readouterr().out == from_file

    def test_malformed_feed_line(self, workspace, monkeypatch):
        _, _, ckpt = workspace
        monkeypatch.setattr("sys.stdin", io.StringIO("1.0,2.0\n"))
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", "-"]) == 3


    @staticmethod
    def _feed_rows(session_path):
        """The session's gaze as CSV feed rows, and its magnification."""
        def f(v):
            return "" if v is None else dataio.fmt9(v)
        session = dataio.parse_session(session_path)
        rows = [",".join(f(v) for v in (s.t, s.lx, s.ly, s.rx, s.ry, s.vx, s.vy))
                for s in session.gaze]
        return rows, session.meta.magnification

    @staticmethod
    def _infer_stdin(ckpt, rows, monkeypatch, magnification):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(rows) + "\n"))
        return cli.main(["infer", "--ckpt", str(ckpt), "--input", "-", "--eye", "left",
                         "--magnification", str(magnification)])

    def test_feed_eye_auto_uses_batch_rule(self, workspace, capsys, tmp_path):
        # left eye missing over the first ceil(10%) of samples: auto picks
        # the right eye on a feed file exactly as on the session file
        _, data, ckpt = workspace
        session = dataio.parse_session(data / "S01_text.session")
        head = slice(0, -(-len(session.gaze) // 10))
        session.gaze.lx[head] = np.nan
        session.gaze.ly[head] = np.nan
        path = tmp_path / "S01_text.session"
        dataio.write_session(session, path)
        out = {}
        for eye in ("auto", "left", "right"):
            assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(path),
                             "--eye", eye]) == 0
            out[eye] = capsys.readouterr().out
        assert out["auto"] == out["right"] != out["left"]

        rows, mag = self._feed_rows(path)
        feed = tmp_path / "feed.csv"
        feed.write_text("\n".join(rows) + "\n")
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(feed), "--eye", "auto",
                         "--magnification", str(mag)]) == 0
        assert capsys.readouterr().out == out["right"]

    def test_live_feed_eye_auto_reads_its_first_rows(self, workspace, capsys, monkeypatch,
                                                     tmp_path):
        # right eye missing in rows 0-49, left in rows 50-119: over the first
        # ceil(10%) = 96 rows the left eye misses fewer (46 < 50), over the
        # first AUTO_EYE_ROWS = 120 the right one does (50 < 70)
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S01_text.session")
        assert math.ceil(0.1 * len(rows)) == 96 and cli.AUTO_EYE_ROWS == 120
        for i in range(120):
            t, _, _, _, _, vx, vy = rows[i].split(",")
            left, right = ("960,540", ",") if i < 50 else (",", "960,540")
            rows[i] = ",".join((t, left, right, vx, vy))
        feed = tmp_path / "feed.csv"
        feed.write_text("\n".join(rows) + "\n")

        def infer(source, eye, feed_rows=rows):
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(feed_rows) + "\n"))
            assert cli.main(["infer", "--ckpt", str(ckpt), "--input", source, "--eye", eye,
                             "--magnification", str(mag)]) == 0
            captured = capsys.readouterr()
            summary = json.loads(captured.err.splitlines()[-1])
            return captured.out, (summary["eye"], summary["eye_rows"])

        out, chosen = infer(str(feed), "auto")
        assert chosen == ("left", 96) and out == infer(str(feed), "left")[0]
        out, chosen = infer("-", "auto")
        assert chosen == ("right", 120) and out == infer("-", "right")[0]
        assert out != infer("-", "left")[0]
        # a feed that ends first: the rule reads the rows seen
        assert infer("-", "auto", rows[:100])[1] == ("left", 100)

    @pytest.mark.parametrize("eye", ["auto", "left", "right"])
    @pytest.mark.parametrize("via", ["file", "stdin", "session"])
    def test_input_without_gaze_rows_exits_3(self, workspace, tmp_path, capsys, monkeypatch,
                                             via, eye):
        _, data, ckpt = workspace
        feed = tmp_path / "empty.csv"
        feed.write_text(dataio.GAZE_HEADER + "\n\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(feed.read_text()))
        source = {"file": str(feed), "stdin": "-", "session": str(tmp_path / "empty.session")}[via]
        if via == "session":
            # the meta line and every section header, no rows
            lines = (data / "S01_text.session").read_text().splitlines()
            kept = [ln for i, ln in enumerate(lines)
                    if i == 0 or ln.startswith("#") or lines[i - 1].startswith("#")]
            Path(source).write_text("\n".join(kept) + "\n")
            assert len(dataio.parse_session(source).gaze) == 0
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", source, "--eye", eye]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error: empty session" in captured.err

    @staticmethod
    def _first_decision_before_eof(ckpt, rows, *options):
        """Feed `rows` to `infer --input -` through a pipe that stays open,
        and assert that a decision line arrives on stdout, also a pipe, where
        Python buffers output unless it is flushed."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "gazeintent.cli", "infer", "--ckpt", str(ckpt),
             "--input", "-", *options],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True)
        try:
            proc.stdin.write("\n".join(rows) + "\n")
            proc.stdin.flush()   # the feed stays open
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, f"no decision within 30 s of {len(rows)} fed rows"
            assert "p_reading" in json.loads(proc.stdout.readline())
        finally:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            finally:
                proc.kill()
                proc.stdout.close()

    def test_live_feed_decision_arrives_before_the_feed_ends(self, workspace):
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S01_text.session")
        self._first_decision_before_eof(ckpt, rows[:200], "--eye", "left",
                                        "--magnification", str(mag))

    def test_live_feed_is_live_under_the_default_options(self, workspace):
        # `--eye auto` holds back the first AUTO_EYE_ROWS rows only, not the feed
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S00_text.session")
        assert len(rows) > 600
        self._first_decision_before_eof(ckpt, rows[:600], "--magnification", str(mag))

    @pytest.mark.parametrize("eye", ["auto", "left"])
    def test_summary_printed_when_a_bad_row_ends_a_run_that_streamed(
            self, workspace, capsys, monkeypatch, eye):
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S00_text.session")
        rows[400] = "1,2"
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(rows) + "\n"))
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", "-", "--eye", eye,
                         "--magnification", str(mag)]) == 3
        captured = capsys.readouterr()
        n = len(captured.out.splitlines())
        *summary, error = captured.err.splitlines()
        assert error == "error: feed line 401: expected 7 fields, got 2"
        assert summary[0] == f"emitted {n} decisions" and n > 0
        counts = json.loads(summary[1])
        assert (counts["pushes"], counts["decisions"]) == (400, n)
        assert counts["eye_rows"] == (cli.AUTO_EYE_ROWS if eye == "auto" else None)
        assert counts["eye"] in dataio.EYES

    def test_feed_header_line_skipped(self, workspace, capsys, monkeypatch):
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S01_text.session")
        assert self._infer_stdin(ckpt, rows, monkeypatch, mag) == 0
        plain = capsys.readouterr().out
        assert self._infer_stdin(ckpt, [dataio.GAZE_HEADER] + rows, monkeypatch, mag) == 0
        assert capsys.readouterr().out == plain != ""

    def test_non_numeric_feed_field(self, workspace, monkeypatch):
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S01_text.session")
        rows[3] = "0.025,abc,1,2,3,0,0"
        assert self._infer_stdin(ckpt, rows, monkeypatch, mag) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feed_value(self, workspace, capsys, monkeypatch, bad):
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S01_text.session")
        fields = rows[30].split(",")
        fields[1] = bad
        rows[30] = ",".join(fields)
        assert self._infer_stdin(ckpt, rows, monkeypatch, mag) == 3
        for line in capsys.readouterr().out.splitlines():
            json.loads(line, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))

    def test_feed_coordinate_off_the_screen(self, workspace, capsys, monkeypatch):
        # a feed row passes the session's range rules on the checkpoint's
        # screen: an overflowing coordinate used to reach the model as NaN
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S01_text.session")
        fields = rows[1].split(",")
        fields[1] = "1e300"
        rows[1] = ",".join(fields)
        assert self._infer_stdin(ckpt, rows, monkeypatch, mag) == 3
        captured = capsys.readouterr()
        screen_w = model.load_checkpoint(ckpt)[1].screen_w
        assert f"feed line 2: coordinate 1e+300 out of range [0, {screen_w}]" in captured.err
        for line in captured.out.splitlines():
            json.loads(line, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))

    def test_feed_viewport_fault_names_the_magnification_option(self, workspace, tmp_path,
                                                               capsys):
        # a feed states no magnification: a 2x session's rows read at the
        # default 1x fail the viewport rule, and the error names the option
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S00_text.session")
        assert mag > 1
        feed = tmp_path / "S00_text.csv"
        feed.write_text("\n".join([dataio.GAZE_HEADER] + rows) + "\n")
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(feed),
                         "--eye", "left"]) == 3
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: feed line ") and " viewport " in err
        assert err.endswith("outside [0, 0.0] at --magnification 1.0")

    def test_out_of_order_feed_timestamps(self, workspace, capsys, monkeypatch):
        _, data, ckpt = workspace
        rows, mag = self._feed_rows(data / "S01_text.session")
        rows[40], rows[41] = rows[41], rows[40]
        assert self._infer_stdin(ckpt, rows, monkeypatch, mag) == 3
        assert "feed line 42: non-monotonic timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_magnification(self, workspace, capsys, monkeypatch, value):
        _, data, ckpt = workspace
        rows, _ = self._feed_rows(data / "S01_text.session")
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(rows) + "\n"))
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", "-", "--eye", "left",
                         "--magnification", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "magnification" in captured.err

    @pytest.mark.parametrize("eye", ["auto", "left"])
    @pytest.mark.parametrize("value", ["0", "0.5", "nan", "inf"])
    def test_bad_magnification_checked_before_the_feed(self, workspace, tmp_path, capsys,
                                                       eye, value):
        _, data, ckpt = workspace
        rows, _ = self._feed_rows(data / "S01_text.session")
        feed = tmp_path / "feed.csv"
        feed.write_text("\n".join(rows) + "\n")
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(feed), "--eye", eye,
                         "--magnification", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "magnification" in captured.err

    def test_non_utf8_feed_file(self, workspace, tmp_path, capsys):
        _, _, ckpt = workspace
        feed = tmp_path / "feed.csv"
        feed.write_bytes(b"0.1,1,1,1,1,0,0\n\xff\xfe,1\n")
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(feed)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_directory_as_feed(self, workspace, tmp_path, capsys):
        _, _, ckpt = workspace
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(tmp_path)]) == 3
        assert "cannot read feed" in capsys.readouterr().err

    def test_non_utf8_stdin(self, workspace, monkeypatch, capsys):
        _, _, ckpt = workspace
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xc3\x28,1\n")))
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", "-"]) == 3
        assert "cannot read feed -" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["drop", "transpose", "nan", "swap", "share",
                                      "float64", "extra", "deep", "hologram",
                                      "zero_std", "no_channels"])
    def test_unusable_checkpoint_exits_3(self, workspace, tmp_path, capsys, edit):
        _, data, ckpt = workspace
        bad = tmp_path / "ckpt"
        shutil.copytree(ckpt, bad)
        edit_checkpoint(bad, edit)
        assert cli.main(["infer", "--ckpt", str(bad), "--input",
                         str(data / "S00_text.session"), "--eye", "left"]) == 3
        assert cli.main(["train", "--mode", "finetune", "--from", str(bad), "--data", str(data),
                         "--out", str(tmp_path / "run"), "--stride", "24",
                         "--max-epochs", "1"]) == 3
        out, err = capsys.readouterr()
        assert "Traceback" not in err and "p_reading" not in out

    def test_non_finite_decision_exits_3(self, workspace, tmp_path, capsys):
        # a std > 0 so small that a normalized window overflows float32 (1e-300)
        # or float64 (1e-310): the model input is rejected, naming the stream
        # (and for a stage, the checkpoint the stats came from), without a
        # numpy warning
        _, data, ckpt = workspace
        for edit in ("tiny_std", "subnormal_std"):
            bad, run = tmp_path / edit, tmp_path / f"run_{edit}"
            shutil.copytree(ckpt, bad)
            edit_checkpoint(bad, edit)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["infer", "--ckpt", str(bad), "--input",
                                 str(data / "S00_text.session"), "--eye", "left"]) == 3
                out, err = capsys.readouterr()
                assert "NaN" not in out and "model input stream g is not finite" in err
                assert cli.main(["train", "--mode", "finetune", "--from", str(bad), "--data",
                                 str(data), "--out", str(run), "--stride", "24",
                                 "--max-epochs", "1"]) == 3
            err = capsys.readouterr().err
            assert f"finetune stage: model input stream g is not finite as float32 under " \
                   f"the normalization stats of checkpoint {bad}" in err
            assert "diverged" not in err
            assert not run.exists() or not any(run.iterdir())

    def test_malformed_checkpoint_manifest(self, workspace, tmp_path, monkeypatch):
        _, _, ckpt = workspace
        bad = tmp_path / "ckpt"
        shutil.copytree(ckpt, bad)
        (bad / "manifest.json").write_text('{"format": ')
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert cli.main(["infer", "--ckpt", str(bad), "--input", "-", "--eye", "left"]) == 3


@pytest.fixture(scope="module")
def feed_prefix(workspace):
    """The first 60 rows of a real feed, as bytes."""
    _, data, _ = workspace
    rows, _ = TestInfer._feed_rows(data / "S01_text.session")
    return ("\n".join(rows[:60]) + "\n").encode()


@pytest.mark.parametrize("via", ["file", "stdin"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), eye=st.sampled_from(["auto", "left"]))
def test_infer_fuzz_random_bytes(workspace, feed_prefix, via, data, eye):
    # random bytes, alone or spliced into a real feed so that some inputs
    # get far enough to emit decisions
    spliced = st.tuples(st.integers(0, len(feed_prefix)), st.binary(max_size=40)).map(
        lambda t: feed_prefix[:t[0]] + t[1] + feed_prefix[t[0]:])
    raw = data.draw(st.binary(max_size=200) | spliced)
    root, _, ckpt = workspace
    argv = ["infer", "--ckpt", str(ckpt), "--eye", eye, "--magnification", "2"]
    stdin = io.TextIOWrapper(io.BytesIO(raw))
    if via == "file":
        (root / "fuzz.csv").write_bytes(raw)
        argv += ["--input", str(root / "fuzz.csv")]
    else:
        argv += ["--input", "-"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", stdin):
        code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    for line in out.getvalue().splitlines():
        doc = json.loads(line, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert math.isfinite(doc["p_reading"])


def reference_feed(ckpt, lines, magnification):
    """What `infer --eye left` prints for a feed, from the per-row reference
    parser of the session tests and the range rules written out per row:
    the decision lines before the first bad row, and the stderr lines of
    its error: the summary once a row was pushed, then the error."""
    engine = stream.StreamingEngine.from_checkpoint(ckpt, magnification, eye="left")
    w, h = engine.stats.screen_w, engine.stats.screen_h
    vmax = (w * (1 - 1 / magnification), h * (1 - 1 / magnification))
    out, prev_t = [], None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line == dataio.GAZE_HEADER:
            continue
        try:
            s = parse_gaze_row(line.split(","), prev_t)
            for c, dim in ((s.lx, w), (s.ly, h), (s.rx, w), (s.ry, h)):
                if c is not None and not (0 <= c <= dim):
                    raise ValueError(f"coordinate {c} out of range [0, {dim}]")
            for v, name, hi in ((s.vx, "x", vmax[0]), (s.vy, "y", vmax[1])):
                if not (-1e-9 <= v <= hi + 1e-9):
                    raise ValueError(f"viewport {name} {v} outside [0, {hi}] "
                                     f"at --magnification {magnification}")
        except ValueError as e:
            summary = [f"emitted {len(out)} decisions", json.dumps(
                {"pushes": engine.count, "decisions": len(out), "silent": engine.silent_counts(),
                 "eye": "left", "eye_rows": None})] if engine.count else []
            return out, summary + [f"error: feed line {lineno}: {e}"]
        prev_t = s.t
        decision = engine.push(s)
        if decision is not None:
            out.append(json.dumps({"t": decision.t_end, "label": decision.label,
                                   "p_reading": decision.p_reading}))
    return out, None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_feed_equals_row_reference(workspace, data):
    # an edited real feed, from a file in blocks of 1, 3 and PARSE_ROWS
    # rows and from stdin a line at a time
    root, data_dir, ckpt = workspace
    rows, mag = TestInfer._feed_rows(data_dir / "S01_text.session")
    lines = data.draw(line_edits([dataio.GAZE_HEADER] + rows[:90]))
    want_out, want_err = reference_feed(ckpt, lines, mag)
    raw = "\n".join(lines) + "\n"
    feed = root / "edited.csv"
    feed.write_text(raw)
    argv = ["infer", "--ckpt", str(ckpt), "--eye", "left", "--magnification", str(mag)]
    for source, chunk in ((feed, 1), (feed, 3), (feed, dataio.PARSE_ROWS), ("-", None)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", io.StringIO(raw)), \
                mock.patch.object(dataio, "PARSE_ROWS", chunk or dataio.PARSE_ROWS):
            code = cli.main(argv + ["--input", str(source)])
        assert out.getvalue().splitlines() == want_out, (source, chunk)
        if want_err is None:
            assert code == 0, err.getvalue()
        else:
            assert code == 3 and err.getvalue().splitlines() == want_err, (source, chunk)
