import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import signal
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazeintent import cli, dataio, model, shards, synth, train
from gazeintent.errors import ConfigError


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

    def test_manifest_written(self, workspace):
        _, data, _ = workspace
        doc = json.loads((data / "manifest.json").read_text())
        assert doc["command"] == "gen"
        assert len(doc["artifacts"]) == 6
        assert doc["config"]["seed"] == 9

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
    def test_finetune_requires_checkpoint(self, workspace):
        _, data, _ = workspace
        assert cli.main(["train", "--mode", "finetune", "--data", str(data),
                         "--out", "/tmp/nope"]) == 2

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

    def test_run_json_records_window_counts(self, workspace):
        root, _, _ = workspace
        counts = json.loads((root / "run" / "run.json").read_text())["windows"]
        assert set(counts) == set(dataio.COUNTS) and counts["kept"] > 0
        # two training subjects' 8 s text sessions (960 samples) at stride 12
        assert sum(counts.values()) == 2 * ((960 - 24) // 12 + 1)

    @pytest.mark.parametrize("mode,windows", [("supervised", "labeled"),
                                              ("pretrain", "pretext")])
    def test_train_windowizes_each_split_once(self, workspace, tmp_path, monkeypatch,
                                              mode, windows):
        # the stage hands back its training split's counts for run.json
        _, data, _ = workspace
        calls = []
        collect = train.collect_windows
        monkeypatch.setattr(train, "collect_windows",
                            lambda *a, **k: calls.append(a[2]) or collect(*a, **k))
        assert cli.main(["train", "--mode", mode, "--data", str(data),
                         "--out", str(tmp_path / "run"), "--stride", "12",
                         "--max-epochs", "1", "--task", "text"]) == 0
        assert calls == [windows, windows]
        sessions, _ = cli._load_sessions(data, "text")
        head = model.VELOCITY_HEAD if mode == "pretrain" else model.CLASSIFIER_HEAD
        params = model.init_params(model.ModelConfig(), 0, head_kind=head)
        want = train.stage_windows(sessions, train.TrainConfig(stride=12), params)[0].counts
        assert json.loads((tmp_path / "run" / "run.json").read_text())["windows"] == want

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


def option_strings(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions for s in a.option_strings}


def test_train_and_eval_options_unchanged():
    shared = {"-h", "--help", "--data", "--out", "--config", "--task", "--input-mode",
              "--seed", "--stride", "--batch-size", "--max-epochs", "--patience",
              "--label-fraction"}
    assert option_strings("train") == shared | {"--mode", "--from", "--freeze", "--lr",
                                                "--weight-decay"}
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
]


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
        assert "cannot create output directory" in capsys.readouterr().err


def _train_diverging(tmp_path, capsys, session_len: str, stride: str) -> None:
    data, out = tmp_path / "data", tmp_path / "run"
    assert cli.main(["gen", "--out", str(data), "--subjects", "3",
                     "--session-len", session_len, "--seed", "0"]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--mode", "supervised", "--data", str(data),
                         "--out", str(out), "--stride", stride, "--lr", "1e6",
                         "--max-epochs", "3"]) == 2
    # the overflow is reported by the divergence check, not by numpy
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "supervised stage diverged in epoch 0 at lr 1000000.0" in err
    assert "Warning" not in err
    assert not out.exists() or not any(out.iterdir())


def test_diverged_training_exits_2_without_artifacts(tmp_path, capsys):
    _train_diverging(tmp_path, capsys, "6", "24")


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
    _train_diverging(tmp_path, capsys, "15", "6")
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
        cfg = cli._load_config(root / "cfg.json", cls)
    except ConfigError:
        return
    if cls is synth.SynthConfig:
        session = synth.generate_session(replace(cfg, session_len=2.0), 0,
                                         data.draw(st.sampled_from(["text", "webpage"])))
        dataio.write_session(session, root / "s.session")
        assert dataio.parse_session(root / "s.session").gaze == session.gaze


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
        assert "cannot create output directory" in capsys.readouterr().err

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
    def test_missing_checkpoint(self, tmp_path):
        assert cli.main(["infer", "--ckpt", str(tmp_path / "none"),
                         "--input", "-"]) == 2

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

    def test_feed_eye_auto_uses_batch_rule(self, workspace, capsys, monkeypatch, tmp_path):
        # left eye missing over the first ceil(10%) of samples: auto picks
        # the right eye on the feed exactly as on the session file
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
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(rows) + "\n"))
        assert cli.main(["infer", "--ckpt", str(ckpt), "--input", "-", "--eye", "auto",
                         "--magnification", str(mag)]) == 0
        assert capsys.readouterr().out == out["right"]

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
