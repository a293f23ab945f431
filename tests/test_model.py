import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazeintent import dataio, model
from gazeintent.errors import ConfigError, DataError, ShapeError
from gazeintent.numerics import Tensor, finite_difference_check


def rand_batch(cfg, n=2, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return {s: rng.normal(size=(n, cfg.in_channels, cfg.window)).astype(dtype)
            for s in cfg.streams}


def unit_stats():
    """Stats for streams g and c and the velocity target, each std 1."""
    session_meta = dataio.SessionMeta("S00", "text", 2.0, 100.0, 100.0)
    w = dataio.Window(g=np.ones((2, 24)), c=np.ones((2, 24)), t_end=0.2,
                      subject_id="S00", label=0, vel_target=np.ones(2))
    return dataio.compute_stats([w], session_meta)


def edit_checkpoint(path, edit: str) -> None:
    """Leave checkpoint `path` readable but unusable: "drop" removes
    tf0.attn.wq and its bytes, "transpose" reverses the stored shape of
    fusion.w, "nan" makes the first stored value NaN. The rest edit only the
    manifest: "swap" swaps the offsets of tf0.attn.wq and tf0.attn.wk,
    "share" gives tf0.attn.wq the offset of tf0.attn.wk, "float64" marks
    fusion.w as float64, "extra" lists one more tensor, "deep" stores
    `cnn_layers: 10**7`, "hologram" stores an unknown input mode,
    "zero_std", "tiny_std" and "subnormal_std" set one std of stream g to 0,
    1e-300 and 1e-310, and "no_channels" stores stats without channels."""
    doc = json.loads((path / "manifest.json").read_text())
    blob = bytearray((path / "weights.bin").read_bytes())
    entry = {e["name"]: e for e in doc["tensors"]}
    if edit == "swap":
        q, k = entry["tf0.attn.wq"], entry["tf0.attn.wk"]
        q["offset"], k["offset"] = k["offset"], q["offset"]
    elif edit == "share":
        entry["tf0.attn.wq"]["offset"] = entry["tf0.attn.wk"]["offset"]
    elif edit == "float64":
        entry["fusion.w"]["dtype"] = "float64"
    elif edit == "extra":
        doc["tensors"].append({"name": "zz", "shape": [], "dtype": "float32",
                               "offset": len(blob), "nbytes": 0})
    elif edit == "deep":
        doc["config"]["cnn_layers"] = 10 ** 7
    elif edit == "hologram":
        doc["config"]["input_mode"] = "hologram"
    elif edit.endswith("_std"):
        doc["stats"]["channels"]["g"][1][0] = {"zero": 0.0, "tiny": 1e-300,
                                               "subnormal": 1e-310}[edit[:-4]]
    elif edit == "no_channels":
        doc["stats"]["channels"] = {}
    elif edit == "drop":
        gone = entry["tf0.attn.wq"]
        del blob[gone["offset"]:gone["offset"] + gone["nbytes"]]
        doc["tensors"].remove(gone)
        for e in doc["tensors"]:
            e["offset"] -= gone["nbytes"] if e["offset"] > gone["offset"] else 0
    elif edit == "transpose":
        entry["fusion.w"]["shape"] = entry["fusion.w"]["shape"][::-1]
    else:
        blob[:4] = np.float32(np.nan).tobytes()
    (path / "manifest.json").write_text(json.dumps(doc))
    (path / "weights.bin").write_bytes(bytes(blob))


class TestInit:
    def test_deterministic(self):
        a = model.init_params(model.ModelConfig(), seed=3)
        b = model.init_params(model.ModelConfig(), seed=3)
        assert a.checksum() == b.checksum()

    def test_seed_changes_weights(self):
        a = model.init_params(model.ModelConfig(), seed=3)
        b = model.init_params(model.ModelConfig(), seed=4)
        assert a.checksum() != b.checksum()

    def test_biases_zero_gains_one(self):
        p = model.init_params(model.ModelConfig(), seed=0)
        assert not p.tensors["head.b"].data.any()
        assert (p.tensors["tf0.ln1.g"].data == 1.0).all()

    def test_weight_bound_scales_with_fan_in(self):
        p = model.init_params(model.ModelConfig(), seed=0)
        w = p.tensors["tf0.ffn1.w"].data  # fan-in 64
        assert np.abs(w).max() <= 1.0 / math.sqrt(64)

    def test_positional_table_not_learnable(self):
        p = model.init_params(model.ModelConfig(), seed=0)
        assert not p.tensors["pos"].requires_grad
        assert "pos" not in p.learnable_names()

    def test_bad_head_kind(self):
        with pytest.raises(ConfigError):
            model.init_params(model.ModelConfig(), 0, head_kind="regressor")

    def test_architecture_is_fixed(self):
        with pytest.raises(TypeError):
            model.ModelConfig(d_model=8)


class TestParamCount:
    def test_default_architecture_size(self):
        p = model.init_params(model.ModelConfig(), seed=0)
        assert sum(p.tensors[k].data.size for k in p.learnable_names()) == 242178


class TestForward:
    @pytest.mark.parametrize("mode", model.INPUT_MODES)
    def test_output_shape(self, mode):
        cfg = model.ModelConfig(input_mode=mode)
        p = model.init_params(cfg, seed=0)
        out = model.forward(p, rand_batch(cfg, n=3))
        assert out.shape == (3, 2)

    def test_missing_stream_rejected(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0)
        batch = rand_batch(cfg)
        del batch["c"]
        with pytest.raises(ConfigError, match="stream 'c'"):
            model.forward(p, batch)

    def test_wrong_window_length_rejected(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0)
        batch = {s: np.zeros((1, 2, 20), dtype=np.float32) for s in cfg.streams}
        with pytest.raises(ShapeError):
            model.forward(p, batch)

    def test_batch_rows_independent(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0)
        batch = rand_batch(cfg, n=4)
        full = model.forward(p, batch).data
        one = model.forward(p, {k: v[2:3] for k, v in batch.items()}).data
        np.testing.assert_allclose(full[2], one[0], atol=1e-5)

    def test_predict_proba_rows_sum_to_one(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0)
        probs = model.predict_proba(p, rand_batch(cfg, n=5))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs >= 0).all()

    def test_predict_proba_needs_classifier(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0, head_kind=model.VELOCITY_HEAD)
        with pytest.raises(ConfigError):
            model.predict_proba(p, rand_batch(cfg))


class TestAttentionBlocks:
    def test_mha_matches_per_head_oracle(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=1).astype(np.float64)
        t = p.tensors
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, cfg.window, cfg.d_model))
        out = model._mha(Tensor(x), Tensor(x), t, "tf0.attn", cfg.n_heads).data

        dh = cfg.d_model // cfg.n_heads
        q = x @ t["tf0.attn.wq"].data + t["tf0.attn.qb"].data
        k = x @ t["tf0.attn.wk"].data + t["tf0.attn.kb"].data
        v = x @ t["tf0.attn.wv"].data + t["tf0.attn.vb"].data
        heads = []
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, :, sl] @ k[:, :, sl].transpose(0, 2, 1) / math.sqrt(dh)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append((e / e.sum(axis=-1, keepdims=True)) @ v[:, :, sl])
        expected = np.concatenate(heads, axis=-1) @ t["tf0.attn.wo"].data \
            + t["tf0.attn.ob"].data
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_cross_blocks_symmetric_under_tied_weights(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0)
        for k in list(p.tensors):
            if k.startswith("cross_cg."):
                p.tensors[k] = p.tensors["cross_gc." + k[len("cross_cg."):]]
        rng = np.random.default_rng(3)
        h = Tensor(rng.normal(size=(2, cfg.window, cfg.d_model)).astype(np.float32))
        a = model._cross_block(h, h, p, "cross_gc").data
        b = model._cross_block(h, h, p, "cross_cg").data
        np.testing.assert_array_equal(a, b)

    def test_transformer_permutation_equivariant_without_positions(self):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0).astype(np.float64)
        p.tensors["pos"] = Tensor(np.zeros_like(p.tensors["pos"].data))
        rng = np.random.default_rng(4)
        h = rng.normal(size=(1, cfg.window, cfg.d_model))
        perm = rng.permutation(cfg.window)
        out = model.transformer_forward(Tensor(h), p).data
        out_p = model.transformer_forward(Tensor(h[:, perm]), p).data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-10)

    def test_positions_added_once(self):
        # with all-identity-free weights zeroed the transformer reduces to
        # h + pos (residual path only)
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0).astype(np.float64)
        for k in p.tensors:
            if k != "pos" and not k.endswith((".g",)):
                p.tensors[k] = Tensor(np.zeros_like(p.tensors[k].data))
        h = np.random.default_rng(5).normal(size=(1, cfg.window, cfg.d_model))
        out = model.transformer_forward(Tensor(h), p).data
        np.testing.assert_allclose(out, h + p.tensors["pos"].data, atol=1e-12)


class TestLastRowForward:
    @pytest.mark.parametrize("mode", ["gaze_plus_comp", "mouse_gaze_comp", "gaze_only"])
    @pytest.mark.parametrize("head", [model.CLASSIFIER_HEAD, model.VELOCITY_HEAD])
    def test_matches_full_sequence_path(self, mode, head):
        # forward runs the last transformer layer for row window-1 alone;
        # the full-sequence path read at that row must give the same output
        cfg = model.ModelConfig(input_mode=mode)
        p = model.init_params(cfg, seed=4, head_kind=head).astype(np.float64)
        batch = rand_batch(cfg, n=3, seed=8, dtype=np.float64)
        encoded = {s: model.encode_stream(Tensor(batch[s]), s, p) for s in cfg.streams}
        if mode == "gaze_only":
            h = encoded["g"]
        else:
            h = model.cross_fuse(encoded["g"], encoded["c"], p, hm=encoded.get("m"))
        full = model.transformer_forward(h, p).data[:, cfg.window - 1]
        want = full @ p.tensors["head.w"].data + p.tensors["head.b"].data
        np.testing.assert_allclose(model.forward(p, batch).data, want, atol=1e-10, rtol=0)


class TestTapeSize:
    """Tape nodes of a default classifier step, pinned so that the tape
    cannot silently grow back: 7 per stream encoder (3 conv1d, 3 relu, one
    swapaxes), 9 per attention block (4 linear, 3 head splits, attention,
    one head merge), 27 for cross_fuse, 51 for the transformer (16 per
    layer, the positions and the last layer's two row selections), 2 for
    the head and 7 for the weighted cross entropy."""

    STEP_NODES = 101

    def test_taped_step_records_pinned_node_count(self):
        from gazeintent.numerics import Tape, weighted_cross_entropy

        recorded = []

        class CountingTape(Tape):
            def record(self, node):
                recorded.append(node)
                super().record(node)

        p = model.init_params(model.ModelConfig(), 0)
        batch = rand_batch(p.config, n=3)
        with CountingTape():
            weighted_cross_entropy(model.forward(p, batch), np.array([0, 1, 1]),
                                   Tensor(np.ones(2)))
        assert len(recorded) == self.STEP_NODES

    def test_untaped_b1_forward_records_nothing(self, monkeypatch):
        from gazeintent.numerics import Tape

        def record(self, node):
            raise AssertionError("an untaped forward recorded an op")

        monkeypatch.setattr(Tape, "record", record)
        p = model.init_params(model.ModelConfig(), 0)
        out = model.forward(p, rand_batch(p.config, n=1))
        assert out.shape == (1, 2) and out._node is None and not out.requires_grad


class TestGradients:
    def test_classifier_loss_gradcheck(self):
        from gazeintent.numerics import weighted_cross_entropy
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0).astype(np.float64)
        batch = rand_batch(cfg, n=2, dtype=np.float64)
        labels = np.array([0, 1])
        w = Tensor(np.array([1.0, 1.0]))

        def loss_fn():
            return weighted_cross_entropy(model.forward(p, batch), labels, w)

        names = [k for k in p.learnable_names()]
        err = finite_difference_check(loss_fn, [p.tensors[k] for k in names],
                                      n_coords=60)
        assert err <= 1e-5

    def test_velocity_loss_gradcheck(self):
        from gazeintent.numerics import mse_loss
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=1, head_kind=model.VELOCITY_HEAD)
        p = p.astype(np.float64)
        batch = rand_batch(cfg, n=2, seed=6, dtype=np.float64)
        target = Tensor(np.random.default_rng(7).normal(size=(2, 2)))

        def loss_fn():
            return mse_loss(model.forward(p, batch), target)

        names = [k for k in p.learnable_names()]
        err = finite_difference_check(loss_fn, [p.tensors[k] for k in names],
                                      n_coords=60)
        assert err <= 1e-5


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0)
        session_meta = dataio.SessionMeta("S00", "text", 2.0, 100.0, 100.0)
        w = dataio.Window(g=np.ones((2, 24)), c=np.ones((2, 24)), t_end=0.2,
                          subject_id="S00", label=0)
        stats = dataio.compute_stats([w], session_meta)
        model.save_checkpoint(p, stats, tmp_path / "ckpt")
        back, back_stats = model.load_checkpoint(tmp_path / "ckpt")
        assert back.checksum() == p.checksum()
        assert back.head_kind == p.head_kind
        assert back.config == cfg
        assert back_stats.to_json() == stats.to_json()
        # saving the loaded params again reproduces identical files
        model.save_checkpoint(back, back_stats, tmp_path / "ckpt2")
        assert (tmp_path / "ckpt" / "weights.bin").read_bytes() == \
            (tmp_path / "ckpt2" / "weights.bin").read_bytes()
        assert (tmp_path / "ckpt" / "manifest.json").read_text() == \
            (tmp_path / "ckpt2" / "manifest.json").read_text()

    def test_truncated_weights_rejected(self, tmp_path):
        p = model.init_params(model.ModelConfig(), seed=0)
        model.save_checkpoint(p, None, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
        (tmp_path / "ckpt" / "weights.bin").write_bytes(blob[:-4])
        with pytest.raises(DataError, match="length"):
            model.load_checkpoint(tmp_path / "ckpt")

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(DataError):
            model.load_checkpoint(tmp_path / "nope")

    def _edit_manifest(self, tmp_path, edit):
        p = model.init_params(model.ModelConfig(), seed=0)
        model.save_checkpoint(p, None, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        doc = json.loads(path.read_text())
        path.write_text(edit(doc) if callable(edit) else edit)
        return tmp_path / "ckpt"

    @pytest.mark.parametrize("text", ['{"format": ', "[1, 2]", "\xff\xfe"])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        ckpt = self._edit_manifest(tmp_path, text)
        with pytest.raises(DataError):
            model.load_checkpoint(ckpt)

    def test_unknown_format_rejected(self, tmp_path):
        ckpt = self._edit_manifest(tmp_path, lambda d: json.dumps({**d, "format": "v0"}))
        with pytest.raises(DataError, match="gazeintent-ckpt-v1"):
            model.load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit", [
        lambda d: {**d, "config": {**d["config"], "zoom": 2}},
        lambda d: {k: v for k, v in d.items() if k != "tensors"},
        lambda d: {**d, "config": None},
        lambda d: {**d, "tensors": [{**e, "offset": 1 << 30} for e in d["tensors"]]},
    ], ids=["unknown_config_key", "missing_key", "wrong_type", "offset_out_of_range"])
    def test_malformed_manifest_fields_rejected(self, tmp_path, edit):
        ckpt = self._edit_manifest(tmp_path, lambda d: json.dumps(edit(d)))
        with pytest.raises(DataError):
            model.load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit,match", [
        ("drop", "holds"), ("transpose", "fusion.w"), ("nan", "non-finite"),
        ("swap", "tf0.attn.wk"), ("share", "tf0.attn.wq"), ("float64", "fusion.w"),
        ("extra", "the end"), ("deep", "architecture"), ("hologram", "architecture"),
        ("zero_std", "positive"), ("no_channels", "lack a stream")])
    def test_unusable_checkpoint_rejected(self, tmp_path, edit, match):
        model.save_checkpoint(model.init_params(model.ModelConfig(), seed=0), unit_stats(),
                              tmp_path / "ckpt")
        edit_checkpoint(tmp_path / "ckpt", edit)
        start = time.perf_counter()
        with pytest.raises(DataError, match=match) as raised:
            model.load_checkpoint(tmp_path / "ckpt")
        assert str(tmp_path / "ckpt") in str(raised.value)
        # "deep": a stored config is compared, never built
        assert time.perf_counter() - start < 1.0

    def test_unknown_head_kind_rejected(self, tmp_path):
        ckpt = self._edit_manifest(tmp_path, lambda d: json.dumps({**d, "head_kind": "ranker"}))
        with pytest.raises(DataError, match="unknown head kind"):
            model.load_checkpoint(ckpt)

    def test_config_larger_than_weights_rejected(self, tmp_path):
        # about 10^13 values asked for: rejected without building a layout
        big = {"d_model": 10 ** 6, "ffn_hidden": 10 ** 6}
        ckpt = self._edit_manifest(
            tmp_path, lambda d: json.dumps({**d, "config": {**d["config"], **big}}))
        with pytest.raises(DataError, match="architecture"):
            model.load_checkpoint(ckpt)

    def test_invalid_config_rejected(self, tmp_path):
        for i, change in enumerate([{"n_heads": 3}, {"d_model": 32}, {"window": 12}]):
            ckpt = self._edit_manifest(
                tmp_path / str(i), lambda d: json.dumps({**d, "config": {**d["config"], **change}}))
            with pytest.raises(DataError, match="architecture"):
                model.load_checkpoint(ckpt)

    def test_finetune_load_keeps_backbone_swaps_head(self, tmp_path):
        cfg = model.ModelConfig()
        p = model.init_params(cfg, seed=0, head_kind=model.VELOCITY_HEAD)
        model.save_checkpoint(p, None, tmp_path / "ckpt")
        ft, _ = model.load_for_finetune(tmp_path / "ckpt", head_seed=99)
        assert ft.head_kind == model.CLASSIFIER_HEAD
        assert ft.checksum(ft.backbone_names()) == p.checksum(p.backbone_names())
        assert not np.array_equal(ft.tensors["head.w"].data,
                                  p.tensors["head.w"].data)
        fresh = model.init_params(cfg, 99)
        np.testing.assert_array_equal(ft.tensors["head.w"].data,
                                      fresh.tensors["head.w"].data)

    def test_reinit_head_returns_a_copy(self):
        p = model.init_params(model.ModelConfig(), seed=0, head_kind=model.VELOCITY_HEAD)
        before = p.checksum()
        ft = model.reinit_head(p, head_seed=99)
        assert p.checksum() == before and p.head_kind == model.VELOCITY_HEAD
        assert ft.head_kind == model.CLASSIFIER_HEAD
        assert all(ft.tensors[k] is not p.tensors[k] for k in p.tensors)

    @pytest.mark.parametrize("mode", model.INPUT_MODES)
    def test_reinit_head_equals_init_params_head(self, mode):
        # the head is drawn after skipping the backbone's uniform draws
        cfg = model.ModelConfig(input_mode=mode)
        p = model.init_params(cfg, seed=0, head_kind=model.VELOCITY_HEAD)
        ft = model.reinit_head(p, head_seed=7)
        fresh = model.init_params(cfg, 7)
        for name in ("head.w", "head.b"):
            assert ft.tensors[name].data.tobytes() == fresh.tensors[name].data.tobytes()
            assert ft.tensors[name].requires_grad
        assert ft.checksum(ft.backbone_names()) == p.checksum(p.backbone_names())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for k, v in items:
        yield from _json_paths(v, prefix + (k,))


class TestCheckpointFuzz:
    """Whatever the checkpoint files hold, `load_checkpoint` raises only
    DataError: a checkpoint, its stored config included, is data."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "ckpt"
        model.save_checkpoint(model.init_params(model.ModelConfig(), seed=0), unit_stats(), path)
        return json.loads((path / "manifest.json").read_text()), \
            (path / "weights.bin").read_bytes()

    @staticmethod
    def _load(tmp_path_factory, manifest: bytes, blob: bytes):
        # one directory for every example: a default-size blob is about 1 MB
        path = tmp_path_factory.getbasetemp() / "fuzz"
        path.mkdir(exist_ok=True)
        (path / "manifest.json").write_bytes(manifest)
        (path / "weights.bin").write_bytes(blob)
        try:
            params, stats = model.load_checkpoint(path)
        except DataError:
            return
        assert {k: t.shape for k, t in params.tensors.items()} == \
            {name: shape for name, shape, _ in model.layout(params.config)}
        assert all(np.isfinite(t.data).all() for t in params.tensors.values())
        if stats is None:
            return
        assert stats.screen_w > 0 and stats.screen_h > 0
        assert set(params.config.streams) <= stats.channels.keys()
        pairs = [*stats.channels.values(), stats.vel or ()]
        for a in (a for pair in pairs for a in pair):
            assert a.shape == (2,) and np.isfinite(a).all()
        assert all((pair[1] > 0).all() for pair in pairs if len(pair))

    @given(manifest=st.binary(max_size=300), blob=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, saved, manifest, blob):
        self._load(tmp_path_factory, manifest, blob)

    @given(data=st.data(), value=JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_edited_manifest(self, tmp_path_factory, saved, data, value):
        doc, blob = json.loads(json.dumps(saved[0])), saved[1]
        # every field of the manifest, with one entry standing for all tensors
        paths = list(_json_paths({**doc, "tensors": doc["tensors"][:1]}))[1:]
        for _ in range(data.draw(st.integers(1, 2))):
            where = data.draw(st.sampled_from(paths))
            parent = doc
            try:
                for k in where[:-1]:
                    parent = parent[k]
                parent[where[-1]] = json.loads(json.dumps(value))
            except (KeyError, IndexError, TypeError):   # an earlier edit moved it
                pass
        if data.draw(st.booleans()):
            blob = blob[:data.draw(st.integers(0, len(blob)))]
        self._load(tmp_path_factory, json.dumps(doc).encode(), blob)


class TestSinusoidalTable:
    def test_first_row_alternates_zero_one(self):
        table = model.sinusoidal_table(24, 8)
        np.testing.assert_allclose(table[0, 0::2], 0.0)
        np.testing.assert_allclose(table[0, 1::2], 1.0)

    def test_closed_form_entries(self):
        table = model.sinusoidal_table(24, 64)
        assert table[5, 0] == pytest.approx(math.sin(5.0))
        assert table[5, 1] == pytest.approx(math.cos(5.0))
        assert table[7, 2] == pytest.approx(math.sin(7.0 / 10000.0 ** (2 / 64)))
