"""Dual-stream gaze architecture: per-stream 1D CNN encoders, bidirectional
cross-attention fusion, a pre-norm transformer encoder, and a swappable
velocity-regression / intent-classification head. Includes bit-exact
checkpoint serialization. The architecture is fixed: a `ModelConfig`
chooses only which input streams the model reads.

`layout` is the one description of a model's tensors: `init_params` draws
along it, and a checkpoint's manifest entries follow it on save and load.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from itertools import zip_longest
from pathlib import Path

import numpy as np

from gazeintent import dataio
from gazeintent.errors import ConfigError, DataError, ShapeError
from gazeintent.numerics import (
    Tensor,
    concat,
    conv1d,
    layer_norm,
    linear,
    merge_heads,
    scaled_dot_attention,
    softmax_lastaxis,
    split_heads,
)

VELOCITY_HEAD = "velocity_regressor"
CLASSIFIER_HEAD = "intent_classifier"
CHECKPOINT_FORMAT = "gazeintent-ckpt-v1"

SINGLE_STREAM_MODES = ("gaze_only", "comp_only", "mouse_only")
INPUT_MODES = ("gaze_plus_comp", "mouse_gaze_comp") + SINGLE_STREAM_MODES


@dataclass(frozen=True)
class ModelConfig:
    """The one architecture: `input_mode` is its only argument."""
    d_model: int = field(default=64, init=False)
    n_heads: int = field(default=4, init=False)
    cnn_layers: int = field(default=3, init=False)
    kernel: int = field(default=3, init=False)
    transformer_layers: int = field(default=3, init=False)
    ffn_hidden: int = field(default=256, init=False)
    window: int = field(default=dataio.WINDOW_LEN, init=False)
    in_channels: int = field(default=2, init=False)
    input_mode: str = "gaze_plus_comp"

    def __post_init__(self):
        if self.input_mode not in INPUT_MODES:
            raise ConfigError(f"unknown input_mode {self.input_mode!r}")

    @property
    def streams(self) -> tuple:
        return {
            "gaze_plus_comp": ("g", "c"),
            "mouse_gaze_comp": ("g", "c", "m"),
            "gaze_only": ("g",),
            "comp_only": ("c",),
            "mouse_only": ("m",),
        }[self.input_mode]


@dataclass
class ModelParams:
    config: ModelConfig
    head_kind: str
    tensors: dict = field(default_factory=dict)

    def copy(self) -> "ModelParams":
        out = ModelParams(self.config, self.head_kind)
        out.tensors = {k: Tensor(v.data.copy(), requires_grad=v.requires_grad)
                       for k, v in self.tensors.items()}
        return out

    def astype(self, dtype) -> "ModelParams":
        """Dtype-converted copy; float64 is used for gradient checking."""
        out = ModelParams(self.config, self.head_kind)
        out.tensors = {k: Tensor(v.data.astype(dtype), requires_grad=v.requires_grad)
                       for k, v in self.tensors.items()}
        return out

    def backbone_names(self) -> list:
        return [k for k in self.tensors if not k.startswith("head.") and k != "pos"]

    def learnable_names(self) -> list:
        return [k for k in self.tensors if k != "pos"]

    def checksum(self, names=None) -> str:
        h = hashlib.sha256()
        for k in sorted(names if names is not None else self.tensors):
            h.update(k.encode())
            h.update(np.ascontiguousarray(self.tensors[k].data, dtype="<f4").tobytes())
        return h.hexdigest()


def sinusoidal_table(T: int, d: int) -> np.ndarray:
    pos = np.arange(T)[:, None]
    i = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    table = np.zeros((T, d))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def layout(cfg: ModelConfig):
    """The one description of a model's tensors: (name, shape, init) in the
    order `init_params` draws them, the same for both heads. `init` is the
    fan-in of a uniform draw, "zeros", "ones" or "sinusoid" (the fixed
    positional table)."""
    d = cfg.d_model

    def linear(prefix, d_in, d_out):
        yield f"{prefix}.w", (d_in, d_out), d_in
        yield f"{prefix}.b", (d_out,), "zeros"

    def layernorm(prefix):
        yield f"{prefix}.g", (d,), "ones"
        yield f"{prefix}.b", (d,), "zeros"

    def attention(prefix):
        for name in ("wq", "wk", "wv", "wo"):
            yield f"{prefix}.{name}", (d, d), d
            yield f"{prefix}.{name[1]}b", (d,), "zeros"

    for stream in cfg.streams:
        for li in range(cfg.cnn_layers):
            ci = cfg.in_channels if li == 0 else d
            yield f"enc_{stream}.conv{li}.w", (d, ci, cfg.kernel), ci * cfg.kernel
            yield f"enc_{stream}.conv{li}.b", (d,), "zeros"
    if cfg.input_mode not in SINGLE_STREAM_MODES:
        for block in ("cross_gc", "cross_cg"):
            yield from attention(block)
            yield from layernorm(f"{block}.ln")
        # two cross-attention outputs, plus the raw mouse encoding if present
        yield from linear("fusion", d * len(cfg.streams), d)
    for li in range(cfg.transformer_layers):
        yield from attention(f"tf{li}.attn")
        yield from layernorm(f"tf{li}.ln1")
        yield from layernorm(f"tf{li}.ln2")
        yield from linear(f"tf{li}.ffn1", d, cfg.ffn_hidden)
        yield from linear(f"tf{li}.ffn2", cfg.ffn_hidden, d)
    yield from linear("head", d, 2)
    yield "pos", (cfg.window, d), "sinusoid"


def init_params(cfg: ModelConfig, seed: int, head_kind: str = CLASSIFIER_HEAD) -> ModelParams:
    """Deterministic initialization along `layout`: uniform fan-in scaling,
    zero biases, unit layer-norm gains."""
    if head_kind not in (VELOCITY_HEAD, CLASSIFIER_HEAD):
        raise ConfigError(f"unknown head kind {head_kind!r}")
    rng = np.random.default_rng(seed)
    params = ModelParams(cfg, head_kind)
    for name, shape, init in layout(cfg):
        if init == "sinusoid":
            data = sinusoidal_table(*shape)
        elif init == "zeros":
            data = np.zeros(shape, dtype=np.float32)
        elif init == "ones":
            data = np.ones(shape, dtype=np.float32)
        else:
            bound = 1.0 / math.sqrt(init)
            data = rng.uniform(-bound, bound, size=shape)
        params.tensors[name] = Tensor(data.astype(np.float32, copy=False),
                                      requires_grad=init != "sinusoid")
    return params


# ---------------------------------------------------------------------------
# forward


def _mha(q_in: Tensor, kv_in: Tensor, t: dict, prefix: str, n_heads: int) -> Tensor:
    q = split_heads(linear(q_in, t[f"{prefix}.wq"], t[f"{prefix}.qb"]), n_heads)
    k = split_heads(linear(kv_in, t[f"{prefix}.wk"], t[f"{prefix}.kb"]), n_heads)
    v = split_heads(linear(kv_in, t[f"{prefix}.wv"], t[f"{prefix}.vb"]), n_heads)
    out = merge_heads(scaled_dot_attention(q, k, v))
    return linear(out, t[f"{prefix}.wo"], t[f"{prefix}.ob"])


def encode_stream(x: Tensor, stream: str, params: ModelParams) -> Tensor:
    """(B, C, T) -> (B, T, d) through the stream's CNN stack."""
    cfg = params.config
    if x.data.shape[-2:] != (cfg.in_channels, cfg.window):
        raise ShapeError(f"stream input must be (..,{cfg.in_channels},{cfg.window}), got {x.shape}")
    h = x
    for li in range(cfg.cnn_layers):
        h = conv1d(h, params.tensors[f"enc_{stream}.conv{li}.w"],
                   params.tensors[f"enc_{stream}.conv{li}.b"]).relu()
    return h.swapaxes(-1, -2)


def _cross_block(q_in: Tensor, kv_in: Tensor, params: ModelParams, block: str) -> Tensor:
    t = params.tensors
    attn = _mha(q_in, kv_in, t, block, params.config.n_heads)
    return layer_norm(q_in + attn, t[f"{block}.ln.g"], t[f"{block}.ln.b"])


def cross_fuse(hg: Tensor, hc: Tensor, params: ModelParams,
               hm: Tensor | None = None) -> Tensor:
    """Bidirectional cross-attention, concatenation and linear projection,
    with a residual from the mean of the input streams."""
    if hg.shape != hc.shape:
        raise ShapeError(f"stream encodings disagree: {hg.shape} vs {hc.shape}")
    t = params.tensors
    a = _cross_block(hg, hc, params, "cross_gc")   # Q=g, K/V=c
    b = _cross_block(hc, hg, params, "cross_cg")   # Q=c, K/V=g
    parts = [a, b]
    streams = [hg, hc]
    if hm is not None:
        parts.append(hm)
        streams.append(hm)
    fused = linear(concat(parts, axis=-1), t["fusion.w"], t["fusion.b"])
    mean_in = streams[0]
    for s in streams[1:]:
        mean_in = mean_in + s
    return fused + mean_in * (1.0 / len(streams))


def _transformer(h: Tensor, params: ModelParams, last_row_only: bool) -> Tensor:
    cfg = params.config
    t = params.tensors
    h = h + t["pos"]
    for li in range(cfg.transformer_layers):
        n1 = layer_norm(h, t[f"tf{li}.ln1.g"], t[f"tf{li}.ln1.b"])
        q_in = n1
        if last_row_only and li == cfg.transformer_layers - 1:
            # the head reads one row of the last layer: only the keys and
            # values of that layer need every row
            q_in, h = n1[:, -1:], h[:, -1:]
        h = h + _mha(q_in, n1, t, f"tf{li}.attn", cfg.n_heads)
        n2 = layer_norm(h, t[f"tf{li}.ln2.g"], t[f"tf{li}.ln2.b"])
        ff = linear(n2, t[f"tf{li}.ffn1.w"], t[f"tf{li}.ffn1.b"]).relu()
        h = h + linear(ff, t[f"tf{li}.ffn2.w"], t[f"tf{li}.ffn2.b"])
    return h


def transformer_forward(h: Tensor, params: ModelParams) -> Tensor:
    """Sinusoidal positions added once at entry, then pre-norm self-attention
    + feed-forward layers with residuals. Returns every row."""
    return _transformer(h, params, last_row_only=False)


def forward(params: ModelParams, batch: dict) -> Tensor:
    """Batch of normalized windows -> (B, 2) head output (logits or velocity).

    The head reads row window-1 of the transformer output, so the last
    transformer layer computes its query, attention output and feed-forward
    for that row alone.
    """
    cfg = params.config
    streams = cfg.streams
    dtype = params.tensors["head.w"].data.dtype
    encoded = {}
    for s in streams:
        if s not in batch:
            raise ConfigError(f"input_mode {cfg.input_mode} needs stream {s!r}")
        x = batch[s] if isinstance(batch[s], Tensor) else Tensor(np.asarray(batch[s], dtype=dtype))
        encoded[s] = encode_stream(x, s, params)
    if cfg.input_mode in SINGLE_STREAM_MODES:
        h = encoded[streams[0]]
    else:
        h = cross_fuse(encoded["g"], encoded["c"], params, hm=encoded.get("m"))
    last = _transformer(h, params, last_row_only=True)[:, -1]   # row window-1
    return linear(last, params.tensors["head.w"], params.tensors["head.b"])


def predict_proba(params: ModelParams, batch: dict) -> np.ndarray:
    """Class probabilities (reading, scanning) without recording a tape."""
    if params.head_kind != CLASSIFIER_HEAD:
        raise ConfigError("predict_proba requires the classifier head")
    logits = forward(params, batch)
    return softmax_lastaxis(logits).data


# ---------------------------------------------------------------------------
# checkpoints


def _entries(tensors):
    """Manifest entries for `layout`'s (name, shape, init) tuples: name
    order, float32, offsets back to back. Save writes these, and load
    accepts nothing else."""
    offset = 0
    for name, shape, _ in sorted(tensors):
        nbytes = 4 * math.prod(shape)
        yield {"name": name, "shape": list(shape), "dtype": "float32",
               "offset": offset, "nbytes": nbytes}
        offset += nbytes


def save_checkpoint(params: ModelParams, stats, path) -> None:
    """Directory with manifest.json and weights.bin (little-endian f32)."""
    entries = list(_entries(layout(params.config)))
    dataio.write_file(Path(path, "manifest.json"), {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(params.config),
        "head_kind": params.head_kind,
        "stats": stats.to_json(),
        "tensors": entries,
    })
    dataio.write_file(Path(path, "weights.bin"),
                      (np.ascontiguousarray(params.tensors[e["name"]].data, dtype="<f4").tobytes()
                       for e in entries))


def load_checkpoint(path):
    """Returns (ModelParams, NormStats); bit-exact inverse of save.

    Everything a checkpoint holds is data, checked before it is used: the
    stored config must be the architecture of a known input mode, and the
    manifest's tensor entries exactly those `save_checkpoint` writes for it
    (names, shapes, dtype, offsets and sizes are derived from `layout`,
    never trusted). Any other config, an unknown head kind, a `weights.bin`
    of another length, any other entry, a non-finite weight, or stats that
    are missing, break the `NormStats` rule or lack a stream the model reads
    raise DataError naming the checkpoint, as does one that cannot be read.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
        blob = (path / "weights.bin").read_bytes()
    except OSError as e:
        raise DataError(f"cannot read checkpoint at {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: malformed manifest.json: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    try:
        stored = manifest["config"]
        cfg = next((c for c in map(ModelConfig, INPUT_MODES) if asdict(c) == stored), None)
        if cfg is None:
            raise DataError(f"{path}: stored config is not the model's architecture for "
                            f"a known input_mode: {stored!r:.200}")
        params = ModelParams(cfg, manifest["head_kind"])
        if params.head_kind not in (VELOCITY_HEAD, CLASSIFIER_HEAD):
            raise DataError(f"{path}: unknown head kind {params.head_kind!r}")
        got = manifest["tensors"]
        want = list(_entries(layout(params.config)))
        need = sum(e["nbytes"] for e in want)
        if need != len(blob):
            raise DataError(f"{path}: weights.bin holds {len(blob)} bytes, "
                            f"its config needs a length of {need}")
        for i, (w, e) in enumerate(zip_longest(want, got)):
            if w != e:
                where = f"tensor {w['name']}" if w else "the end"
                raise DataError(f"{path}: manifest entry {i} does not match {where} "
                                f"of the stored config's layout")
        values = np.split(np.frombuffer(blob, dtype="<f4"), [w["offset"] // 4 for w in want[1:]])
        for w, data in zip(want, values):
            params.tensors[w["name"]] = Tensor(data.reshape(w["shape"]).copy(),
                                               requires_grad=w["name"] != "pos")
        bad = [k for k, t in params.tensors.items() if not np.isfinite(t.data).all()]
        if bad:
            raise DataError(f"{path}: tensors {bad} hold non-finite values")
        try:
            stats = dataio.NormStats.from_json(manifest["stats"])
        except (DataError, ValueError) as e:  # it names the key and field it rejects
            raise DataError(f"{path}: malformed checkpoint manifest: {e}") from e
        if not set(cfg.streams) <= stats.channels.keys():
            raise DataError(f"{path}: normalization stats lack a stream that "
                            f"input_mode {cfg.input_mode} reads")
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed checkpoint manifest: {e!r}") from e
    return params, stats


def reinit_head(params: ModelParams, head_seed: int) -> ModelParams:
    """Copy of `params` keeping the backbone, with a freshly initialized
    classifier head: the head of `init_params(params.config, head_seed)`."""
    out = params.copy()
    fresh = init_params(params.config, head_seed)
    out.tensors.update((k, t) for k, t in fresh.tensors.items() if k.startswith("head."))
    out.head_kind = CLASSIFIER_HEAD
    return out


def load_for_finetune(path, head_seed: int):
    """Load a checkpoint keeping the backbone and reinitializing only the
    classifier head (`reinit_head`)."""
    params, stats = load_checkpoint(path)
    return reinit_head(params, head_seed), stats
