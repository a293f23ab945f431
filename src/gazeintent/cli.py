"""Single executable for the full pipeline: dataset generation, training
(supervised / pretext / fine-tune), LOSO evaluation, and streaming
inference.

Exit codes: 0 success, 2 usage or config error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import gazeintent
from gazeintent import dataio, evaluate, model, stream, synth, train
from gazeintent.errors import ConfigError, DataError, GazeIntentError


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(path, cls):
    """Instantiate a config dataclass from a JSON file, rejecting unknown keys."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: malformed config JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
    return cls(**doc)


def _write_manifest(out_dir, command: str, config, inputs: dict, artifacts: list):
    manifest = {
        "tool_version": gazeintent.__version__,
        "command": command,
        "config": asdict(config),
        "input_checksums": inputs,
        "artifacts": [str(a) for a in artifacts],
    }
    Path(out_dir, "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _config(cls, args):
    """`cls` from the --config file (or its defaults), with every field that a
    same-named option gives on the command line replaced, checked as built."""
    cfg = _load_config(args.config, cls) if args.config else cls()
    return replace(cfg, **{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                           if getattr(args, f.name, None) is not None})


def _out_dir(path) -> Path:
    """The --out directory, created before any work: failing to is a config error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e}") from e
    return out


def _load_sessions(data_dir, task: str = "all"):
    """(sessions, sha256 of each file by path) of a directory's .session
    files, keeping only `task`'s sessions unless it is "all"."""
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob("*.session"))
    if not paths:
        raise DataError(f"no .session files in {data_dir}")
    sessions = [dataio.parse_session(p) for p in paths]
    if task != "all":
        sessions = [s for s in sessions if s.meta.task == task]
        if not sessions:
            raise DataError(f"no sessions with task {task!r}")
    return sessions, {str(p): _sha256(p) for p in paths}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    cfg = _config(synth.SynthConfig, args)
    paths = synth.generate_dataset(cfg, _out_dir(args.out))
    _write_manifest(args.out, "gen", cfg, {}, paths)
    print(f"wrote {len(paths)} session files to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(train.TrainConfig, args)
    if args.mode == "finetune" and not args.from_ckpt:
        raise ConfigError("finetune requires --from CKPT")
    out = _out_dir(args.out)
    sessions, checksums = _load_sessions(args.data, args.task)
    if args.mode == "pretrain":
        params, stats, history = train.pretrain(sessions, cfg)
    elif args.mode == "finetune":
        params, stats, history = train.finetune(args.from_ckpt, sessions, cfg)
    else:
        params, stats, history = train.supervised_train(sessions, cfg)
    train.write_artifacts(out, params, stats, history,
                          cfg, extra_manifest={"mode": args.mode,
                                               "input_checksums": checksums,
                                               "windows": history.windows})
    _write_manifest(out, f"train:{args.mode}", cfg, checksums,
                    [out / "checkpoint", out / "history.jsonl"])
    last = history[-1]
    print(f"{args.mode}: {len(history)} epochs, final train_loss "
          f"{last['train_loss']:.4f}, val_loss {last['val_loss']:.4f}")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return 0


def _eval_report(sessions, checksums: dict, pipeline: str, cfg, out) -> evaluate.F1Report:
    """One LOSO evaluation, written to `out` as eval's report.json."""
    report = evaluate.loso_evaluate(sessions, pipeline, cfg)
    cfg_hash = hashlib.sha256(
        json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()
    evaluate.write_report(report, out,
                          extra={"config": asdict(cfg), "config_hash": cfg_hash,
                                 "input_checksums": checksums})
    return report


def cmd_eval(args) -> int:
    cfg = _config(train.TrainConfig, args)
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {out} must be a file path in an existing directory")
    sessions, checksums = _load_sessions(args.data, args.task)
    report = _eval_report(sessions, checksums, args.pipeline, cfg, out)
    print(report.table())
    print(f"report written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    """eval over every (label fraction, pipeline, seed) cell: one report per
    cell, plus the mean and std of f1_overall over seeds per (fraction,
    pipeline) in sweep.json and a table."""
    base = _config(train.TrainConfig,
                   argparse.Namespace(**{**vars(args), "seed": None, "label_fraction": None}))
    fractions = list(dict.fromkeys(args.label_fraction or [base.label_fraction]))
    pipelines = list(dict.fromkeys(args.pipeline))
    seeds = list(dict.fromkeys(args.seed or [base.seed]))
    cells = {(fraction, seed): replace(base, label_fraction=fraction, seed=seed)
             for fraction in fractions for seed in seeds}
    out = _out_dir(args.out)
    sessions, checksums = _load_sessions(args.data, args.task)
    rows = []
    print("fraction " + "".join(f"{p:>18}" for p in pipelines))
    for fraction in fractions:
        line = f"{fraction:<9g}"
        for pipeline in pipelines:
            scores = []
            for seed in seeds:
                cell = out / f"{pipeline}_lf{fraction!r}_seed{seed}.json"
                scores.append(_eval_report(sessions, checksums, pipeline,
                                           cells[fraction, seed], cell).f1_overall)
                print(f"{cell}: f1_overall {scores[-1]:.2f}", file=sys.stderr)
            rows.append({"label_fraction": fraction, "pipeline": pipeline, "seeds": seeds,
                         "f1_overall": scores, "mean": float(np.mean(scores)),
                         "std": float(np.std(scores))})
            line += f"{rows[-1]['mean']:11.2f}+/-{rows[-1]['std']:4.2f}"
        print(line)
    (out / "sweep.json").write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"reports and sweep.json written to {out}")
    return 0


def _iter_feed_lines(source):
    """Lines of a UTF-8 feed file, or of stdin for "-"; a feed that cannot
    be read or decoded raises DataError."""
    try:
        if source == "-":
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(encoding="utf-8")
            yield from sys.stdin
        else:
            with open(source, encoding="utf-8") as f:
                yield from f
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read feed {source}: {e}") from e


def _read_feed(source):
    """Samples of a CSV feed, skipping blank lines and the column header.
    Rows are parsed and checked like a session file's gaze rows; a bad row
    raises DataError with its line number."""
    prev_t = None
    for lineno, line in enumerate(_iter_feed_lines(source), start=1):
        line = line.strip()
        if not line or line == dataio.GAZE_HEADER:
            continue
        try:
            sample = dataio.parse_gaze_row(line.split(","), prev_t)
        except ValueError as e:
            raise DataError(f"feed line {lineno}: {e}") from e
        prev_t = sample.t
        yield sample


def cmd_infer(args) -> int:
    ckpt = Path(args.ckpt)
    if not (ckpt / "manifest.json").exists():
        raise ConfigError(f"no checkpoint at {ckpt}")
    if args.input != "-" and not Path(args.input).exists():
        raise DataError(f"no such input file: {args.input}")

    session = None
    if args.input != "-" and args.input.endswith(".session"):
        session = dataio.parse_session(args.input)
        magnification = session.meta.magnification
        samples = session.gaze
    else:
        magnification = args.magnification
        samples = _read_feed(args.input)
        if args.eye == "auto":
            # the batch rule reads the first ceil(10%) of the whole feed
            samples = dataio.GazeColumns.from_rows(samples)
    eye = args.eye if args.eye != "auto" else dataio.select_eye(samples)
    engine = stream.StreamingEngine.from_checkpoint(
        ckpt, magnification, eye=eye, stride=args.stride)
    if session is not None:
        # the checkpoint's stats normalize by the screen they were made on
        dataio.one_screen([session.meta, engine.stats])
    n = 0
    for sample in samples:
        decision = engine.push(sample)
        if decision is not None:
            n += 1
            print(json.dumps({"t": decision.t_end, "label": decision.label,
                              "p_reading": decision.p_reading}))
    print(f"emitted {n} decisions", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def _add_training_args(p, many: bool = False) -> None:
    """The data and TrainConfig options that train, eval and sweep share;
    with `many`, --seed and --label-fraction take one or more values."""
    nargs = "+" if many else None
    p.add_argument("--data", required=True, help="directory of .session files")
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--task", default="all", choices=("all", "text", "webpage"))
    p.add_argument("--input-mode", dest="input_mode", choices=model.INPUT_MODES,
                   help="input ablation (default gaze_plus_comp)")
    p.add_argument("--seed", type=int, nargs=nargs)
    p.add_argument("--stride", type=int, help="window stride in samples (default 6)")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="default 256")
    p.add_argument("--max-epochs", dest="max_epochs", type=int, help="default 50")
    p.add_argument("--patience", type=int, help="early-stop patience (default 5)")
    p.add_argument("--label-fraction", dest="label_fraction", type=float, nargs=nargs,
                   help="fraction of training labels kept (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazeintent",
        description="Reading vs. scanning intent from magnified-screen gaze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded synthetic dataset")
    p.add_argument("--config", help="SynthConfig JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--subjects", dest="n_subjects", type=int, help="override subject count")
    p.add_argument("--session-len", dest="session_len", type=float,
                   help="override session length (seconds)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one stage")
    p.add_argument("--mode", required=True,
                   choices=("supervised", "pretrain", "finetune"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--from", dest="from_ckpt", help="pretext checkpoint (finetune)")
    p.add_argument("--freeze", choices=train.FREEZE_MODES,
                   help="finetune freeze mode (default full)")
    p.add_argument("--lr", type=float, help="default 3e-4")
    p.add_argument("--weight-decay", dest="weight_decay", type=float,
                   help="default 0.01")
    _add_training_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="leave-one-subject-out evaluation")
    p.add_argument("--pipeline", required=True, choices=evaluate.PIPELINES)
    p.add_argument("--out", required=True, help="report.json path")
    _add_training_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="eval over label fractions, pipelines and seeds")
    p.add_argument("--pipeline", required=True, nargs="+", choices=evaluate.PIPELINES)
    p.add_argument("--out", required=True,
                   help="directory for one report per cell and sweep.json")
    _add_training_args(p, many=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("infer", help="streaming gaze-only inference")
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--input", required=True,
                   help=".session file, CSV feed file, or '-' for stdin")
    p.add_argument("--stride", type=int, default=6, help="emission stride")
    p.add_argument("--eye", default="auto", choices=("auto", "left", "right"))
    p.add_argument("--magnification", type=float, default=1.0,
                   help="lens factor for raw feeds (session files carry their own)")
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GazeIntentError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
