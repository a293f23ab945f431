"""Single executable for the full pipeline: dataset generation, training
(supervised / pretext / fine-tune), LOSO evaluation, and streaming
inference.

Exit codes: 0 success, 2 usage or config error, 3 data error,
4 internal fault: a broken invariant or any other unexpected exception.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import asdict, replace
from itertools import chain, islice
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


def _load_config(path, cls) -> dict:
    """The fields that a JSON config file names, rejecting keys that are not `cls` fields."""
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
    return doc


def _write_manifest(out_dir, command: str, config, inputs: dict, artifacts: list, **extra):
    dataio.write_file(Path(out_dir, "manifest.json"), {
        "tool_version": gazeintent.__version__,
        "command": command,
        "config": asdict(config),
        "input_checksums": inputs,
        "artifacts": [str(a) for a in artifacts],
        **extra,
    })


def _config(cls, args, reader: str = "", unread=()):
    """`cls` from the fields that the --config file names, each one that a
    same-named option gives replaced, checked as built. A field in `unread`
    that the file or an option names is a ConfigError: `reader` never reads it."""
    file_fields = _load_config(args.config, cls) if args.config else {}
    options = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
               if getattr(args, f.name, None) is not None}
    for name in unread:
        if name in file_fields or name in options:
            raise ConfigError(f"config field {name} is not read by {reader}")
    return replace(cls(**file_fields), **options)


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
    paths = synth.generate_dataset(cfg, dataio.writable_dir(args.out))
    _write_manifest(args.out, "gen", cfg, {}, paths)
    print(f"wrote {len(paths)} session files to {args.out}")
    return 0


def cmd_train(args) -> int:
    unread = {"supervised": ["freeze"], "pretrain": ["freeze", "label_fraction"], "finetune": []}
    cfg = _config(train.TrainConfig, args, f"--mode {args.mode}", unread[args.mode])
    if args.mode == "finetune" and not args.from_ckpt:
        raise ConfigError("finetune requires --from CKPT")
    if args.mode != "finetune" and args.from_ckpt is not None:
        raise ConfigError("--from applies only to --mode finetune")
    out = dataio.writable_dir(args.out)
    sessions, checksums = _load_sessions(args.data, args.task)
    if args.mode == "pretrain":
        params, stats, history = train.pretrain(sessions, cfg)
    elif args.mode == "finetune":
        params, stats, history = train.finetune(args.from_ckpt, sessions, cfg)
    else:
        params, stats, history = train.supervised_train(sessions, cfg)
    model.save_checkpoint(params, stats, out / "checkpoint")
    dataio.write_file(out / "history.jsonl",
                      (json.dumps(entry, sort_keys=True) + "\n" for entry in history))
    _write_manifest(out, f"train:{args.mode}", cfg, checksums,
                    [out / "checkpoint", out / "history.jsonl"], windows=history.windows)
    last = history[-1]
    print(f"{args.mode}: {len(history)} epochs, final train_loss "
          f"{last['train_loss']:.4f}, val_loss {last['val_loss']:.4f}")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return 0


def _eval_report(sessions, checksums: dict, pipeline: str, cfg, out) -> evaluate.F1Report:
    """One LOSO evaluation, written to `out` as eval's report.json with the
    config its folds ran and that config's hash."""
    report = evaluate.loso_evaluate(sessions, pipeline, cfg)
    config = asdict(report.config)
    cfg_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    dataio.write_file(out, {**report.to_json(), "config": config, "config_hash": cfg_hash,
                            "input_checksums": checksums})
    return report


def cmd_eval(args) -> int:
    cfg = _config(train.TrainConfig, args, "eval: --pipeline sets it", ["freeze"])
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"cannot write {out}: --out must be a file path in an existing directory")
    dataio.writable_dir(out.parent)
    sessions, checksums = _load_sessions(args.data, args.task)
    report = _eval_report(sessions, checksums, args.pipeline, cfg, out)
    print(report.table())
    print(f"report written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    """eval over every (label fraction, pipeline, seed) cell: one report per
    cell, plus the mean and std of f1_overall over seeds per (fraction,
    pipeline) in sweep.json and a table."""
    base = _config(train.TrainConfig, args, "sweep: --pipeline sets it", ["freeze"])
    fractions = list(dict.fromkeys(args.label_fractions or [base.label_fraction]))
    pipelines = list(dict.fromkeys(args.pipeline))
    seeds = list(dict.fromkeys(args.seeds or [base.seed]))
    cells = {(fraction, seed): replace(base, label_fraction=fraction, seed=seed)
             for fraction in fractions for seed in seeds}
    out = dataio.writable_dir(args.out)
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
    dataio.write_file(out / "sweep.json", rows)
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


def _read_feed(source, screen: tuple, magnification: float):
    """`GazeColumns` chunks of a CSV feed, skipping blank lines and the header.
    Rows pass the gaze row rules of a session file, on the screen (w, h)
    at `magnification`; a bad row raises DataError with its line number,
    after a chunk of the rows before it; a feed states no magnification, so
    a viewport fault names the option that set it. A file is checked
    PARSE_ROWS lines at a time, stdin a line at a time so that a live feed
    is never held back."""
    lines = enumerate(_iter_feed_lines(source), start=1)
    size = 1 if source == "-" else dataio.PARSE_ROWS
    prev_t = None
    while chunk := list(islice(lines, size)):
        kept = [(lineno, row) for lineno, line in chunk
                if (row := line.strip()) and row != dataio.GAZE_HEADER]
        if not kept:
            continue
        linenos, rows = zip(*kept)
        values, fault = dataio.parse_gaze_rows(rows, prev_t, screen, magnification)
        yield dataio.GazeColumns(values[:len(rows) if fault is None else fault[0]].T)
        if fault is not None:
            index, message = fault
            if message.startswith("viewport "):
                message += f" at --magnification {magnification}"
            raise DataError(f"feed line {linenos[index]}: {message}")
        prev_t = float(values[-1, 0])


AUTO_EYE_ROWS = 120  # rows of a live feed (1 s) that `infer --eye auto` reads before streaming


def cmd_infer(args) -> int:
    ckpt = Path(args.ckpt)
    if not (ckpt / "manifest.json").exists():
        raise ConfigError(f"no checkpoint at {ckpt}")
    if args.input != "-" and not Path(args.input).exists():
        raise DataError(f"no such input file: {args.input}")

    session = None
    magnification = args.magnification
    if args.input != "-" and args.input.endswith(".session"):
        session = dataio.parse_session(args.input)
        magnification = session.meta.magnification
    # the engine checks the magnification before a feed row is checked
    # against it; an `auto` eye is set once the samples are known
    eye = {} if args.eye == "auto" else {"eye": args.eye}
    engine = stream.StreamingEngine.from_checkpoint(ckpt, magnification, stride=args.stride, **eye)
    if session is not None:
        # the checkpoint's stats normalize by the screen they were made on
        dataio.one_screen([session.meta, engine.stats])
        chunks = iter([session.gaze])
    else:
        screen = (engine.stats.screen_w, engine.stats.screen_h)
        chunks = _read_feed(args.input, screen, magnification)
    eye_rows = None
    if args.eye == "auto":
        # a live feed is held back for its first AUTO_EYE_ROWS rows (a row a chunk) only;
        # other input is read whole, for the batch rule's first ceil(10%) (7 x 0 if empty)
        live = args.input == "-"
        read = islice(chunks, AUTO_EYE_ROWS) if live else chunks
        head = dataio.GazeColumns(np.concatenate([np.empty((7, 0))] + [c.data for c in read],
                                                 axis=1))
        eye_rows = len(head) if live else dataio.calibration_rows(len(head))
        engine.eye = dataio.select_eye(head, eye_rows)
        chunks = chain([head], chunks)
    n = 0
    try:
        for sample in chain.from_iterable(chunks):
            decision = engine.push(sample)
            if decision is not None:
                n += 1
                # flushed, so a live feed's reader gets each decision when it is made
                print(json.dumps({"t": decision.t_end, "label": decision.label,
                                  "p_reading": decision.p_reading}), flush=True)
    finally:
        # also before the error of a bad row that ends a run after a push
        if engine.count:
            print(f"emitted {n} decisions", file=sys.stderr)
            print(json.dumps({"pushes": engine.count, "decisions": n,
                              "silent": engine.silent_counts(), "eye": engine.eye,
                              "eye_rows": eye_rows}), file=sys.stderr)
    if engine.count == 0:
        raise DataError("empty session")
    return 0


# ---------------------------------------------------------------------------


def _add_training_args(p, many: bool = False) -> None:
    """The data and TrainConfig options that train, eval and sweep share;
    with `many`, --seed and --label-fraction take one or more values, kept in
    `seeds` and `label_fractions`, which name no config field."""
    nargs = "+" if many else None
    p.add_argument("--data", required=True, help="directory of .session files")
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--task", default="all", choices=("all", "text", "webpage"))
    p.add_argument("--input-mode", dest="input_mode", choices=model.INPUT_MODES,
                   help="input ablation (default gaze_plus_comp)")
    p.add_argument("--seed", dest="seeds" if many else "seed", type=int, nargs=nargs)
    p.add_argument("--stride", type=int, help="window stride in samples (default 6)")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="default 256")
    p.add_argument("--max-epochs", dest="max_epochs", type=int, help="default 50")
    p.add_argument("--patience", type=int, help="early-stop patience (default 5)")
    p.add_argument("--label-fraction", dest="label_fractions" if many else "label_fraction",
                   type=float, nargs=nargs, help="fraction of training labels kept (default 1.0)")


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
    p.add_argument("--eye", default="auto", choices=("auto", *dataio.EYES))
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
    except Exception as e:  # a fault of the program, not of its input or config
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
