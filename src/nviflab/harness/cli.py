"""Command-line orchestration.

Exit codes: 0 success, 1 invalid configuration (an unknown key, or a value of
the wrong type or out of range, such as a negative ``--seed``; the offending
keys are named; for ``scalability`` also two policies whose run directories
share a name), 2 missing checkpoint, 3 unusable data: a corrupt checkpoint
(truncated, over-long, or with an unreadable header; the file is named), or,
for ``scalability``, a task on which no policy beats the random-policy
reference (each such task is listed with its best and reference returns).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigError, DataError
from .bundle import PolicyBundle
from .config import load_experiment
from .evaluate import evaluate
from .pipeline import (
    encoder_path,
    obs_vae_path,
    run_pretrain_nvif,
    run_pretrain_obs,
    run_training,
)
from .scalability import scalability_matrix, write_matrix_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nviflab",
        description="Gather-game experiments with neighboring variational "
                    "information flow")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="experiment JSON path")
        return p

    with_config(sub.add_parser("pretrain-obs", help="train the observation compressor"))
    with_config(sub.add_parser("pretrain-nvif", help="train the communication encoder"))

    p = with_config(sub.add_parser("train", help="run the configured trainer"))
    p.add_argument("--resume", action="store_true", help="continue a PPO run from its checkpoint")
    p.add_argument("--seed", type=int, default=None,
                   help="train only this seed (default: every seed in config)")

    p = with_config(sub.add_parser("eval", help="evaluate a policy"))
    p.add_argument("--policy", default=None,
                   help="bundle file, or built-ins 'random' / 'noop' "
                        "(default: config policy_checkpoint)")
    p.add_argument("--episodes", type=int, default=None)

    p = with_config(sub.add_parser("scalability", help="cross-task score matrix"))

    p = with_config(sub.add_parser("replay-dump", help="export replay JSONL"))
    p.add_argument("--policy", default=None)
    p.add_argument("--episodes", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args, load_experiment(args.config))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def _dispatch(args, cfg) -> int:
    out = Path(cfg.out_dir)
    if args.command == "pretrain-obs":
        run_pretrain_obs(cfg)
        print(f"observation compressor saved to {obs_vae_path(cfg)}")
        return 0

    if args.command == "pretrain-nvif":
        _, history = run_pretrain_nvif(cfg)
        print(f"encoder saved to {encoder_path(cfg)}; "
              f"final recon {history[-1].recon:.4f} after {len(history)} epochs")
        return 0

    if args.command == "train":
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
        seeds = [args.seed] if args.seed is not None else cfg.seeds
        for seed in seeds:
            run_dir = run_training(cfg, seed, resume=args.resume)
            print(f"seed {seed}: metrics and bundle under {run_dir}")
        return 0

    if args.command == "eval":
        source = args.policy or cfg.policy_checkpoint
        if source is None:
            raise ConfigError("eval needs --policy or policy_checkpoint in the config")
        episodes = args.episodes if args.episodes is not None else cfg.eval.episodes
        eval_dir = out / "eval"
        eval_dir.mkdir(parents=True, exist_ok=True)
        metrics = evaluate(source, cfg.task_config(), episodes, seed=cfg.eval.seed)
        with open(eval_dir / "metrics.json", "w") as fh:
            json.dump(metrics, fh, indent=1)
        print(json.dumps(metrics))
        return 0

    if args.command == "scalability":
        section = cfg.scalability
        if not section.policies or not section.tasks:
            raise ConfigError("scalability needs 'policies' and 'tasks' lists in the config")
        # rows are labelled by run directory: pipeline bundles are all bundle.ckpt
        labels = {}
        for entry in section.policies:
            label = Path(entry).resolve().parent.name
            if label in labels:
                raise ConfigError(f"scalability: policies {labels[label]} and {entry} "
                                  f"share the row label {label!r} (their directory name)")
            labels[label] = entry
        policies = [(label, PolicyBundle.load(entry)) for label, entry in labels.items()]
        from ..env_gather import preset
        tasks = [(name, preset(name, **cfg.env)) for name in section.tasks]
        rows, cols, raw, reference, scores = scalability_matrix(
            policies, tasks, episodes=section.episodes, seed=section.seed)
        mat_dir = out / "scalability"
        mat_dir.mkdir(parents=True, exist_ok=True)
        write_matrix_csv(mat_dir / "matrix.csv", rows, cols, scores)
        write_matrix_csv(mat_dir / "raw_returns.csv", rows + ["random"], cols,
                         [*raw, reference])
        print(f"matrix written to {mat_dir / 'matrix.csv'}")
        return 0

    if args.command == "replay-dump":
        source = args.policy or cfg.policy_checkpoint
        if source is None:
            raise ConfigError("replay-dump needs --policy or policy_checkpoint")
        replay_dir = out / "replay"
        replay_dir.mkdir(parents=True, exist_ok=True)
        path = replay_dir / "replay.jsonl"
        evaluate(source, cfg.task_config(), args.episodes,
                 seed=cfg.eval.seed, replay_path=path)
        print(f"replay written to {path}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
