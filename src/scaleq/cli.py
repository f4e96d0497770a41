"""Command-line entry point.

Subcommands: fig2, prop1, audit, train, calibrate, check.  Settings come
from (in increasing precedence) built-in defaults, an INI config file, and
command-line flags.  A command reads seed, out_dir and its COMMAND_FIELDS
alone and offers only their flags; every INI entry is checked, but only
those of the command's fields apply.  Exit codes: 0 success, 1 bad setting
or experiment failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import experiments as ex
from .decoders import EQUALIZE_MODES, HEAD_KINDS
from .errors import ConfigError, ScaleqError


def _tuple_of(cast):
    def parse(text):
        return tuple(cast(part) for part in text.replace(" ", "").split(",") if part)
    return parse


# (section, key) in the config file -> (ExperimentConfig field, parser)
CONFIG_SCHEMA = {
    ("run", "seed"): ("seed", int),
    ("run", "trials"): ("trials", int),
    ("run", "out"): ("out_dir", str),
    ("fig2", "shape"): ("shape", _tuple_of(int)),
    ("fig2", "sigma_grid"): ("sigma_grid", _tuple_of(float)),
    ("fig2", "ratios"): ("ratios", _tuple_of(int)),
    ("fig2", "align_corners"): ("align_corners", str),
    ("decoders", "head"): ("head", str),
    ("decoders", "head_channels"): ("head_channels", int),
    ("decoders", "encoder_widths"): ("encoder_widths", _tuple_of(int)),
    ("decoders", "output_stride"): ("output_stride", int),
    ("decoders", "image_size"): ("image_size", int),
    ("decoders", "n_classes"): ("n_classes", int),
    ("equalizer", "stats_batch"): ("stats_batch", int),
    ("equalizer", "sigma_floor"): ("sigma_floor", float),
    ("equalizer", "equalize"): ("equalize", str),
    ("experiments", "audit_seeds"): ("audit_seeds", int),
    ("experiments", "audit_dataset"): ("audit_dataset", int),
    ("train", "steps"): ("train_steps", int),
    ("train", "batch_size"): ("batch_size", int),
    ("train", "lr"): ("lr", float),
    ("train", "dataset_size"): ("dataset_size", int),
}

# the fields that build a model and run its statistics pass
MODEL_FIELDS = ("head", "head_channels", "encoder_widths", "output_stride",
                "image_size", "n_classes", "stats_batch", "sigma_floor")

# command -> the ExperimentConfig fields it reads besides seed and out_dir
COMMAND_FIELDS = {
    "fig2": ("trials", "shape", "sigma_grid", "ratios", "align_corners"),
    "prop1": ("audit_seeds",),
    "audit": MODEL_FIELDS + ("audit_seeds", "audit_dataset"),
    "train": MODEL_FIELDS + ("dataset_size", "train_steps", "batch_size", "lr",
                             "equalize"),
    "calibrate": MODEL_FIELDS + ("dataset_size",),
    "check": (),
}

# field -> (flag, argparse keywords); --trials sets trials or audit_seeds
FLAGS = {
    "trials": ("--trials", {"type": int, "help": "Monte-Carlo trials"}),
    "audit_seeds": ("--trials", {"type": int, "help": "seeds"}),
    "align_corners": ("--align-corners", {"choices": tuple(ex.ALIGN_MODES)}),
    "head": ("--head", {"choices": HEAD_KINDS}),
    "sigma_floor": ("--sigma-floor", {"type": float, "help": "sigma=0 substitute"}),
    "equalize": ("--equalize", {"choices": EQUALIZE_MODES}),
}

HELP = {
    "fig2": "variance decay under bilinear upsampling",
    "prop1": "gradient-variance disequilibrium on a constructed fusion",
    "audit": "per-branch moment and gradient audit of a decoder head",
    "train": "toy synthetic-segmentation training, baseline vs equalized",
    "calibrate": "statistics pass + equalizer-equivalent weight calibration",
    "check": "run the invariant/property suite",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", type=int, help="root random seed (default 42)")
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")

    parser = argparse.ArgumentParser(
        prog="scaleq",
        description="Measure and correct scale disequilibrium in "
                    "multi-level feature fusion.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fields in COMMAND_FIELDS.items():
        cmd = sub.add_parser(command, parents=[common], help=HELP[command])
        for name in fields:
            if name in FLAGS:
                flag, kwargs = FLAGS[name]
                cmd.add_argument(flag, dest=name, **kwargs)
    return parser


def load_config(args) -> ex.ExperimentConfig:
    values = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        ini = configparser.ConfigParser(interpolation=None)
        try:
            with open(args.config) as f:
                ini.read_file(f)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc.strerror}") from None
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {args.config}: {exc}") from None
        for section in ini.sections():
            for key, raw in ini.items(section):
                spec = CONFIG_SCHEMA.get((section, key))
                if spec is None:
                    raise ConfigError(f"unknown config entry [{section}] {key}")
                fieldname, cast = spec
                try:
                    values[fieldname] = cast(raw)
                except ValueError:
                    raise ConfigError(
                        f"bad value {raw!r} for [{section}] {key}") from None
        ex.ExperimentConfig(**values)       # every entry obeys the value rules
    fields = ("seed", "out_dir") + COMMAND_FIELDS[args.command]
    values.update((name, getattr(args, name)) for name in fields
                  if getattr(args, name, None) is not None)
    cfg = ex.ExperimentConfig(**{name: values[name] for name in fields if name in values})
    if cfg.out_dir:
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {cfg.out_dir}: {exc.strerror}") from None
    return cfg


def _dispatch(command: str, cfg) -> int:
    if command == "fig2":
        rows = ex.run_fig2(cfg)
        checks = ex.fig2_checks(rows)
        for flag in checks["monotonicity_flags"]:
            print(f"note: {flag}")
        print(f"fig2: {len(rows)} rows, all_decreased={checks['all_decreased']}")
        return 0 if checks["all_decreased"] else 1

    if command == "prop1":
        rows = ex.run_prop1(cfg)
        checks = ex.prop1_checks(rows)
        print(f"prop1: ratio10={checks['ratio10_baseline']:.3f} "
              f"equalized={checks['ratio10_equalized']:.3f}")
        return 0 if checks["pass_disequilibrium"] and checks["pass_equalized"] else 1

    if command == "audit":
        result = ex.run_head_audit(cfg)
        summary = result["summary"]
        print(f"audit[{summary['head']}]: r1_max_ok={summary['r1_max_ok']} "
              f"unit_moments={summary['equalized_unit_moments_ok']} "
              f"median_spread={summary['median_spread']:.2f} -> "
              f"{summary['median_eq_spread']:.2f} equalized")
        ok = all(v for k, v in summary.items() if k.endswith("_ok"))
        return 0 if ok else 1

    if command == "train":
        result = ex.run_toy_train(cfg)
        for arm, c in result["checks"].items():
            print(f"train[{arm}]: loss {c['initial_loss']:.4f} -> "
                  f"{c['final_loss']:.4f} halved={c['halved']}")
        # a loss that has not halved is reported, not failed: a short run
        # cannot halve it; a non-finite loss is an error
        return 0 if all(c["all_finite"] for c in result["checks"].values()) else 1

    if command == "calibrate":
        result = ex.run_calibrate(cfg)
        print(f"calibrate[{result['head']}]: {result['n_branches']} branches, "
              f"sigma={['%.4f' % s for s in result['sigma']]}, "
              f"max_diff={result['injected_vs_calibrated_max_diff']:.2e}")
        return 0 if (result["all_sigma_positive"]
                     and result["equivalence_pass"]) else 1

    if command == "check":
        result = ex.run_check(cfg)
        for name, c in result["checks"].items():
            print(f"check[{name}]: {'ok' if c['ok'] else 'FAIL'} "
                  + " ".join(f"{k}={v}" for k, v in c.items() if k != "ok"))
        return 0 if result["ok"] else 1

    raise AssertionError(command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return _dispatch(args.command, cfg)
    except (ScaleqError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
