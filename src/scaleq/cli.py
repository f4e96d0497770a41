"""Command-line entry point.

Subcommands: fig2, prop1, audit, train, calibrate, check.  Settings come
from (in increasing precedence) built-in defaults, an INI config file, and
command-line flags; every subcommand checks the file's [fig2] entries, but
only fig2 applies them.  Exit codes: 0 success, 1 assertion/experiment
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

# decoders.HEAD_KINDS, copied: importing decoders would load numpy before --threads
HEADS = ("uperhead", "psphead", "aspphead", "sepaspphead", "fcnhead")


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

# ExperimentConfig fields that count something and must be at least 1
COUNT_FIELDS = ("trials", "audit_seeds", "dataset_size", "audit_dataset",
                "stats_batch", "train_steps", "batch_size", "head_channels",
                "image_size")

# flag destination -> ExperimentConfig field
FLAG_FIELDS = {
    "seed": "seed", "out": "out_dir",
    "align_corners": "align_corners", "sigma_floor": "sigma_floor",
    "head": "head", "equalize": "equalize", "trials": "trials",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", type=int, help="root random seed (default 42)")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--threads", type=int,
                        help="cap BLAS/OpenMP thread count")
    common.add_argument("--sigma-floor", dest="sigma_floor", type=float,
                        help="substitute for degenerate sigma=0 branches")
    common.add_argument("--head", choices=HEADS)
    common.add_argument("--equalize", choices=("off", "injected", "calibrated"))
    common.add_argument("--trials", type=int, help="Monte-Carlo trials/seeds")

    parser = argparse.ArgumentParser(
        prog="scaleq",
        description="Measure and correct scale disequilibrium in "
                    "multi-level feature fusion.")
    sub = parser.add_subparsers(dest="command", required=True)
    fig2 = sub.add_parser("fig2", parents=[common],
                          help="variance decay under bilinear upsampling")
    # the decoder heads always upsample with align_corners=False
    fig2.add_argument("--align-corners", dest="align_corners",
                      choices=("true", "false", "both"))
    sub.add_parser("prop1", parents=[common],
                   help="gradient-variance disequilibrium on a constructed fusion")
    sub.add_parser("audit", parents=[common],
                   help="per-branch moment and gradient audit of a decoder head")
    sub.add_parser("train", parents=[common],
                   help="toy synthetic-segmentation training, baseline vs equalized")
    sub.add_parser("calibrate", parents=[common],
                   help="statistics pass + equalizer-equivalent weight calibration")
    sub.add_parser("check", parents=[common],
                   help="run the invariant/property suite")
    return parser


def load_config(args) -> "ExperimentConfig":
    from .errors import ConfigError
    from .experiments import ExperimentConfig

    cfg = ExperimentConfig()
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        ini = configparser.ConfigParser()
        try:
            ini.read(args.config)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {args.config}: {exc}") from None
        for section in ini.sections():
            for key, raw in ini.items(section):
                spec = CONFIG_SCHEMA.get((section, key))
                if spec is None:
                    raise ConfigError(f"unknown config entry [{section}] {key}")
                if section == "fig2" and args.command != "fig2":
                    continue                # only fig2 reads its section
                fieldname, cast = spec
                try:
                    setattr(cfg, fieldname, cast(raw))
                except ValueError:
                    raise ConfigError(
                        f"bad value {raw!r} for [{section}] {key}") from None
    for dest, fieldname in FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            if dest == "trials":
                cfg.trials = value
                cfg.audit_seeds = value
            else:
                setattr(cfg, fieldname, value)
    for fieldname in COUNT_FIELDS:
        if getattr(cfg, fieldname) < 1:
            raise ConfigError(f"{fieldname} must be at least 1, "
                              f"got {getattr(cfg, fieldname)}")
    if any(s < 0 for s in cfg.sigma_grid):
        raise ConfigError(f"sigma_grid entries must be >= 0, "
                          f"got {cfg.sigma_grid}")
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _dispatch(command: str, cfg) -> int:
    from . import experiments as ex

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
        ok = True
        for arm, c in result["checks"].items():
            print(f"train[{arm}]: loss {c['initial_loss']:.4f} -> "
                  f"{c['final_loss']:.4f} halved={c['halved']}")
            ok = ok and c["all_finite"] and c["halved"]
        return 0 if ok else 1

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
    if args.threads:
        # numpy reads these when it is first imported, which is below
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    from .errors import ScaleqError
    try:
        cfg = load_config(args)
        return _dispatch(args.command, cfg)
    except ScaleqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
