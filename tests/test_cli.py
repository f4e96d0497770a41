import argparse
import configparser
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scaleq import cli
from scaleq.cli import build_parser, load_config, main

SRC = str(Path(__file__).resolve().parents[1] / "src")
DEFAULT_INI = str(Path(__file__).resolve().parents[1] / "configs" / "default.ini")


QUICK_INI = """\
[run]
seed = 7
trials = 2

[fig2]
shape = 2,8,16,16
sigma_grid = 0.2,0.5
ratios = 2,4
align_corners = false

[decoders]
head = psphead
head_channels = 8
encoder_widths = 4,8,8,8,8
image_size = 48
n_classes = 4

[equalizer]
stats_batch = 4

[experiments]
audit_seeds = 2
audit_dataset = 8

[train]
steps = 5
batch_size = 4
dataset_size = 16
lr = 0.05
"""


@pytest.fixture
def quick_ini(tmp_path):
    path = tmp_path / "quick.ini"
    path.write_text(QUICK_INI)
    return str(path)


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["fig2", "--head", "sharpnet"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:          # deleted flag
        main(["fig2", "--precision", "f32"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:          # fig2-only flag
        main(["train", "--align-corners", "true"])
    assert e.value.code == 2
    for count in ("0", "-2"):                     # a thread count below 1
        with pytest.raises(SystemExit) as e:
            main(["check", "--threads", count])
        assert e.value.code == 2


def test_missing_config_file_exits_1(capsys):
    assert main(["check", "--config", "/nonexistent.ini"]) == 1
    assert "config file not found" in capsys.readouterr().err


def test_unreadable_config_file_exits_1(tmp_path, capsys):
    """A config path that exists but is not a readable text file (a
    directory, binary bytes) is one error line, not a traceback."""
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xdb\xff\x00")
    for path in (tmp_path, binary):
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err


def test_uncreatable_out_dir_exits_1(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["check", "--out", str(tmp_path / "file" / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    for entry in ("seeed = 1", "precision = f64"):     # a typo, a deleted key
        path.write_text(f"[run]\n{entry}\n")
        assert main(["check", "--config", str(path)]) == 1
        assert "unknown config entry" in capsys.readouterr().err


@pytest.mark.parametrize("end", ["[deco", "image_size ="])
def test_truncated_config_file_exits_1(tmp_path, capsys, end):
    """A config cut inside a section header or before a value is a
    ConfigError with exit code 1, not a traceback."""
    path = tmp_path / "cut.ini"
    path.write_text(QUICK_INI[:QUICK_INI.index(end) + len(end)])
    assert main(["check", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_import_leaves_numpy_unloaded():
    """--threads must be able to set the BLAS thread variables before the
    first numpy import, so importing the package and its CLI loads none."""
    code = ("import sys, scaleq, scaleq.cli; scaleq.cli.build_parser(); "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


def test_cli_heads_match_decoders():
    """The CLI choices, copied to keep numpy unloaded, match the package."""
    from scaleq import decoders, experiments
    assert cli.HEADS == decoders.HEAD_KINDS
    assert cli.FLAGS["equalize"][1]["choices"] == decoders.EQUALIZE_MODES
    assert cli.FLAGS["align_corners"][1]["choices"] == tuple(experiments.ALIGN_MODES)


def test_load_config_flags_override_file(quick_ini):
    args = build_parser().parse_args(
        ["train", "--config", quick_ini, "--seed", "99", "--head", "fcnhead"])
    cfg = load_config(args)
    assert cfg.seed == 99                       # flag wins
    assert cfg.head == "fcnhead"
    assert cfg.train_steps == 5                 # file beats defaults
    assert cfg.head_channels == 8
    assert cfg.shape == (16, 256, 128, 128)     # train does not read [fig2]
    assert cfg.trials == 1


# a valid value other than the default for every config entry that enters
# the config hash ([run] out does not)
OTHER_VALUES = {
    ("run", "seed"): "7", ("run", "trials"): "2",
    ("fig2", "shape"): "2,8,16,16", ("fig2", "sigma_grid"): "0.2",
    ("fig2", "ratios"): "2", ("fig2", "align_corners"): "false",
    ("decoders", "head"): "psphead", ("decoders", "head_channels"): "8",
    ("decoders", "encoder_widths"): "4,8,8,8,8",
    ("decoders", "output_stride"): "16", ("decoders", "image_size"): "48",
    ("decoders", "n_classes"): "3", ("equalizer", "stats_batch"): "4",
    ("equalizer", "sigma_floor"): "0.1", ("equalizer", "equalize"): "off",
    ("experiments", "audit_seeds"): "2", ("experiments", "audit_dataset"): "8",
    ("train", "steps"): "5", ("train", "batch_size"): "4", ("train", "lr"): "0.1",
    ("train", "dataset_size"): "16",
}


def _flag_fields(command):
    """ExperimentConfig fields the command's own flags set."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "config", "threads")}


@pytest.mark.parametrize("command", sorted(cli.COMMAND_FIELDS))
def test_command_reads_its_fields(tmp_path, monkeypatch, command):
    """Census: a command's run reads exactly the fields of its table entry,
    its subparser offers a flag for exactly the read fields that have one,
    and an INI entry changes its config hash only when it names a field
    the command reads."""
    from scaleq import experiments as ex

    names = {f.name for f in dataclasses.fields(ex.ExperimentConfig)}

    class Recorder(ex.ExperimentConfig):
        quiet = True                        # construction checks every field

        def __post_init__(self):
            super().__post_init__()
            self.reads, self.quiet = set(), False

        def __getattribute__(self, name):
            if name in names and not object.__getattribute__(self, "quiet"):
                object.__getattribute__(self, "reads").add(name)
            return object.__getattribute__(self, name)

    def quiet_asdict(config):               # hash() and the summary echo
        config.quiet = True
        try:
            return dataclasses.asdict(config)
        finally:
            config.quiet = False

    monkeypatch.setattr(ex, "asdict", quiet_asdict)
    cfg = Recorder(seed=3, trials=1, shape=(2, 4, 8, 8), sigma_grid=(0.5,),
                   ratios=(2,), align_corners="false", head="psphead",
                   image_size=48, head_channels=8, encoder_widths=(4, 8, 8, 8, 8),
                   dataset_size=8, stats_batch=4, audit_seeds=1, audit_dataset=8,
                   train_steps=1, batch_size=4, out_dir=str(tmp_path))
    cli._dispatch(command, cfg)
    reads = {"seed", "out_dir", *cli.COMMAND_FIELDS[command]}
    assert cfg.reads == reads
    every_flag = set().union(*(_flag_fields(c) for c in cli.COMMAND_FIELDS))
    assert _flag_fields(command) == reads & every_flag

    plain = load_config(build_parser().parse_args([command])).hash()
    for (section, key), value in OTHER_VALUES.items():
        path = tmp_path / "one.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        args = build_parser().parse_args([command, "--config", str(path)])
        moved = load_config(args).hash() != plain
        fieldname = cli.CONFIG_SCHEMA[(section, key)][0]
        assert moved == (fieldname in reads), key


@pytest.mark.parametrize("command,flag", [
    ("fig2", "--head=psphead"), ("fig2", "--sigma-floor=0.1"),
    ("fig2", "--equalize=off"), ("prop1", "--head=psphead"),
    ("prop1", "--sigma-floor=0.1"), ("prop1", "--equalize=off"),
    ("audit", "--equalize=off"), ("train", "--trials=2"),
    ("calibrate", "--equalize=off"), ("calibrate", "--trials=2"),
    ("check", "--head=psphead"), ("check", "--sigma-floor=0.1"),
    ("check", "--equalize=off"), ("check", "--trials=2"),
])
def test_flag_of_an_unread_field_exits_2(command, flag):
    with pytest.raises(SystemExit) as e:
        main([command, flag])
    assert e.value.code == 2


@pytest.mark.parametrize("command,section,key,value", [
    ("fig2", "run", "trials", "0"),
    ("prop1", None, "trials", "0"),             # the --trials flag
    ("audit", "experiments", "audit_seeds", "0"),
    ("audit", "experiments", "audit_dataset", "0"),
    ("train", "train", "dataset_size", "0"),
    ("calibrate", "equalizer", "stats_batch", "0"),
    ("calibrate", "equalizer", "stats_batch", "1"),   # a batch of one image
    ("train", "train", "steps", "0"),
    ("train", "train", "batch_size", "0"),
    ("audit", "decoders", "head_channels", "0"),
    ("audit", "decoders", "image_size", "0"),
    ("fig2", "fig2", "sigma_grid", "0.2,-0.1"),
    ("check", "experiments", "audit_seeds", "0"),  # checked though unread
])
def test_bad_count_exits_1(tmp_path, capsys, monkeypatch, command, section, key,
                           value):
    """A count below its least value or a negative sigma fails as a
    ConfigError before any work, also in an entry the command does not
    read."""
    from scaleq import experiments

    work = []
    monkeypatch.setattr(experiments, "gen_synthetic_dataset",
                        lambda *args, **kwargs: work.append(args))
    if section is None:
        argv = [command, f"--{key}", value]
    else:
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        argv = [command, "--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not work


def test_trials_flag_sets_audit_seeds(quick_ini):
    """--trials sets trials on fig2 and audit_seeds on prop1 and audit, and
    leaves the other at its default."""
    for command, target, other in (("fig2", "trials", "audit_seeds"),
                                   ("prop1", "audit_seeds", "trials"),
                                   ("audit", "audit_seeds", "trials")):
        args = build_parser().parse_args([command, "--config", quick_ini,
                                          "--trials", "3"])
        cfg = load_config(args)
        assert getattr(cfg, target) == 3, command
        assert getattr(cfg, other) == {"trials": 1, "audit_seeds": 32}[other]


def test_fig2_command_writes_csv(tmp_path, quick_ini, capsys):
    out = tmp_path / "out"
    argv = ["fig2", "--config", quick_ini, "--out", str(out)]
    assert main(argv) == 0
    assert "all_decreased=True" in capsys.readouterr().out
    lines = (out / "fig2.csv").read_text().strip().splitlines()
    assert lines[0].startswith("sigma,r,mode,")
    assert len(lines) == 1 + 3 * 2 * 1          # (grid+ref) x ratios x modes


@pytest.mark.parametrize("command", sorted(cli.COMMAND_FIELDS))
def test_rerun_is_byte_identical(tmp_path, quick_ini, capsys, command):
    """Runs of a command at one seed write the same files with the same
    bytes, once the echoed output directory is masked, and print the same
    lines: into a fresh directory, and again over the first run's files."""
    runs = []
    for name in ("a", "b", "a"):
        out = tmp_path / name
        code = main([command, "--config", quick_ini, "--out", str(out)])
        files = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT")
                 for p in out.iterdir()}
        runs.append((code, files, capsys.readouterr().out))
    assert runs[0][1] and runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("command,head,stride,size", [
    ("audit", "uperhead", 8, 60), ("calibrate", "psphead", 8, 52),
    ("train", "fcnhead", 16, 100), ("train", "uperhead", 8, 48),
])
def test_size_the_encoder_cannot_halve_exits_1_before_any_data(
        tmp_path, monkeypatch, capsys, command, head, stride, size):
    """An image size that the head's encoder cannot halve at every stage is
    an error before the dataset is generated."""
    from scaleq import experiments
    monkeypatch.setattr(experiments, "gen_synthetic_dataset",
                        lambda *args, **kwargs: pytest.fail("data was generated"))
    path = tmp_path / "size.ini"
    path.write_text(f"[decoders]\nimage_size = {size}\noutput_stride = {stride}\n")
    assert main([command, "--config", str(path), "--head", head]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "not divisible by" in err


def test_prop1_command(tmp_path, quick_ini, capsys):
    out = tmp_path / "out"
    assert main(["prop1", "--config", quick_ini, "--out", str(out),
                 "--trials", "8"]) == 0
    assert "prop1: ratio10=" in capsys.readouterr().out
    assert (out / "prop1.csv").exists()


def test_audit_command(tmp_path, quick_ini, capsys):
    out = tmp_path / "out"
    assert main(["audit", "--config", quick_ini, "--out", str(out)]) == 0
    assert "audit[psphead]" in capsys.readouterr().out
    assert (out / "head_audit_psphead.csv").exists()
    summary = json.loads((out / "head_audit_psphead_summary.json").read_text())
    assert summary["checks"]["r1_max_ok"] is True


def test_audit_exit_covers_every_check(monkeypatch, capsys):
    """audit exits 1 when any *_ok entry of its summary is false."""
    from scaleq import experiments as ex
    summary = {"head": "uperhead", "r1_max_ok": True,
               "equalized_unit_moments_ok": True, "median_spread": 1.2,
               "median_eq_spread": 1.0, "eq_spread_ok": True,
               "baseline_spread_ok": True, "median_spread_ok": False}
    monkeypatch.setattr(ex, "run_head_audit", lambda cfg: {
        "rows": [], "seeds": [], "summary": summary})
    assert main(["audit"]) == 1
    assert "audit[uperhead]" in capsys.readouterr().out


def test_train_command(tmp_path, quick_ini, capsys):
    out = tmp_path / "out"
    code = main(["train", "--config", quick_ini, "--out", str(out),
                 "--head", "fcnhead"])
    captured = capsys.readouterr().out
    assert "train[baseline]" in captured
    assert "train[equalized]" in captured
    assert (out / "train.csv").exists()
    assert code in (0, 1)                       # 5 steps need not halve the loss


def test_calibrate_command(tmp_path, quick_ini, capsys):
    out = tmp_path / "out"
    assert main(["calibrate", "--config", quick_ini, "--out", str(out)]) == 0
    assert "calibrate[psphead]" in capsys.readouterr().out
    assert (out / "stats_psphead.csv").exists()
    assert (out / "fusion_weight_psphead.seqt").exists()


def test_check_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["check", "--seed", "5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "check[unit_block_moments]: ok" in text
    assert "FAIL" not in text
    summary = json.loads((out / "check_summary.json").read_text())
    oks = [summary["checks"]["ok"]] + [c["ok"] for c in
                                       summary["checks"]["checks"].values()]
    assert len(oks) == 7 and all(ok is True for ok in oks)


def test_default_config_file_loads():
    """configs/default.ini restates the built-in defaults for every command."""
    from scaleq.experiments import ExperimentConfig
    for command in cli.COMMAND_FIELDS:
        args = build_parser().parse_args([command, "--config", DEFAULT_INI])
        assert load_config(args) == ExperimentConfig(), command


@pytest.mark.parametrize("command,section,key,value", [
    ("fig2", "fig2", "shape", "2,8,16"),
    ("audit", "decoders", "encoder_widths", "4,8"),
    ("fig2", "fig2", "ratios", ""),
    ("fig2", "fig2", "align_corners", "maybe"),
    ("train", "equalizer", "equalize", "injectd"),
    ("fig2", "run", "seed", "5%"),              # no interpolation, no traceback
    ("check", "decoders", "head", "fcnheadd"),   # an entry check does not read
    ("check", "decoders", "head", "PSPHead"),    # one spelling, as --head takes
    ("check", "decoders", "output_stride", "12"),
    ("check", "decoders", "n_classes", "9"),
    ("calibrate", "equalizer", "sigma_floor", "-1"),
    ("fig2", "fig2", "ratios", "0,2"),
    ("fig2", "fig2", "ratios", "-2"),
    ("train", "train", "lr", "nan"),
    ("train", "train", "lr", "-0.05"),
    ("fig2", "fig2", "sigma_grid", "nan,0.5"),
])
def test_bad_setting_exits_1_before_any_work(tmp_path, monkeypatch, capsys,
                                             command, section, key, value):
    """Each value fails as one error line and exit 1 before the command's
    run starts, so an equalize typo costs no training step."""
    from scaleq import experiments as ex
    for name in ("run_fig2", "run_head_audit", "run_toy_train", "run_calibrate",
                 "run_check"):
        monkeypatch.setattr(ex, name, lambda cfg: pytest.fail("the run started"))
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


def _first_reader(fieldname):
    """The cheapest command that reads a field."""
    for command in ("fig2", "prop1", "calibrate", "audit", "train"):
        if fieldname in ("seed", "out_dir") + cli.COMMAND_FIELDS[command]:
            return command


def _bad_values(default):
    """A wrong-arity value (one entry fewer for a list, two for a scalar)
    and an empty value."""
    parts = default.split(",")
    return (",".join(parts[:-1]) if len(parts) > 1 else f"{default},{default}", "")


DEFAULTS = configparser.ConfigParser()
DEFAULTS.read(DEFAULT_INI)


@pytest.mark.parametrize("section,key", [(section, key)
                                         for section in DEFAULTS.sections()
                                         for key in DEFAULTS[section]])
def test_default_ini_key_with_bad_value(tmp_path, capsys, section, key):
    """Every default.ini key, given a wrong-arity value and an empty value on
    top of the quick config, ends in exit 1 with an error line or in a
    complete run of a command that reads it, never in a traceback."""
    command = _first_reader(cli.CONFIG_SCHEMA[(section, key)][0])
    ini = configparser.ConfigParser()
    ini.read_string(QUICK_INI)
    if not ini.has_section(section):
        ini.add_section(section)
    path = tmp_path / "bad.ini"
    for value in _bad_values(ini.get(section, key,
                                     fallback=DEFAULTS[section][key])):
        ini.set(section, key, value)
        with open(path, "w") as f:
            ini.write(f)
        code = main([command, "--config", str(path)])
        captured = capsys.readouterr()
        if "error:" in captured.err:
            assert code == 1 and captured.err.count("error:") == 1, value
        else:
            assert f"\n{command}" in "\n" + captured.out, value
