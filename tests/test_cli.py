import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scaleq.cli import build_parser, load_config, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_missing_config_file_exits_1(capsys):
    assert main(["check", "--config", "/nonexistent.ini"]) == 1
    assert "config file not found" in capsys.readouterr().err


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
    from scaleq import cli, decoders
    assert cli.HEADS == decoders.HEAD_KINDS


def test_load_config_flags_override_file(quick_ini):
    args = build_parser().parse_args(
        ["fig2", "--config", quick_ini, "--seed", "99", "--align-corners", "both"])
    cfg = load_config(args)
    assert cfg.seed == 99                       # flag wins
    assert cfg.align_corners == "both"
    assert cfg.shape == (2, 8, 16, 16)          # file beats defaults
    assert cfg.head == "psphead"
    assert cfg.trials == 2
    assert cfg.train_steps == 5


def test_fig2_section_applies_only_to_fig2(tmp_path):
    """An INI [fig2] entry leaves the config hash of other commands alone."""
    hashes = []
    for value in ("true", "false"):
        path = tmp_path / f"align_{value}.ini"
        path.write_text(f"[fig2]\nalign_corners = {value}\n")
        args = build_parser().parse_args(["train", "--config", str(path)])
        hashes.append(load_config(args).hash())
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("command,section,key,value", [
    ("fig2", "run", "trials", "0"),
    ("prop1", None, "trials", "0"),             # the --trials flag
    ("audit", "experiments", "audit_seeds", "0"),
    ("audit", "experiments", "audit_dataset", "0"),
    ("train", "train", "dataset_size", "0"),
    ("calibrate", "equalizer", "stats_batch", "0"),
    ("train", "train", "steps", "0"),
    ("train", "train", "batch_size", "0"),
    ("audit", "decoders", "head_channels", "0"),
    ("audit", "decoders", "image_size", "0"),
    ("fig2", "fig2", "sigma_grid", "0.2,-0.1"),
])
def test_bad_count_exits_1(tmp_path, capsys, command, section, key, value):
    """A count below 1 or a negative sigma fails as a ConfigError."""
    if section is None:
        argv = [command, f"--{key}", value]
    else:
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        argv = [command, "--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_trials_flag_sets_audit_seeds(quick_ini):
    args = build_parser().parse_args(["audit", "--config", quick_ini,
                                      "--trials", "3"])
    cfg = load_config(args)
    assert cfg.trials == 3
    assert cfg.audit_seeds == 3


def test_fig2_command_writes_csv(tmp_path, quick_ini, capsys):
    out = tmp_path / "out"
    argv = ["fig2", "--config", quick_ini, "--out", str(out)]
    assert main(argv) == 0
    assert "all_decreased=True" in capsys.readouterr().out
    lines = (out / "fig2.csv").read_text().strip().splitlines()
    assert lines[0].startswith("sigma,r,mode,")
    assert len(lines) == 1 + 3 * 2 * 1          # (grid+ref) x ratios x modes
    first = (out / "fig2.csv").read_bytes()
    assert main(argv) == 0                      # byte-identical rerun
    assert (out / "fig2.csv").read_bytes() == first


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
    assert (out / "check_summary.json").exists()


def test_default_config_file_loads(tmp_path):
    args = build_parser().parse_args(["check", "--config", "configs/default.ini"])
    cfg = load_config(args)
    assert cfg.seed == 42
    assert cfg.shape == (16, 256, 128, 128)
    assert cfg.train_steps == 500
