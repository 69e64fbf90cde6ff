import os
import shutil

import numpy as np
import pytest

import mopp
from mopp import adm, cli, data, value
from mopp.config import RunConfig, default_config_text, load_config
from mopp.errors import ConfigError, FormatError

TINY_CONFIG = """\
[run]
dataset = data.ds
seeds = 0
episodes = 1

[data]
policy = medium
episodes = 3
seed = 4

[adm]
k1 = 2
k2 = 2
steps = 150
batch = 64
embed = 16
head_hidden = 16,8

[fqe]
gamma = 0.9
iterations = 3
steps = 40
batch = 64
hidden = 16,16

[planner]
n = 8
m = 3
k_q = 3
h = 2
l = auto

[ablate]
axis = sigma_m
values = 0.1,0.5
variants = full,noP
"""


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run the full tiny pipeline once; commands share this artifact directory."""
    out = tmp_path_factory.mktemp("pipeline")
    cfg_path = out / "run.cfg"
    cfg_path.write_text(TINY_CONFIG)
    base = ["--config", str(cfg_path), "--out", str(out), "--quiet"]
    for command in ("gen-data", "train-dynamics", "train-behavior", "train-q"):
        assert cli.main([command, *base]) == 0, command
    return out, base


def test_config_defaults_round_trip(tmp_path):
    path = tmp_path / "defaults.cfg"
    path.write_text(default_config_text())
    assert load_config(path) == RunConfig()


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[rocket]\nthrust = 11\n")
    with pytest.raises(ConfigError, match="rocket"):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[planner]\nwarp = 9\n")
    with pytest.raises(ConfigError, match="warp"):
        load_config(path)


def test_config_bad_value_names_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[planner]\nkappa = fast\n")
    with pytest.raises(ConfigError, match="kappa"):
        load_config(path)


def test_config_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nseeds = 0\nnot a kv line\n")
    with pytest.raises(ConfigError, match=r"line\s+3"):
        load_config(path)


def test_config_comments_and_auto_values(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# top comment\n[planner]\nl = auto  # percentile rule\nn_min = auto\nn = 40\n")
    cfg = load_config(path)
    assert cfg.threshold is None
    assert cfg.n_min is None
    assert cfg.n_rollouts == 40


def test_print_config_parses_cleanly(tmp_path, capsys):
    assert cli.main(["print-config"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "printed.cfg"
    path.write_text(text)
    assert load_config(path) == RunConfig()


def test_gen_data_writes_loadable_dataset(pipeline_dir):
    out, _ = pipeline_dir
    ds = data.load_dataset(out / "data.ds")
    assert ds.n_episodes == 3
    assert len(ds) == 600


def test_train_commands_write_checkpoints(pipeline_dir):
    out, _ = pipeline_dir
    assert (out / "dynamics" / "manifest.txt").exists()
    assert (out / "behavior" / "manifest.txt").exists()
    assert (out / "q" / "manifest.txt").exists()


def test_evaluate_row_counts_and_exit_code(pipeline_dir):
    out, base = pipeline_dir
    assert cli.main(["evaluate", *base]) == 0
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,episode,return,steps,violations"
    assert len(lines) == 3  # one result row plus one aggregate row
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("aggregate,,")
    ret = float(lines[1].split(",")[2])
    assert np.isfinite(ret)


def test_evaluate_is_byte_deterministic(pipeline_dir):
    out, base = pipeline_dir
    assert cli.main(["evaluate", *base]) == 0
    first = (out / "results.csv").read_bytes()
    assert cli.main(["evaluate", *base]) == 0
    assert (out / "results.csv").read_bytes() == first


def test_ablate_grid_row_count(pipeline_dir):
    out, base = pipeline_dir
    assert cli.main(["ablate", *base]) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "axis,value,variant,return_mean,return_std,violations_mean"
    assert len(lines) == 1 + 2 * 2  # values x variants
    assert all(line.startswith("sigma_m,") for line in lines[1:])


def test_train_q_with_reward_transform_then_evaluate(pipeline_dir, tmp_path):
    out, _ = pipeline_dir
    cfg_path = tmp_path / "jump.cfg"
    cfg_path.write_text(TINY_CONFIG + "\n[constraint]\nmode = height_bonus\n")
    base = ["--config", str(cfg_path), "--out", str(out), "--quiet"]
    assert cli.main(["train-q", *base]) == 0
    assert cli.main(["evaluate", *base]) == 0
    lines = (out / "results.csv").read_text().strip().splitlines()
    ret = float(lines[1].split(",")[2])
    assert np.isfinite(ret)
    # restore the unmodified Q for any later test in this module
    orig = ["--config", str(out / "run.cfg"), "--out", str(out), "--quiet"]
    assert cli.main(["train-q", *orig]) == 0


def test_missing_artifacts_give_actionable_error(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY_CONFIG)
    code = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "gen-data" in err


def test_bad_config_path_is_config_error(tmp_path, capsys):
    code = cli.main(["evaluate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY_CONFIG)

    class Args:
        config = str(cfg_path)
        seed = 7
        out = str(tmp_path)
        quiet = True

    cfg = cli._load_run_config(Args)
    assert cfg.seeds == (7,)
    assert cfg.data_seed == 7
    assert cfg.dynamics_seed == 8


def test_evaluate_writes_step_diagnostics(pipeline_dir):
    out, base = pipeline_dir
    assert cli.main(["evaluate", *base]) == 0
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert lines[0] == "step,return_mean,return_max,surviving,u_mean,u_max,violation_flag"
    assert len(lines) == 1 + 200  # one row per control step
    first = lines[1].split(",")
    assert first[0] == "0" and first[6] in ("0", "1")


def test_seed_failure_marks_partial_results(pipeline_dir, monkeypatch, capsys):
    out, base = pipeline_dir
    from mopp import planner
    from mopp.errors import MoppError

    real = planner.run_episode
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise MoppError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.planner, "run_episode", flaky)
    code = cli.main(["evaluate", *base])
    assert code == 1
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert lines[0].endswith(",status")
    assert lines[1].endswith(",failed")
    # restore a clean results.csv for later tests
    monkeypatch.undo()
    assert cli.main(["evaluate", *base]) == 0


def test_pruning_with_one_dynamics_member_is_config_error(pipeline_dir, tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY_CONFIG.replace("k1 = 2", "k1 = 1"))
    code = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "k1" in err and "use_pruning" in err
    assert "Traceback" not in err
    # a one-member ensemble trained without pruning, then loaded with it on
    out, _ = pipeline_dir
    one = TINY_CONFIG.replace("dataset = data.ds", "dataset = data.ds\ndynamics_dir = dyn_one")
    cfg_path.write_text(one.replace("k1 = 2", "k1 = 1").replace("l = auto", "l = auto\nuse_pruning = false"))
    assert cli.main(["train-dynamics", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    cfg_path.write_text(one)
    code = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "dyn_one" in err and "use_pruning" in err


def test_swapped_role_directories_are_format_errors(pipeline_dir, tmp_path, capsys):
    out, _ = pipeline_dir
    cfg_path = tmp_path / "swapped.cfg"
    cfg_path.write_text(
        TINY_CONFIG.replace("dataset = data.ds", "dataset = data.ds\ndynamics_dir = behavior\nbehavior_dir = dynamics")
    )
    code = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(out / "behavior") in err
    assert "'behavior'" in err and "'dynamics'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("directory, key", [("dynamics", "embed_width"), ("q", "y_std")])
def test_manifest_missing_key_names_key_and_file(pipeline_dir, tmp_path, directory, key):
    out, _ = pipeline_dir
    copy = tmp_path / directory
    shutil.copytree(out / directory, copy)
    manifest = copy / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.startswith(f"{key} =")))
    load = value.load_q if directory == "q" else adm.load_ensemble
    with pytest.raises(FormatError, match=key) as info:
        load(copy)
    assert str(manifest) in str(info.value)


@pytest.mark.parametrize(
    "edit",
    [
        "k = two", "k = -1", "activation = swish", "embed_width = 7",
        "input_dim = 9 in q", "x_std = 1.5 in q", "delete q.nn",
    ],
)
def test_corrupt_checkpoint_is_format_error_without_traceback(pipeline_dir, tmp_path, capsys, edit):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    if edit == "delete q.nn":
        broken, needles = copy / "q" / "q.nn", ("q.nn",)
        broken.unlink()
    else:
        edit, _, directory = edit.partition(" in ")  # the dynamics manifest unless named
        key, _, bad = edit.partition(" = ")
        broken, needles = copy / (directory or "dynamics") / "manifest.txt", (key, bad)
        lines = broken.read_text().splitlines(keepends=True)
        broken.write_text("".join(f"{edit}\n" if line.startswith(f"{key} =") else line for line in lines))
    code = cli.main(["evaluate", "--config", str(copy / "run.cfg"), "--out", str(copy), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(broken) in err and all(needle in err for needle in needles)
    assert "Traceback" not in err


@pytest.mark.parametrize("v_cap, mode, key", [("0.5", "none", "v_cap"), ("", "velocity_rollout", "mode")])
def test_velocity_constraint_on_uncapped_env_is_config_error(tmp_path, capsys, v_cap, mode, key):
    cfg_path = tmp_path / "c.cfg"
    text = "[run]\nenv = {}\nv_cap = " + v_cap + "\n[constraint]\nmode = " + mode + "\n"
    cfg_path.write_text(text.format("pointmass"))
    assert cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert key in err and "pointmass_constrained" in err
    assert "Traceback" not in err
    cfg_path.write_text(text.format("pointmass_constrained"))
    assert load_config(cfg_path).env == "pointmass_constrained"


def test_failed_csv_write_keeps_existing_results_and_leaves_no_temp_file(pipeline_dir, monkeypatch):
    out, base = pipeline_dir
    results = out / "results.csv"
    results.write_text("old\n")
    names = sorted(p.name for p in out.iterdir())

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cli.main(["evaluate", *base])
    assert results.read_text() == "old\n"
    assert sorted(p.name for p in out.iterdir()) == names
    monkeypatch.undo()
    assert cli.main(["evaluate", *base]) == 0
    assert results.read_text().startswith("seed,episode,")
    assert sorted(p.name for p in out.iterdir()) == names


def test_star_import_exports_every_listed_name_once():
    assert len(mopp.__all__) == len(set(mopp.__all__))
    namespace = {}
    exec("from mopp import *", namespace)
    missing = [name for name in mopp.__all__ if name not in namespace]
    assert not missing
