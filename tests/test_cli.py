import dataclasses
import multiprocessing.connection
import os
import re
import shutil
import struct

import numpy as np
import pytest
from checkpoints import edit_lines, rewrite_checkpoint

import mopp
from mopp import adm, cli, config, data, envs, nn, planner, value
from mopp.config import RunConfig, default_config_text, load_config
from mopp.errors import ConfigError, FormatError
from mopp.manifest import CHECKPOINT_FILE, DIGEST_SIZE

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
    for directory in ("dynamics", "behavior", "q"):
        assert [p.name for p in (out / directory).iterdir()] == [CHECKPOINT_FILE]


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


def test_evaluate_with_rollout_penalty_is_byte_deterministic(tmp_path):
    # which rollouts get a value tail depends on pruning, and so on the
    # velocity_rollout hook's penalty; the written files must not vary
    cfg_path = tmp_path / "run.cfg"
    constrained = TINY_CONFIG.replace(
        "[data]", "env = pointmass_constrained\nv_cap = 0.05\n\n[constraint]\nmode = velocity_rollout\n\n[data]"
    )
    cfg_path.write_text(constrained)
    base = ["--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]
    for command in ("gen-data", "train-dynamics", "train-behavior", "train-q", "evaluate"):
        assert cli.main([command, *base]) == 0, command
    names = ("results.csv", "diagnostics.csv")
    first = [(tmp_path / name).read_bytes() for name in names]
    assert cli.main(["evaluate", *base]) == 0
    assert [(tmp_path / name).read_bytes() for name in names] == first
    # the hook binds: without it, pruning keeps other rollouts
    cfg_path.write_text(constrained.replace("mode = velocity_rollout", "mode = none"))
    assert cli.main(["evaluate", *base]) == 0
    assert (tmp_path / "diagnostics.csv").read_bytes() != first[1]


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
    # an ablation whose every cell has pruning off plans on it
    cfg_path.write_text(one.replace("variants = full,noP", "variants = noP"))
    assert cli.main(["ablate", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0


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
    path = rewrite_checkpoint(copy, edit_lines(lambda lines: [line for line in lines if not line.startswith(f"{key} =")]))
    load = value.load_q if directory == "q" else adm.load_ensemble
    with pytest.raises(FormatError, match=key) as info:
        load(copy)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "edit",
    [
        "k = two", "k = -1", "activation = swish", "embed_width = 7", "sigma_min = 0.01", "sigma_max = 4.0",
        "input_dim = 9 in q", "x_std = 1.5 in q", "drop the q net", "flip a dynamics net byte",
        "drop one x_mean", "drop one x_std", "drop one o_mean", "drop one o_std",
        "o_std = nan,nan in behavior", "y_std = inf in q", "x_std = -1.0,-1.0,-1.0,-1.0,-1.0,-1.0 in q",
        "x_std = 0,0,0,0,0,0",
    ],
)
def test_corrupt_checkpoint_is_format_error_without_traceback(pipeline_dir, tmp_path, capsys, edit):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    if edit == "drop the q net":
        broken, needles = rewrite_checkpoint(copy / "q", lambda manifest, nets: (manifest, b"")), ("holds 0 nets",)
    elif edit == "flip a dynamics net byte":  # the digest is left as it was
        broken, needles = copy / "dynamics" / CHECKPOINT_FILE, ("SHA-256",)
        blob = bytearray(broken.read_bytes())
        blob[blob.index(b"MOPPNN1") + 100] ^= 1
        broken.write_bytes(blob)
    elif edit.startswith("drop one "):  # a normalization vector one value short
        key = edit[len("drop one "):]
        lines = (copy / "dynamics" / CHECKPOINT_FILE).read_bytes().partition(b"\0")[0].decode().splitlines()
        values = next(line for line in lines if line.startswith(f"{key} =")).split("=")[1].strip().split(",")
        dim_key = "input_dim" if key.startswith("x_") else "output_dim"
        needles = (key, f"holds {len(values) - 1} values", f"'{dim_key}' = {len(values)}")
        broken = rewrite_checkpoint(copy / "dynamics", edit_lines(lambda lines: [
            f"{key} = {','.join(values[1:])}\n" if line.startswith(f"{key} =") else line for line in lines
        ]))
    else:
        edit, _, directory = edit.partition(" in ")  # the dynamics checkpoint unless named
        key, _, bad = edit.partition(" = ")
        needles = (key, bad)
        broken = rewrite_checkpoint(copy / (directory or "dynamics"), edit_lines(lambda lines: [
            f"{edit}\n" if line.startswith(f"{key} =") else line for line in lines
        ]))
    code = cli.main(["evaluate", "--config", str(copy / "run.cfg"), "--out", str(copy), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(broken) in err and all(needle in err for needle in needles)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("h = 2", "h = 0", "[planner] h = 0"),
        ("l = auto", "l = auto\nkappa = -1", "[planner] kappa = -1.0"),
        ("l = auto", "l = -0.5", "[planner] l = -0.5"),
        ("n = 8", "n = 8\nn_min = 9", "[planner] n_min = 9"),
        ("steps = 150", "steps = 0", "[adm] steps = 0"),
        ("k2 = 2", "k2 = 0", "[adm] k2 = 0"),
        ("gamma = 0.9", "gamma = 1.0", "[fqe] gamma = 1.0"),
        ("values = 0.1,0.5", "values = 0.1,0", "[ablate] values = 0.1,0.0: sigma_m = 0.0"),
        ("axis = sigma_m\nvalues = 0.1,0.5", "axis = h\nvalues = 2,0", "[ablate] values = 2.0,0.0: h = 0.0"),
        ("axis = sigma_m\nvalues = 0.1,0.5", "axis = l\nvalues = -0.5", "[ablate] values = -0.5: l = -0.5"),
        ("axis = sigma_m\nvalues = 0.1,0.5", "axis = h\nvalues = inf", "[ablate] values = inf: h = inf"),
        ("l = auto", "l = auto\nkappa = nan", "[planner] kappa = nan"),
        ("l = auto", "l = auto\nkappa = inf", "[planner] kappa = inf"),
        ("l = auto", "l = auto\nsigma_m = nan", "[planner] sigma_m = nan"),
        ("l = auto", "l = auto\nsigma_m = inf", "[planner] sigma_m = inf"),
        ("l = auto", "l = nan", "[planner] l = nan"),
        ("steps = 150", "steps = 150\nlr = nan", "[adm] lr = nan"),
        ("steps = 150", "steps = 150\nlr = inf", "[adm] lr = inf"),
        ("gamma = 0.9", "gamma = 0.9\nlr = nan", "[fqe] lr = nan"),
        ("gamma = 0.9", "gamma = 0.9\nlr = inf", "[fqe] lr = inf"),
        ("axis = sigma_m\nvalues = 0.1,0.5", "axis = sigma_m\nvalues = 0.1,nan", "[ablate] values = 0.1,nan: sigma_m = nan"),
        ("axis = sigma_m\nvalues = 0.1,0.5", "axis = h\nvalues = 2,2.5", "[ablate] values = 2.0,2.5: h = 2.5"),
        ("embed = 16", "embed = 0", "[adm] embed = 0"),
        ("head_hidden = 16,8", "head_hidden = 16,-8", "[adm] head_hidden = 16,-8"),
        ("head_hidden = 16,8", "head_hidden = 16,8\nactivation = swish", "[adm] activation = swish"),
        ("hidden = 16,16", "hidden = 0", "[fqe] hidden = 0"),
    ],
)
def test_library_range_violation_fails_every_command_before_work(tmp_path, capsys, old, new, key):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY_CONFIG.replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(cfg_path)
    for command in ("gen-data", "train-dynamics", "train-behavior", "train-q", "evaluate", "ablate"):
        assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


# Every key that sets a library config field, at a value other than the field's default.
LIBRARY_KEYS = """\
[adm]
k1 = 4
k2 = 5
steps = 7
batch = 9
lr = 0.002
embed = 11
head_hidden = 5,4,3
activation = tanh
[fqe]
gamma = 0.5
iterations = 2
steps = 6
batch = 10
lr = 0.003
hidden = 7,8,9
[planner]
h = 3
kappa = 1.5
beta = 0.25
l = 0.75
sigma_m = 0.3
n = 50
n_min = 7
m = 4
k_q = 2
use_max_q = false
use_pruning = false
use_value = false
"""
LIBRARY_FIELDS = {
    "adm": dict(steps=7, batch_size=9, learning_rate=0.002, embed_width=11, head_hidden=(5, 4, 3), activation="tanh"),
    "fqe": dict(gamma=0.5, iterations=2, steps_per_iteration=6, batch_size=10, learning_rate=0.003, hidden=(7, 8, 9)),
    "planner": dict(
        horizon=3, kappa=1.5, beta=0.25, uncertainty_threshold=0.75, sigma_scale=0.3, n_rollouts=50, n_min=7,
        candidates=4, value_samples=2, use_max_q=False, use_pruning=False, use_value=False,
    ),
}


def test_every_library_key_sets_the_field_it_names(tmp_path):
    path = tmp_path / "lib.cfg"
    path.write_text(LIBRARY_KEYS)
    cfg = load_config(path)
    built = {
        "adm": config.adm_config(cfg, cfg.k1),
        "fqe": config.fqe_config(cfg),
        "planner": config.planner_config(cfg, cfg.threshold),
    }
    defaults = {"adm": adm.AdmConfig(), "fqe": value.FqeConfig(), "planner": planner.PlannerConfig()}
    for section, fields in LIBRARY_FIELDS.items():
        for field, want in fields.items():
            assert getattr(defaults[section], field) != want, (section, field)
            assert getattr(built[section], field) == want, (section, field)
    assert (config.adm_config(cfg, cfg.k1).members, config.adm_config(cfg, cfg.k2).members) == (4, 5)
    named = {(s, f.metadata["field"]) for s, keys in config._SCHEMA.items() for f in keys.values() if f.metadata["field"]}
    assert named == {(section, field) for section, fields in LIBRARY_FIELDS.items() for field in fields}


def test_each_run_config_field_declares_one_section_key_of_its_own():
    keys = [(f.metadata["section"], f.metadata["key"]) for f in dataclasses.fields(RunConfig)]
    assert len(set(keys)) == len(keys)
    assert [(section, key) for section, fields in config._SCHEMA.items() for key in fields] == keys


def test_default_run_config_builds_the_library_defaults():
    cfg = RunConfig()
    assert config.adm_config(cfg, cfg.k1) == config.adm_config(cfg, cfg.k2) == adm.AdmConfig()
    assert config.fqe_config(cfg) == value.FqeConfig()
    assert config.planner_config(cfg, planner.PlannerConfig.uncertainty_threshold) == planner.PlannerConfig()


ARTEFACT_DIRECTORIES = [f"{directory}/{CHECKPOINT_FILE}" for directory in ("dynamics", "q", "behavior")]


@pytest.mark.parametrize("broken", ["config", "manifest", "dataset directory", *ARTEFACT_DIRECTORIES])
def test_unreadable_file_names_its_path_without_traceback(pipeline_dir, tmp_path, capsys, broken):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cfg_path = copy / "run.cfg"
    if broken == "config":  # a Latin-1 byte in a comment
        bad, code, commands = cfg_path, 2, ("gen-data", "train-q", "evaluate", "ablate")
        cfg_path.write_bytes(cfg_path.read_bytes() + b"# caf\xe9\n")
    elif broken == "manifest":
        bad, code, commands = copy / "dynamics" / CHECKPOINT_FILE, 1, ("evaluate", "ablate")
        rewrite_checkpoint(copy / "dynamics", lambda manifest, nets: (manifest + b"note = \xff\n", nets))
    elif broken in ARTEFACT_DIRECTORIES:  # a directory in the file's place
        bad, code, commands = copy / broken, 1, ("evaluate", "ablate")
        bad.unlink()
        bad.mkdir()
    else:
        bad, code, commands = copy / "data_dir", 1, ("train-dynamics", "train-behavior", "train-q", "evaluate", "ablate")
        bad.mkdir()
        cfg_path.write_text(TINY_CONFIG.replace("dataset = data.ds", "dataset = data_dir"))
    for command in commands:
        assert cli.main([command, "--config", str(cfg_path), "--out", str(copy), "--quiet"]) == code, command
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("directory, command", [("dynamics", "train-dynamics"), ("behavior", "train-behavior"), ("q", "train-q")])
def test_checkpoint_directory_of_per_net_files_exits_2_naming_the_train_command(pipeline_dir, tmp_path, capsys, directory, command):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    old = copy / directory  # as the format-1 writer left it: manifest.txt and one file per net
    manifest, _, nets = (old / CHECKPOINT_FILE).read_bytes().partition(b"\0")
    (old / "manifest.txt").write_bytes(manifest.replace(b"format = 2\n", b"format = 1\n"))
    (old / ("q.nn" if directory == "q" else "member_000_embed.nn")).write_bytes(nets)
    (old / CHECKPOINT_FILE).unlink()
    for evaluate_or_ablate in ("evaluate", "ablate"):
        assert cli.main([evaluate_or_ablate, "--config", str(copy / "run.cfg"), "--out", str(copy), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"missing artifact {old / CHECKPOINT_FILE}; run `mopp {command}` first" in err and "Traceback" not in err


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


CAPPED = "[run]\nenv = pointmass_constrained\n"
# a value that would break planning without an error, as the error names it -> the config text
BAD_CONSTRAINT_VALUES = {
    "[run] v_cap = nan": CAPPED + "v_cap = nan\n",
    "[run] v_cap = -1": CAPPED + "v_cap = -1\n",
    "[constraint] alpha_r = 7": "[constraint]\nmode = height_bonus\nalpha_r = 7\n",
    "[constraint] alpha_c = -0.5": CAPPED + "[constraint]\nmode = velocity_penalty\nalpha_c = -0.5\n",
    "[constraint] weight = nan": CAPPED + "[constraint]\nmode = velocity_rollout\nweight = nan\n",
    "[constraint] weight = -100": "[constraint]\nmode = height_bonus\nweight = -100\n",
}


@pytest.mark.parametrize("needle", BAD_CONSTRAINT_VALUES)
def test_constraint_value_that_breaks_planning_exits_2(tmp_path, capsys, needle):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(BAD_CONSTRAINT_VALUES[needle])
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: envs.make_env("pointmass_constrained", v_cap=float("inf")),
        lambda: envs.velocity_rollout_penalty(v_cap=0.0),
        lambda: envs.velocity_rollout_penalty(v_cap=1.0, weight=float("nan")),
        lambda: envs.velocity_penalty_reward(v_cap=1.0, alpha=1.5),
        lambda: envs.height_bonus_reward(alpha=float("nan")),
        lambda: envs.height_bonus_reward(weight=0.0),
    ],
)
def test_hook_builders_reject_values_that_break_planning(build):
    with pytest.raises(ConfigError, match="must"):
        build()


PIPELINE_COMMANDS = ("gen-data", "train-dynamics", "train-behavior", "train-q", "evaluate", "ablate")
# what names a negative seed in the error -> (config text, extra CLI arguments)
NEGATIVE_SEEDS = {
    "--seed -5": (TINY_CONFIG, ["--seed", "-5"]),
    "'seeds' in [run]": (TINY_CONFIG.replace("seeds = 0", "seeds = 0,-1"), []),
    "'seed' in [data]": (TINY_CONFIG.replace("seed = 4", "seed = -1"), []),
    "'dynamics_seed' in [adm]": (TINY_CONFIG.replace("k1 = 2", "k1 = 2\ndynamics_seed = -2"), []),
    "'behavior_seed' in [adm]": (TINY_CONFIG.replace("k1 = 2", "k1 = 2\nbehavior_seed = -3"), []),
    "'seed' in [fqe]": (TINY_CONFIG.replace("hidden = 16,16", "hidden = 16,16\nseed = -4"), []),
}


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_negative_seed_fails_before_work(tmp_path, capsys, command):
    cfg_path = tmp_path / "c.cfg"
    for needle, (text, extra) in NEGATIVE_SEEDS.items():
        cfg_path.write_text(text)
        assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path), "--quiet", *extra]) == 2, needle
        err = capsys.readouterr().err
        assert needle in err and "non-negative" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize(
    "old, new, needle",
    [
        ("seeds = 0", "seeds = 0,1,0", "[run] seeds = 0,1,0: 0 is listed more than once"),
        ("values = 0.1,0.5", "values = 0.5,0.1,0.50", "[ablate] values = 0.5,0.1,0.5: 0.5 is listed more than once"),
        ("variants = full,noP", "variants = noP,full, noP", "[ablate] variants = noP,full,noP: noP is listed more than once"),
    ],
)
def test_repeated_list_entry_exits_2_naming_key_and_value(tmp_path, capsys, old, new, needle):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY_CONFIG.replace(old, new))
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("command, target", [("gen-data", "data.ds"), ("evaluate", "results.csv")])
def test_directory_at_a_write_target_is_format_error(pipeline_dir, tmp_path, capsys, command, target):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy, ignore=shutil.ignore_patterns(target))
    (copy / target).mkdir()
    assert cli.main([command, "--config", str(copy / "run.cfg"), "--out", str(copy), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(copy / target) in err and "directory" in err and "Traceback" not in err
    assert (copy / target).is_dir() and not list(copy.glob(".*.tmp"))


# [section] key -> the table that holds every name it accepts
NAME_TABLES = {("run", "env"): envs.ENVS, ("data", "policy"): envs.POLICIES, ("constraint", "mode"): config.CONSTRAINT_MODES}


@pytest.mark.parametrize(
    "section, key, name", [(*sk, name) for sk, table in NAME_TABLES.items() for name in (*table, "unknown")]
)
def test_every_table_name_builds_and_an_unknown_one_exits_2(tmp_path, capsys, section, key, name):
    cfg_path = tmp_path / "c.cfg"
    capped = "[run]\nenv = pointmass_constrained\n" if section == "constraint" else ""  # the velocity modes need a cap
    cfg_path.write_text(f"{capped}[{section}]\n{key} = {name}\n")
    if name == "unknown":
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} = unknown" in err and "Traceback" not in err
        return
    cfg = load_config(cfg_path)
    env = envs.make_env(cfg.env, v_cap=cfg.v_cap)
    assert (env.v_cap is not None) == (cfg.env == "pointmass_constrained")
    states, actions = np.full((3, 4), 2.0), np.full((3, 2), 0.5)
    action = envs.scripted_policy(cfg.data_policy, env, seed=0)(states[0])
    assert action.shape == (2,) and np.all(np.abs(action) <= 1.0)
    hooks = config.constraint_config(cfg)
    if hooks.reward_transform is not None:
        assert hooks.reward_transform(states, actions, np.zeros(3)).shape == (3,)
    if hooks.rollout_penalty is not None:
        assert np.all(hooks.rollout_penalty(states, actions) > 0)  # vx = 2 is above the default cap


def test_failed_csv_write_keeps_existing_results_and_leaves_no_temp_file(pipeline_dir, monkeypatch):
    out, base = pipeline_dir
    assert cli.main(["evaluate", *base]) == 0  # so every file a good run writes is listed below
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


@pytest.fixture
def cold_run(pipeline_dir, tmp_path):
    """A copy of the pipeline's artefacts with no calibration.txt and no CSVs, and CLI args for it."""
    out, _ = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run, ignore=shutil.ignore_patterns(cli.CALIBRATION_FILE, "*.csv"))
    return run, ["--config", str(run / "run.cfg"), "--out", str(run)]


def count_calibrations(monkeypatch) -> list:
    """Record each call of the `l = auto` rule; returns the list the calls are appended to."""
    calls = []
    real = planner.uncertainty_threshold_from_data

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "uncertainty_threshold_from_data", counted)
    return calls


CSV_NAMES = ("results.csv", "diagnostics.csv", "ablation.csv")


def test_calibration_is_computed_once_and_reused(cold_run, monkeypatch, capsys):
    run, base = cold_run
    calls = count_calibrations(monkeypatch)
    path = run / cli.CALIBRATION_FILE
    assert cli.main(["evaluate", *base]) == 0
    assert len(calls) == 1 and "computed on the dataset" in capsys.readouterr().out
    path.unlink()  # so ablate runs cold too
    assert cli.main(["ablate", *base]) == 0
    assert len(calls) == 2
    cold = [(run / name).read_bytes() for name in CSV_NAMES]
    entries = dict(line.split(" = ") for line in path.read_text().splitlines())
    dynamics, dataset = adm.load_ensemble(run / "dynamics"), data.load_dataset(run / "data.ds")
    assert float(entries["threshold"]) == planner.uncertainty_threshold_from_data(dynamics, dataset)
    calls.clear()
    assert cli.main(["evaluate", *base]) == 0
    assert cli.main(["ablate", *base]) == 0
    assert calls == []
    out = capsys.readouterr().out
    assert out.count(f"read from {path}") == 2
    assert [(run / name).read_bytes() for name in CSV_NAMES] == cold


@pytest.mark.parametrize("records", ["the fixture's", "none"])  # none: a 28-byte file, shorter than a digest
def test_dataset_of_the_earlier_format_exits_1_naming_gen_data(cold_run, capsys, records):
    run, base = cold_run
    path = run / "data.ds"
    ds = data.load_dataset(path)
    payload = path.read_bytes()[:-DIGEST_SIZE].partition(b"\0")[2] if records != "none" else b""
    count, episodes = (len(ds), ds.n_episodes) if payload else (0, 0)
    header = struct.pack("<IIIII", 1, ds.state_dim, ds.action_dim, count, episodes)  # version 1
    path.write_bytes(b"MOPPDS1\0" + header + payload)  # the same records in the earlier header format
    with pytest.raises(FormatError, match=re.escape(f"{path}: ") + ".*`mopp gen-data`"):
        data.load_dataset(path)
    assert cli.main(["evaluate", *base, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and "`mopp gen-data`" in err and "Traceback" not in err


def test_calibration_key_covers_the_code_the_rule_runs():
    names = {os.path.basename(path) for path in cli.CALIBRATION_CODE}
    assert {"planner.py", "adm.py", "nn.py", "data.py", "cli.py"} <= names


@pytest.mark.parametrize("change", ["train-dynamics", "gen-data", "edit the last head net", "edit the code"])
def test_calibration_is_recomputed_when_an_input_changes(cold_run, monkeypatch, change):
    run, base = cold_run
    base.append("--quiet")
    assert cli.main(["evaluate", *base]) == 0
    stored = (run / cli.CALIBRATION_FILE).read_text()
    if change == "edit the last head net":  # the manifest stays as it is
        ensemble = adm.load_ensemble(run / "dynamics")
        ensemble.members[-1].heads[-1].weights[-1][0, 0] += 1.0
        adm.save_ensemble(ensemble, run / "dynamics")
    elif change == "edit the code":  # as if the rule's module had changed
        code = list(cli.CALIBRATION_CODE)
        i = [os.path.basename(path) for path in code].index("planner.py")
        edited = run.parent / "planner.py"
        edited.write_text(open(code[i], encoding="utf-8").read() + "# edited\n", encoding="utf-8")
        code[i] = str(edited)
        monkeypatch.setattr(cli, "CALIBRATION_CODE", tuple(code))
    else:
        assert cli.main([change, *base, "--seed", "11"]) == 0
    calls = count_calibrations(monkeypatch)
    assert cli.main(["evaluate", *base]) == 0
    assert cli.main(["ablate", *base]) == 0
    assert len(calls) == 1
    assert (run / cli.CALIBRATION_FILE).read_text() != stored


@pytest.mark.parametrize("edit", ["truncate in threshold", "truncate in key", "threshold = abc", "no key", "binary"])
def test_unusable_calibration_file_is_recomputed(cold_run, monkeypatch, capsys, edit):
    run, base = cold_run
    base.append("--quiet")
    assert cli.main(["evaluate", *base]) == 0
    results = (run / "results.csv").read_bytes()
    path = run / cli.CALIBRATION_FILE
    text = path.read_text()
    threshold_line, key_line = text.splitlines()
    edited = {
        "truncate in threshold": text[: len("threshold = 0.")],
        "truncate in key": text[: len(text) - 10],
        "threshold = abc": f"threshold = abc\n{key_line}\n",
        "no key": f"{threshold_line}\n",
    }
    if edit == "binary":
        path.write_bytes(b"\xff\xfe\x00threshold")
    else:
        path.write_text(edited[edit])
    calls = count_calibrations(monkeypatch)
    assert cli.main(["evaluate", *base]) == 0
    assert len(calls) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert path.read_text() == text
    assert (run / "results.csv").read_bytes() == results


def test_numeric_threshold_never_touches_the_calibration_file(cold_run, monkeypatch):
    run, base = cold_run
    base.append("--quiet")
    (run / "run.cfg").write_text(TINY_CONFIG.replace("l = auto", "l = 0.5"))
    calls = count_calibrations(monkeypatch)
    read = []
    monkeypatch.setattr(cli, "read_manifest", lambda path: read.append(path))
    assert cli.main(["evaluate", *base]) == 0
    assert cli.main(["ablate", *base]) == 0
    assert calls == [] and read == []
    assert not (run / cli.CALIBRATION_FILE).exists()


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("evaluate", "l = auto", "l = auto\nuse_pruning = false"),
        ("ablate", "axis = sigma_m", "axis = l"),
        ("ablate", "variants = full,noP", "variants = noP"),
    ],
)
def test_no_calibration_when_no_planner_reads_the_threshold(cold_run, monkeypatch, capsys, command, old, new):
    run, base = cold_run
    (run / "run.cfg").write_text(TINY_CONFIG.replace(old, new))
    (run / "data.ds").unlink()  # not needed, so not read
    calls = count_calibrations(monkeypatch)
    assert cli.main([command, *base]) == 0
    assert calls == []
    assert not (run / cli.CALIBRATION_FILE).exists()
    assert "no planner prunes by the uncertainty threshold" in capsys.readouterr().out


def test_one_candidate_reads_no_q_and_writes_the_csvs_of_max_q_off(pipeline_dir, tmp_path):
    out, _ = pipeline_dir
    csvs = []
    for planner_keys in ("m = 1", "m = 3\nuse_max_q = false"):
        run = tmp_path / str(len(csvs))
        shutil.copytree(out, run, ignore=shutil.ignore_patterns("q", "*.csv"))  # no Q to read
        (run / "run.cfg").write_text(TINY_CONFIG.replace("m = 3", f"{planner_keys}\nuse_value = false"))
        base = ["--config", str(run / "run.cfg"), "--out", str(run), "--quiet"]
        assert cli.main(["evaluate", *base]) == 0 and cli.main(["ablate", *base]) == 0
        csvs.append([(run / name).read_bytes() for name in CSV_NAMES])
    assert csvs[0] == csvs[1]


# --- episode processes ---

# Two seeds x two episodes, and four ablate cells: 4 evaluate and 16 ablate jobs.
PROCESS_CONFIG = TINY_CONFIG.replace("seeds = 0\nepisodes = 1", "seeds = 0,1\nepisodes = 2")
PROCESS_STEPS = 12


@pytest.fixture
def process_run(cold_run, monkeypatch):
    """The cold run on PROCESS_CONFIG with episodes cut to PROCESS_STEPS steps; forks are counted in the list returned."""
    run, base = cold_run
    (run / "run.cfg").write_text(PROCESS_CONFIG)
    make_env = envs.make_env

    def short_env(*args, **kwargs):
        env = make_env(*args, **kwargs)
        env.spec = dataclasses.replace(env.spec, max_steps=PROCESS_STEPS)
        return env

    monkeypatch.setattr(envs, "make_env", short_env)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert cli.main(["evaluate", *base, "--quiet"]) == 0  # computes calibration.txt, so every later run reads it
    forks.clear()
    return run, base, forks


def run_both(run, base, capsys) -> tuple:
    """Exit codes, CSV bytes, stdout and stderr of ``evaluate`` then ``ablate``."""
    codes = (cli.main(["evaluate", *base]), cli.main(["ablate", *base]))
    captured = capsys.readouterr()
    return codes, [(run / name).read_bytes() for name in CSV_NAMES], captured.out, captured.err


def test_episode_processes_write_the_sequential_output(process_run, monkeypatch, capsys):
    run, base, forks = process_run
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(nn, "_workers", workers)
        out.append(run_both(run, base, capsys))
        assert len(forks) == (workers == 2) * 4  # two children per command
        forks.clear()
    assert out[0] == out[1]
    assert out[0][0] == (0, 0)


@pytest.mark.parametrize("death", ["exit 3", "raise"])
@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_dead_episode_process_exits_1_naming_the_episode(process_run, monkeypatch, capsys, command, death):
    run, base, forks = process_run
    parent, real = os.getpid(), planner.run_episode

    def dying(env, bundle, pcfg, constraints, seed):
        if seed == (1, 1) and os.getpid() != parent:
            if death == "raise":  # not a MoppError, so it ends the child, which exits with status 1
                raise RuntimeError("synthetic crash")
            os._exit(3)
        return real(env, bundle, pcfg, constraints=constraints, seed=seed)

    monkeypatch.setattr(planner, "run_episode", dying)
    monkeypatch.setattr(nn, "_workers", 2)
    assert cli.main([command, *base, "--quiet"]) == 1
    err = capsys.readouterr().err
    status = "status 1" if death == "raise" else "status 3"
    assert "seed 1 episode 1" in err and status in err and "Traceback" not in err
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parent_exception_leaves_no_episode_process(process_run, monkeypatch):
    run, base, forks = process_run

    def interrupted(connections):
        raise KeyboardInterrupt

    monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
    monkeypatch.setattr(nn, "_workers", 2)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["ablate", *base, "--quiet"])
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers, config", [(2, TINY_CONFIG), (1, PROCESS_CONFIG)])
def test_one_job_or_one_worker_never_forks(process_run, monkeypatch, workers, config):
    run, base, _ = process_run
    (run / "run.cfg").write_text(config)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(nn, "_workers", workers)
    assert cli.main(["evaluate", *base, "--quiet"]) == 0


# --- models that do not fit the env ---


@pytest.fixture(scope="module")
def misfit_dir(tmp_path_factory):
    """Dynamics, behavior and Q checkpoints fitted to a 3-state, 2-action dataset; the point mass has 4 states."""
    root = tmp_path_factory.mktemp("misfit")
    rng = np.random.default_rng(0)
    states = rng.normal(size=(64, 3)).astype(np.float32)
    actions = rng.normal(size=(64, 2)).astype(np.float32)
    done = np.arange(64) % 16 == 15
    ds = data.Dataset(states, actions, rng.normal(size=64), np.roll(states, -1, axis=0), done, np.arange(64) // 16)
    adm_cfg = adm.AdmConfig(members=2, steps=1, batch_size=8, embed_width=4, head_hidden=(4,))
    for role in ("dynamics", "behavior"):
        adm.save_ensemble(adm.adm_train(ds, role, adm_cfg, seed=1), root / role)
    fqe_cfg = value.FqeConfig(iterations=1, steps_per_iteration=1, batch_size=8, hidden=(4,))
    value.save_q(value.fqe_train(ds, fqe_cfg, seed=2), root / "q")
    return root


# model -> what its message names besides its directory
MISFIT_NEEDLES = {
    "dynamics": ("dynamics model", "input width 5", "|S|+|A| = 6"),
    "behavior": ("behavior model", "input width 3", "|S| = 4"),
    "q": ("Q network", "input width 5", "|S|+|A| = 6"),
}


@pytest.mark.parametrize("model", MISFIT_NEEDLES)
@pytest.mark.parametrize("threshold", ["auto", "0.5"])
@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_checkpoint_that_does_not_fit_the_env_exits_2_before_work(
    cold_run, misfit_dir, monkeypatch, capsys, command, threshold, model
):
    run, base = cold_run
    path = misfit_dir / model
    (run / "run.cfg").write_text(
        PROCESS_CONFIG.replace("l = auto", f"l = {threshold}").replace("[data]", f"{model}_dir = {path}\n\n[data]")
    )
    calls = count_calibrations(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(nn, "_workers", 2)
    assert cli.main([command, *base]) == 2
    err = capsys.readouterr().err
    assert all(needle in err for needle in (*MISFIT_NEEDLES[model], str(path))) and "Traceback" not in err
    assert calls == []
    assert not any((run / name).exists() for name in CSV_NAMES)


# --- write targets that are files ---


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_out_naming_a_file_exits_2_before_work(tmp_path, monkeypatch, capsys, command):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY_CONFIG)
    monkeypatch.chdir(tmp_path)  # where an empty --out would write
    for out, problem in ((tmp_path / "file", "not a directory"), (tmp_path / "file" / "sub", "not a directory"), ("", "empty")):
        (tmp_path / "file").write_text("kept")
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}" in err and problem in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "file"]
        assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize(
    "command, key, path",
    [
        ("gen-data", "dataset", "taken/data.ds"),
        ("gen-data", "dataset", "taken/sub/data.ds"),
        ("train-dynamics", "dynamics_dir", "taken"),
        ("train-behavior", "behavior_dir", "taken"),
        ("train-q", "q_dir", "taken"),
    ],
)
def test_checkpoint_dir_naming_a_file_exits_2_before_training(pipeline_dir, tmp_path, monkeypatch, capsys, command, key, path):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    setting = f"{key} = {path}"
    (copy / "run.cfg").write_text(TINY_CONFIG.replace("dataset = data.ds", setting if key == "dataset" else f"dataset = data.ds\n{setting}"))
    (copy / "taken").write_text("kept")
    for owner, name in ((adm, "adm_train"), (value, "fqe_train"), (data, "generate_dataset")):
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: pytest.fail("worked"))
    assert cli.main([command, "--config", str(copy / "run.cfg"), "--out", str(copy), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"[run] {setting}" in err and "not a directory" in err and "Traceback" not in err
    assert (copy / "taken").read_text() == "kept"


@pytest.mark.parametrize("first, second", [("dynamics_dir", "behavior_dir"), ("dynamics_dir", "q_dir"), ("behavior_dir", "q_dir")])
def test_checkpoint_dirs_naming_one_directory_exit_2_before_work(tmp_path, monkeypatch, capsys, first, second):
    cfg_path = tmp_path / "c.cfg"
    # two spellings of one directory under --out
    cfg_path.write_text(TINY_CONFIG.replace("dataset = data.ds", f"dataset = data.ds\n{first} = models\n{second} = ./models/"))
    for owner, name in ((adm, "adm_train"), (value, "fqe_train"), (data, "generate_dataset")):
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: pytest.fail("worked"))
    for command in PIPELINE_COMMANDS:
        assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2, command
        err = capsys.readouterr().err
        assert f"[run] {first} = models and {second} = ./models/" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gen_data_creates_a_missing_dataset_directory(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY_CONFIG.replace("dataset = data.ds", "dataset = new/sub/data.ds"))
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert data.load_dataset(tmp_path / "out" / "new" / "sub" / "data.ds").n_episodes == 3


@pytest.mark.parametrize("flags", [["--config", "nonexistent.cfg"], ["--seed", "-5"], ["--out", "x"], ["--quiet"]])
def test_print_config_rejects_the_pipeline_flags(capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["print-config", *flags])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
