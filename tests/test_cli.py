import os
import re
import shutil

import numpy as np
import pytest

import mopp
from mopp import adm, cli, config, data, nn, planner, value
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
        "drop one x_mean", "drop one x_std", "drop one o_mean", "drop one o_std",
    ],
)
def test_corrupt_checkpoint_is_format_error_without_traceback(pipeline_dir, tmp_path, capsys, edit):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    if edit == "delete q.nn":
        broken, needles = copy / "q" / "q.nn", ("q.nn",)
        broken.unlink()
    elif edit.startswith("drop one "):  # a normalization vector one value short
        key = edit[len("drop one "):]
        broken = copy / "dynamics" / "manifest.txt"
        lines = broken.read_text().splitlines(keepends=True)
        values = next(line for line in lines if line.startswith(f"{key} =")).split("=")[1].strip().split(",")
        dim_key = "input_dim" if key.startswith("x_") else "output_dim"
        needles = (key, f"holds {len(values) - 1} values", f"'{dim_key}' = {len(values)}")
        broken.write_text("".join(
            f"{key} = {','.join(values[1:])}\n" if line.startswith(f"{key} =") else line for line in lines
        ))
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
    named = {(section, field) for section, keys in config._SCHEMA.items() for _, _, field in keys.values() if field}
    assert named == {(section, field) for section, fields in LIBRARY_FIELDS.items() for field in fields}


def test_default_run_config_builds_the_library_defaults():
    cfg = RunConfig()
    assert config.adm_config(cfg, cfg.k1) == config.adm_config(cfg, cfg.k2) == adm.AdmConfig()
    assert config.fqe_config(cfg) == value.FqeConfig()
    assert config.planner_config(cfg, planner.PlannerConfig.uncertainty_threshold) == planner.PlannerConfig()


@pytest.mark.parametrize("broken", ["config", "manifest", "dataset directory"])
def test_unreadable_file_names_its_path_without_traceback(pipeline_dir, tmp_path, capsys, broken):
    out, _ = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cfg_path = copy / "run.cfg"
    if broken == "config":  # a Latin-1 byte in a comment
        bad, code, commands = cfg_path, 2, ("gen-data", "train-q", "evaluate", "ablate")
        cfg_path.write_bytes(cfg_path.read_bytes() + b"# caf\xe9\n")
    elif broken == "manifest":
        bad, code, commands = copy / "dynamics" / "manifest.txt", 1, ("evaluate", "ablate")
        bad.write_bytes(bad.read_bytes() + b"note = \xff\n")
    else:
        bad, code, commands = copy / "data_dir", 1, ("train-dynamics", "train-behavior", "train-q", "evaluate", "ablate")
        bad.mkdir()
        cfg_path.write_text(TINY_CONFIG.replace("dataset = data.ds", "dataset = data_dir"))
    for command in commands:
        assert cli.main([command, "--config", str(cfg_path), "--out", str(copy), "--quiet"]) == code, command
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


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
        path = run / "dynamics" / "member_001_head_04.nn"
        net = nn.load_net(path)
        net.weights[-1][0, 0] += 1.0
        nn.save_net(net, path)
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
