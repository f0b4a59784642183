import json
import os

import pytest

from psromix.cli import main
from psromix.config import config_from_json, config_to_json, load_config
from psromix.engine import RunConfig, resume
from psromix.errors import ConfigError, CorruptCheckpoint
from psromix.oracle import OracleHParams
from psromix.policies import QTable, ValuePolicy
from psromix.serialize import policy_from_text, policy_to_text


def write_config(path, algorithm="mixed-opponents", seed=5, workers=None, epochs=3):
    cfg = {
        "run": {
            "algorithm": algorithm,
            "epochs": epochs,
            "episodes_per_cell": 8,
            "seed": seed,
        },
        "env": {"name": "rps"},
        "mss": {"name": "nash"},
        "oracle": {
            "kind": "tabular",
            "pure": {
                "learning_rate": 5e-3,
                "discount": 0.0,
                "total_timesteps": 400,
                "exploration_timesteps": 200,
            },
            "mix": {
                "learning_rate": 5e-3,
                "discount": 0.0,
                "total_timesteps": 400,
                "exploration_timesteps": 200,
            },
        },
    }
    if workers is not None:
        cfg["run"]["workers"] = workers
    path.write_text(json.dumps(cfg))
    return path


def read_all_bytes(root):
    contents = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            contents[os.path.relpath(full, root)] = open(full, "rb").read()
    return contents


def test_config_round_trip_identity(tmp_path):
    config = RunConfig(
        algorithm="mixed-oracles",
        env="leduc",
        mss="replicator",
        mss_params={"steps": 50, "step_size": 0.2},
        epochs=2,
        episodes_per_cell=4,
        oracle="tabular",
        pure_hparams=OracleHParams(learning_rate=0.5, total_timesteps=100, exploration_timesteps=50),
        mix_hparams=None,
        seed=9,
        early_stop_sum_regret=0.25,
    )
    text = config_to_json(config)
    parsed = config_from_json(text)
    assert parsed == config
    assert config_to_json(parsed) == text


def test_unknown_algorithm_names_field(tmp_path):
    path = tmp_path / "bad.json"
    write_config(path, algorithm="alphastar")
    with pytest.raises(ConfigError, match="run.algorithm"):
        load_config(path)
    exit_code = main(["run", str(path), "--output", str(tmp_path / "out")])
    assert exit_code == 1


def test_run_rerun_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(path), "--output", str(out1)]) == 0
    assert main(["run", str(path), "--output", str(out2)]) == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)
    printed = capsys.readouterr().out
    assert "epoch 1" in printed and "epoch 3" in printed


def test_run_worker_count_invariance(tmp_path):
    cfg1 = write_config(tmp_path / "w1.json", workers=1)
    cfg3 = write_config(tmp_path / "w3.json", workers=3)
    out1, out3 = tmp_path / "o1", tmp_path / "o3"
    assert main(["run", str(cfg1), "--output", str(out1)]) == 0
    assert main(["run", str(cfg3), "--output", str(out3)]) == 0
    curve1 = (out1 / "regret_curve.tsv").read_bytes()
    curve3 = (out3 / "regret_curve.tsv").read_bytes()
    assert curve1 == curve3


def test_legacy_workers_key_ignored(tmp_path):
    plain = write_config(tmp_path / "plain.json")
    legacy = write_config(tmp_path / "legacy.json", workers=4)
    out_plain, out_legacy = tmp_path / "op", tmp_path / "ol"
    assert main(["run", str(plain), "--output", str(out_plain)]) == 0
    assert main(["run", str(legacy), "--output", str(out_legacy)]) == 0
    curve_plain = (out_plain / "regret_curve.tsv").read_bytes()
    assert (out_legacy / "regret_curve.tsv").read_bytes() == curve_plain
    assert "workers" not in config_to_json(load_config(legacy))
    assert not (out_legacy / "config.json").exists()


@pytest.mark.parametrize("workers", [0, "two"])
def test_invalid_legacy_workers_rejected(tmp_path, workers):
    path = write_config(tmp_path / "bad.json", workers=workers)
    with pytest.raises(ConfigError, match="run.workers"):
        load_config(path)


def test_replay_fields_rejected(tmp_path):
    path = write_config(tmp_path / "cfg.json")
    cfg = json.loads(path.read_text())
    cfg["oracle"]["pure"]["batch_size"] = 32
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="oracle.pure"):
        load_config(path)


def test_checkpoint_with_legacy_workers_key_resumes(tmp_path):
    cfg = write_config(tmp_path / "a.json", epochs=2)
    out = tmp_path / "oa"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    ck_config = out / "checkpoint" / "config.json"
    sections = json.loads(ck_config.read_text())
    sections["run"]["workers"] = 1
    ck_config.write_text(json.dumps(sections, indent=1, sort_keys=True) + "\n")
    assert resume(out / "checkpoint").next_epoch == 3
    policies = out / "checkpoint" / "policies"
    assert main(["eval", str(out / "checkpoint"), "--eval-set", str(policies)]) == 0


def test_compare_outputs_both_labels(tmp_path, capsys):
    cfg_a = write_config(tmp_path / "a.json", algorithm="psro", epochs=2)
    cfg_b = write_config(tmp_path / "b.json", algorithm="mixed-opponents", epochs=2)
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    main(["run", str(cfg_a), "--output", str(out_a)])
    main(["run", str(cfg_b), "--output", str(out_b)])
    capsys.readouterr()
    table_path = tmp_path / "cmp.tsv"
    assert main(["compare", str(out_a), str(out_b), "--output", str(table_path)]) == 0
    table = table_path.read_text()
    assert "psro\tepoch" in table
    assert "mixed-opponents\ttimesteps" in table


def test_compare_single_dir_rejected(tmp_path):
    cfg = write_config(tmp_path / "a.json", epochs=2)
    out = tmp_path / "oa"
    main(["run", str(cfg), "--output", str(out)])
    assert main(["compare", str(out)]) == 2


def test_compare_environment_mismatch(tmp_path):
    cfg_a = write_config(tmp_path / "a.json", epochs=2)
    out_a = tmp_path / "oa"
    main(["run", str(cfg_a), "--output", str(out_a)])
    # fake a second run on another environment
    out_b = tmp_path / "ob"
    out_b.mkdir()
    for name in ("run_meta.txt", "regret_curve.tsv"):
        (out_b / name).write_bytes((out_a / name).read_bytes())
    meta = (out_b / "run_meta.txt").read_text().replace("env rps", "env leduc")
    (out_b / "run_meta.txt").write_text(meta)
    assert main(["compare", str(out_a), str(out_b)]) == 2


def test_eval_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.json", epochs=2)
    out = tmp_path / "oa"
    main(["run", str(cfg), "--output", str(out)])
    # use the run's own policies as a stand-in eval set
    code = main(
        [
            "eval",
            str(out / "checkpoint"),
            "--eval-set",
            str(out / "checkpoint" / "policies"),
            "--episodes",
            "8",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "sum_proxy_regret" in printed


def test_eval_missing_eval_set(tmp_path):
    cfg = write_config(tmp_path / "a.json", epochs=2)
    out = tmp_path / "oa"
    main(["run", str(cfg), "--output", str(out)])
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", str(out / "checkpoint"), "--eval-set", str(empty)]) == 2


def test_hparam_search_subcommand(tmp_path, capsys):
    spec = {
        "env": {"name": "rps"},
        "search": {
            "learning_rate": [5e-3],
            "exploration_timesteps": [100],
            "total_timesteps": [200],
            "sample_count": 2,
            "opponent_count": 2,
            "eval_episodes": 10,
            "learner": 1,
            "seed": 3,
        },
        "opponents": {"source": "random"},
    }
    path = tmp_path / "search.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "chosen.json"
    assert main(["hparam-search", str(path), "--output", str(out)]) == 0
    chosen = json.loads(out.read_text())
    assert chosen["pure"]["total_timesteps"] == 200
    assert chosen["mix"]["learning_rate"] == pytest.approx(5e-3)
    assert len(chosen["pure_scores"]) == 2


def test_output_root_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PSROMIX_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path / "a.json", epochs=2)
    assert main(["run", str(cfg), "--output", "nested/out"]) == 0
    assert (tmp_path / "nested" / "out" / "regret_curve.tsv").exists()


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_eval_rejects_non_positive_episodes(tmp_path, capsys, episodes):
    cfg = write_config(tmp_path / "a.json", epochs=1)
    out = tmp_path / "oa"
    main(["run", str(cfg), "--output", str(out)])
    policies = out / "checkpoint" / "policies"
    argv = ["eval", str(out / "checkpoint"), "--eval-set", str(policies)]
    assert main(argv + ["--episodes", episodes]) == 1
    assert "--episodes" in capsys.readouterr().err


def _five_key_policy_lines():
    table = QTable(3, {bytes([k]): [0.5 * k, -1.0, 2.0] for k in range(5)})
    return policy_to_text(ValuePolicy(table, epsilon=0.0)).splitlines()


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda lines: lines[:-2], id="truncated-table"),
        pytest.param(lambda lines: lines[:3], id="short-header"),
        pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0]], id="value-count"),
    ],
)
def test_corrupt_policy_file_rejected(tmp_path, capsys, corrupt):
    lines = _five_key_policy_lines()
    assert len(policy_from_text("\n".join(lines)).q.values) == 5
    text = "\n".join(corrupt(lines)) + "\n"
    with pytest.raises(CorruptCheckpoint):
        policy_from_text(text)
    cfg = write_config(tmp_path / "a.json", epochs=1)
    out = tmp_path / "oa"
    main(["run", str(cfg), "--output", str(out)])
    eval_set = tmp_path / "eval_set"
    eval_set.mkdir()
    (eval_set / "p0_0.txt").write_text(text)
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint"), "--eval-set", str(eval_set)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
