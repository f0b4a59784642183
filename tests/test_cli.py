import dataclasses
import json
import os
import shutil

import pytest

from psromix.cli import main
from psromix.config import (
    _MSS_PARAMS,
    RULES,
    HParamSearchSpec,
    config_from_json,
    config_to_json,
    load_config,
)
from psromix.engine import RunConfig, resume
from psromix.envs import MATRIX_OBSERVATION
from psromix.errors import ConfigError, CorruptCheckpoint
from psromix.evaluation import export_eval_set
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


def test_compare_environment_mismatch(tmp_path, capsys):
    cfg_a = write_config(tmp_path / "a.json", epochs=2)
    out_a = tmp_path / "oa"
    main(["run", str(cfg_a), "--output", str(out_a)])
    # fake a second run on another environment
    out_b = tmp_path / "ob"
    shutil.copytree(out_a / "checkpoint", out_b / "checkpoint")
    sections = json.loads((out_b / "checkpoint" / "config.json").read_text())
    sections["env"]["name"] = "leduc"
    (out_b / "checkpoint" / "config.json").write_text(json.dumps(sections))
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 2
    assert "different environments" in capsys.readouterr().err


def test_compare_reads_the_checkpoint(tmp_path, capsys):
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    main(["run", str(write_config(tmp_path / "a.json", epochs=2)), "--output", str(out_a)])
    main(["run", str(write_config(tmp_path / "b.json", epochs=2)), "--output", str(out_b)])
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 0
    table = capsys.readouterr().out
    # The regret curve is an output for people and plotting tools, not an input.
    (out_a / "regret_curve.tsv").write_text("epoch\tcumulative_train_steps\n0\t0\n")
    assert main(["compare", str(out_a), str(out_b)]) == 0
    assert capsys.readouterr().out == table
    record = out_b / "checkpoint" / "record.json"
    record.write_text(record.read_text()[:-40])
    assert main(["compare", str(out_a), str(out_b)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_b}: ") and err.count("\n") == 1


def test_compare_and_search_read_no_library(tmp_path, capsys):
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    cfg_a = write_config(tmp_path / "a.json", algorithm="mixed-oracles", epochs=2)
    main(["run", str(cfg_a), "--output", str(out_a)])
    main(["run", str(write_config(tmp_path / "b.json", epochs=2)), "--output", str(out_b)])
    search = search_config()
    search["search"]["opponent_count"] = 1
    search["opponents"] = {"source": "checkpoint", "path": str(out_a / "checkpoint")}
    search_path = tmp_path / "search.json"
    search_path.write_text(json.dumps(search))
    capsys.readouterr()

    def outputs():
        assert main(["compare", str(out_a), str(out_b)]) == 0
        assert main(["hparam-search", str(search_path)]) == 0
        return capsys.readouterr().out

    before = outputs()
    shutil.rmtree(out_a / "checkpoint" / "library")
    assert outputs() == before


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


def search_config():
    return {
        "env": {"name": "rps"},
        "search": {
            "learning_rate": [5e-3],
            "exploration_timesteps": [100],
            "total_timesteps": [200],
            "sample_count": 2,
            "opponent_count": 2,
            "learner": 1,
            "seed": 3,
        },
        "opponents": {"source": "random"},
    }


def test_hparam_search_subcommand(tmp_path, capsys):
    path = tmp_path / "search.json"
    path.write_text(json.dumps(search_config()))
    out = tmp_path / "chosen.json"
    assert main(["hparam-search", str(path), "--output", str(out)]) == 0
    chosen = json.loads(out.read_text())
    assert chosen["pure"]["total_timesteps"] == 200
    assert chosen["mix"]["learning_rate"] == pytest.approx(5e-3)
    assert len(chosen["pure_scores"]) == 2


@pytest.mark.parametrize(
    "edit, prefix",
    [
        pytest.param(lambda cfg: cfg["search"].update(learner=5), "search: learner", id="learner"),
        pytest.param(
            lambda cfg: cfg["search"].update(learner=1.0), "search: learner", id="learner-float"
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(opponent_count=0),
            "search: opponent_count",
            id="no-opponents",
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(eval_episodes=30),
            "search: unknown field(s) ['eval_episodes']",
            id="unknown-field",
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(learning_rate=0.1),
            "search: learning_rate must be a list of candidates, got 0.1",
            id="candidates-number",
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(learning_rate="abc"),
            "search: learning_rate must be a list of candidates, got 'abc'",
            id="candidates-string",
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(learning_rate=[-1.0]),
            "search: learning_rate candidate -1.0",
            id="negative-learning-rate",
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(total_timesteps=[0]),
            "search: total_timesteps candidate 0",
            id="zero-total-timesteps",
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(exploration_timesteps=[100, 2.5]),
            "search: exploration_timesteps candidate 2.5",
            id="fractional-exploration",
        ),
        pytest.param(
            lambda cfg: cfg["search"].update(discount=1.5), "search: discount", id="discount"
        ),
        pytest.param(
            lambda cfg: cfg.update(serch={}), "unknown config section(s) ['serch']", id="section"
        ),
        pytest.param(
            lambda cfg: cfg["opponents"].update(sorce="checkpoint"), "opponents", id="opponents"
        ),
        pytest.param(lambda cfg: cfg["search"].update(seed=-1), "search: seed", id="seed-negative"),
        pytest.param(lambda cfg: cfg["search"].update(seed=1.5), "search: seed", id="seed-float"),
        pytest.param(lambda cfg: cfg["search"].update(seed=True), "search: seed", id="seed-bool"),
        pytest.param(
            lambda cfg: cfg.update(opponents={"source": "checkpoint", "path": 5}),
            "opponents.path: ",
            id="path-int",
        ),
    ],
)
def test_hparam_search_config_errors(tmp_path, capsys, edit, prefix):
    cfg = search_config()
    edit(cfg)
    path = tmp_path / "search.json"
    path.write_text(json.dumps(cfg))
    assert main(["hparam-search", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")


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
        pytest.param(lambda lines: lines[:-1] + lines[-2:-1], id="repeated-key"),
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


def test_eval_names_a_checkpoint_config_that_breaks_a_rule(tmp_path, capsys):
    # A broken config.json inside a checkpoint is a corrupt checkpoint, not
    # an error in the user's own config: exit 2, naming the file.
    out = tmp_path / "oa"
    main(["run", str(write_config(tmp_path / "a.json", epochs=1)), "--output", str(out)])
    config_path = out / "checkpoint" / "config.json"
    cfg = json.loads(config_path.read_text())
    cfg["run"]["epochs"] = 0
    config_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    argv = ["eval", str(out / "checkpoint"), "--eval-set", str(out / "checkpoint" / "policies")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(config_path) in err and "run.epochs" in err
    with pytest.raises(CorruptCheckpoint, match="run.epochs"):
        resume(str(out / "checkpoint"))


def _edit_run_section(cfg, **changes):
    cfg["run"].update(changes)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda cfg: _edit_run_section(cfg, epochs="3"), id="epochs-string"),
        pytest.param(lambda cfg: _edit_run_section(cfg, epochs=2.5), id="epochs-float"),
        pytest.param(lambda cfg: _edit_run_section(cfg, seed=-1), id="negative-seed"),
        pytest.param(
            lambda cfg: _edit_run_section(cfg, episodes_per_cell=True), id="episodes-bool"
        ),
        pytest.param(
            lambda cfg: _edit_run_section(cfg, analytic_cells="yes"), id="analytic-cells-string"
        ),
        pytest.param(
            lambda cfg: _edit_run_section(cfg, early_stop_sum_regret="0.1"),
            id="early-stop-string",
        ),
        pytest.param(lambda cfg: cfg.update(run=[3]), id="run-not-an-object"),
        pytest.param(lambda cfg: cfg.update(oracle=[]), id="oracle-not-an-object"),
    ],
)
def test_run_config_field_types_checked(tmp_path, capsys, edit):
    path = write_config(tmp_path / "cfg.json", epochs=1)
    cfg = json.loads(path.read_text())
    edit(cfg)
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def _mss(**params):
    return lambda cfg: cfg.update(mss={"name": "replicator", **params})


def _pure(**hparams):
    return lambda cfg: cfg["oracle"]["pure"].update(hparams)


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(
            lambda cfg: cfg.update(env={"name": "gridworld"}), "env.name", id="unknown-env"
        ),
        pytest.param(lambda cfg: cfg["oracle"].update(pure=5), "oracle.pure", id="pure-int"),
        pytest.param(lambda cfg: cfg["oracle"].update(mix=[1]), "oracle.mix", id="mix-list"),
        pytest.param(_mss(steps="many"), "mss.steps", id="int-given-string"),
        pytest.param(_mss(steps=2.5), "mss.steps", id="int-given-float"),
        pytest.param(_mss(steps=True), "mss.steps", id="int-given-bool"),
        pytest.param(_mss(step_size="big"), "mss.step_size", id="float-given-string"),
        pytest.param(_mss(step_size=False), "mss.step_size", id="float-given-bool"),
        pytest.param(
            lambda cfg: cfg.update(mss={"name": "nash", "tolerance": None}),
            "mss.tolerance",
            id="float-given-null",
        ),
        pytest.param(_mss(steps=0), "mss.steps", id="zero-steps-mss"),
        pytest.param(_mss(steps=-5), "mss.steps", id="negative-steps"),
        pytest.param(_mss(step_size=0.0), "mss.step_size", id="zero-step-size"),
        pytest.param(_mss(step_size=float("inf")), "mss.step_size", id="infinite-step-size"),
        pytest.param(
            lambda cfg: cfg.update(mss={"name": "nash", "tolerance": -1}),
            "mss.tolerance",
            id="negative-tolerance",
        ),
        pytest.param(
            lambda cfg: cfg.update(mss={"name": "nash", "tolerance": float("nan")}),
            "mss.tolerance",
            id="nan-tolerance",
        ),
        pytest.param(
            lambda cfg: _edit_run_section(cfg, workers=True), "run.workers", id="workers-bool"
        ),
        pytest.param(lambda cfg: cfg["env"].update(nme=1), "env", id="env-typo"),
        pytest.param(lambda cfg: cfg["oracle"].update(pur={}), "oracle", id="oracle-typo"),
        pytest.param(_pure(epsilon_end=2.0), "oracle.pure", id="epsilon-above-one"),
        pytest.param(_pure(learning_rate=True), "oracle.pure", id="learning-rate-bool"),
        pytest.param(_pure(discount=False), "oracle.pure", id="discount-bool"),
        pytest.param(_pure(total_timesteps=400.5), "oracle.pure", id="fractional-steps"),
        pytest.param(
            _pure(total_timesteps=0, exploration_timesteps=0), "oracle.pure", id="zero-steps"
        ),
        pytest.param(
            lambda cfg: _edit_run_section(cfg, early_stop_sum_regret=float("nan")),
            "run.early_stop_sum_regret",
            id="early-stop-nan",
        ),
        pytest.param(
            lambda cfg: _edit_run_section(cfg, early_stop_sum_regret=-1),
            "run.early_stop_sum_regret",
            id="early-stop-negative",
        ),
        pytest.param(
            lambda cfg: _edit_run_section(cfg, early_stop_sum_regret=float("inf")),
            "run.early_stop_sum_regret",
            id="early-stop-infinite",
        ),
        pytest.param(lambda cfg: cfg.update(env={"name": 5}), "env.name", id="env-name-int"),
    ],
)
def test_config_error_names_the_field(tmp_path, capsys, edit, field):
    path = write_config(tmp_path / "cfg.json", epochs=1)
    cfg = json.loads(path.read_text())
    edit(cfg)
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_every_solver_parameter_has_a_rule():
    """Every checked config field is a key of the one rule table: a field
    added without a rule fails here."""
    solver_params = set().union(*_MSS_PARAMS.values())
    hparams = {f.name for f in dataclasses.fields(OracleHParams)}
    numeric_run_fields = {
        f.name
        for f in dataclasses.fields(RunConfig)
        if f.type.split(" | ")[0] in ("int", "float", "bool")
    }
    search_fields = {f.name for f in dataclasses.fields(HParamSearchSpec)}
    assert numeric_run_fields == {
        "epochs",
        "episodes_per_cell",
        "seed",
        "early_stop_sum_regret",
        "analytic_cells",
    }
    checked = solver_params | hparams | numeric_run_fields | search_fields | {"workers", "path"}
    assert checked == set(RULES)


def leduc_config(path, kind="tabular", **run):
    write_config(path, epochs=2)
    cfg = json.loads(path.read_text())
    cfg["env"]["name"] = "leduc"
    cfg["oracle"]["kind"] = kind
    cfg["run"].update(run)
    path.write_text(json.dumps(cfg))
    return path


def test_leduc_analytic_cells_simulate_no_episodes(tmp_path, capsys):
    path = leduc_config(tmp_path / "cfg.json", analytic_cells=True)
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("epoch")]
    assert len(lines) == 3 and all(ln.endswith("eval_episodes 0") for ln in lines)
    record = resume(tmp_path / "out" / "checkpoint")
    assert record.counter.eval_episodes == 0
    assert record.counter.train_steps == 2 * 2 * 400
    assert record.game.is_complete() and record.game.shape == (3, 3)


# The `artifact_digest` of a 3-epoch exact Leduc psro run.
LEDUC_EXACT_PSRO_DIGEST = "3cd25e9f65d59ea9ddb58f8dfb55e5572c7fcea2727ac757c65467b929c5b962"


def test_leduc_exact_psro_bytes_are_pinned(tmp_path, artifact_digest):
    path = leduc_config(
        tmp_path / "cfg.json", kind="exact", algorithm="psro", epochs=3, analytic_cells=True
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--output", str(out)]) == 0
    assert resume(out / "checkpoint").counter.train_steps == 0
    assert artifact_digest(out) == LEDUC_EXACT_PSRO_DIGEST


# What `psromix eval` prints for a seed-5 run scored against a held-out set
# drawn from a seed-101 run of the same config, pinned to the bit.
EVAL_LINES = {
    ("leduc", "mixed-oracles", 3): [
        "proxy_regret_p0 0.02282056051571657",
        "proxy_regret_p1 0.19145895337295668",
        "sum_proxy_regret 0.21427951388867325",
    ],
    ("rps", "mixed-opponents", 2): [
        "proxy_regret_p0 0.060553633218048464",
        "proxy_regret_p1 0.08650519031155712",
        "sum_proxy_regret 0.1470588235296056",
    ],
}


def _pinned_eval_inputs(tmp_path, env_name, algorithm, epochs):
    """The checkpoint (seed 5) and the eval set (from seed 101) that
    :data:`EVAL_LINES` is pinned on."""
    for seed in (5, 101):
        path = write_config(tmp_path / f"cfg{seed}.json", algorithm, seed, epochs=epochs)
        cfg = json.loads(path.read_text())
        cfg["env"]["name"] = env_name
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output", str(tmp_path / f"run{seed}")]) == 0
    eval_set = tmp_path / "eval_set"
    export_eval_set(resume(tmp_path / "run101" / "checkpoint"), eval_set, size=2, seed=1)
    return tmp_path / "run5" / "checkpoint", eval_set


@pytest.mark.parametrize("env_name, algorithm, epochs", sorted(EVAL_LINES))
def test_eval_output_is_pinned(tmp_path, capsys, env_name, algorithm, epochs):
    checkpoint, eval_set = _pinned_eval_inputs(tmp_path, env_name, algorithm, epochs)
    capsys.readouterr()
    assert main(["eval", str(checkpoint), "--eval-set", str(eval_set)]) == 0
    assert capsys.readouterr().out.splitlines() == EVAL_LINES[env_name, algorithm, epochs]


def test_eval_reads_no_library_but_resume_needs_it(tmp_path, capsys):
    pin = ("leduc", "mixed-oracles", 3)
    checkpoint, eval_set = _pinned_eval_inputs(tmp_path, *pin)
    shutil.rmtree(checkpoint / "library")
    capsys.readouterr()
    assert main(["eval", str(checkpoint), "--eval-set", str(eval_set)]) == 0
    assert capsys.readouterr().out.splitlines() == EVAL_LINES[pin]
    with pytest.raises(CorruptCheckpoint, match="library"):
        resume(checkpoint)


def test_solver_parameter_of_the_default_type_accepted():
    mss = {"name": "replicator", "steps": 50, "step_size": 1}
    config = config_from_json(json.dumps({"env": {"name": "rps"}, "mss": mss}))
    assert config.mss_params == {"steps": 50, "step_size": 1}


def _matrix_lines():
    return ["psromix-matrix v1", "players 2", "actions 2 2"] + [
        f"cell {a} {b} {float(a == b)} {float(a != b)}" for a in range(2) for b in range(2)
    ]


@pytest.mark.parametrize(
    "lines",
    [
        pytest.param(_matrix_lines()[:-3], id="missing-cells"),
        pytest.param(_matrix_lines()[:1], id="header-only"),
        pytest.param(None, id="missing-file"),
        pytest.param(_matrix_lines() + _matrix_lines()[-1:], id="duplicated-cell"),
        pytest.param(_matrix_lines()[:-1] + ["cell 2 1 0.0 1.0"], id="action-out-of-range"),
    ],
)
def test_matrix_file_loads_whole_or_not_at_all(tmp_path, capsys, lines):
    matrix = tmp_path / "game.matrix"
    if lines is not None:
        matrix.write_text("\n".join(lines) + "\n")
    path = write_config(tmp_path / "cfg.json", epochs=1)
    cfg = json.loads(path.read_text())
    cfg["env"]["name"] = f"matrix:{matrix}"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: env.name: ")


def test_eval_set_file_names_checked(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.json", epochs=1)
    out = tmp_path / "oa"
    main(["run", str(cfg), "--output", str(out)])
    eval_set = tmp_path / "eval_set"
    eval_set.mkdir()
    policy_text = (out / "checkpoint" / "policies" / "p0_0.txt").read_text()
    (eval_set / "p1_0.txt").write_text(policy_text)
    (eval_set / "pnotes.txt").write_text("not a policy\n")
    argv = ["eval", str(out / "checkpoint"), "--eval-set", str(eval_set)]
    capsys.readouterr()
    assert main(argv) == 0  # pnotes.txt is not a policy file name: skipped
    (eval_set / "p2_0.txt").write_text(policy_text)
    assert main(argv) == 2
    assert "p2_0.txt" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_eval_set_that_is_not_a_directory_is_named(tmp_path, capsys, kind):
    cfg = write_config(tmp_path / "a.json", epochs=1)
    out = tmp_path / "oa"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    eval_set = tmp_path / "eval_set"
    if kind == "file":
        eval_set.write_text("not a directory\n")
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint"), "--eval-set", str(eval_set)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {eval_set}: ")


@pytest.mark.parametrize("env_name", ["rps", "leduc"])
def test_eval_set_action_counts_checked(tmp_path, capsys, env_name):
    cfg = write_config(tmp_path / "a.json", epochs=1)
    config = json.loads(cfg.read_text())
    config["env"]["name"] = env_name
    cfg.write_text(json.dumps(config))
    out = tmp_path / "oa"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    eval_set = tmp_path / "eval_set"
    eval_set.mkdir()
    (eval_set / "p1_0.txt").write_text(policy_to_text(ValuePolicy(QTable(2))))
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint"), "--eval-set", str(eval_set)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p1_0.txt" in err


@pytest.mark.parametrize("case", ["seats-swapped", "rps-policy-in-leduc", "leduc-policy-in-rps"])
def test_eval_set_keys_belong_to_their_seat(tmp_path, capsys, case):
    leduc = tmp_path / "leduc"
    assert main(["run", str(leduc_config(tmp_path / "leduc.json")), "--output", str(leduc)]) == 0
    policies = leduc / "checkpoint" / "policies"
    eval_set = tmp_path / "eval_set"
    eval_set.mkdir()
    run, name, player = leduc, "p0_0.txt", 0
    if case == "seats-swapped":
        (eval_set / "p0_0.txt").write_bytes((policies / "p1_1.txt").read_bytes())
        (eval_set / "p1_0.txt").write_bytes((policies / "p0_1.txt").read_bytes())
    elif case == "rps-policy-in-leduc":
        rps_policy = ValuePolicy(QTable(3, {MATRIX_OBSERVATION: [0.0, 1.0, 0.0]}))
        (eval_set / "p1_0.txt").write_text(policy_to_text(rps_policy))
        name, player = "p1_0.txt", 1
    else:
        run = tmp_path / "rps"
        rps_config = write_config(tmp_path / "rps.json", epochs=1)
        assert main(["run", str(rps_config), "--output", str(run)]) == 0
        (eval_set / "p0_0.txt").write_bytes((policies / "p0_1.txt").read_bytes())
    capsys.readouterr()
    assert main(["eval", str(run / "checkpoint"), "--eval-set", str(eval_set)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {eval_set / name}: ") and f"player {player} " in err


def test_hparam_search_rejects_checkpoint_from_another_game(tmp_path, capsys):
    out = tmp_path / "leduc_run"
    assert main(["run", str(leduc_config(tmp_path / "run.json")), "--output", str(out)]) == 0
    cfg = search_config()
    cfg["opponents"] = {"source": "checkpoint", "path": str(out / "checkpoint")}
    path = tmp_path / "search.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["hparam-search", str(path)]) == 2
    assert "'leduc'" in capsys.readouterr().err
