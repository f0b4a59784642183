"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints a
one-line pass report (visible with ``pytest -s`` or ``-rP``). Run with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json

import numpy as np

import psromix as pm
from psromix.cli import main as cli_main
from psromix.envs import MATRIX_OBSERVATION, estimate_payoffs
from psromix.envs.leduc import LeducEnv
from psromix.exact import analytic_payoffs, seat_keys
from psromix.policies import QTable, ValuePolicy

KEY = MATRIX_OBSERVATION
LEGAL = (0, 1, 2)
ROCK, PAPER, SCISSORS = 0, 1, 2

PI_11 = (0.0, 0.3, 0.7)
PI_12 = (0.4, 0.6, 0.0)
Q21 = np.array([0.7, 0.15, 0.65])
Q22 = np.array([0.2, 0.7, 0.6])
BLOCK = np.array([[0.7, 0.15], [0.2, 0.7]])

# "Exact" analytic assertions allow one ulp of double rounding: the decimal
# constants are not all representable as the sums the contraction produces
# (0.3 + 0.35 lands one ulp under 0.65).
ULP = 1e-15


def report(number, message):
    print(f"[criterion {number}] PASS - {message}")


def rps_fixture():
    env = pm.rps_env()
    pi11 = pm.FixedMixturePolicy(PI_11)
    pi12 = pm.FixedMixturePolicy(PI_12)
    br1, _ = pm.exact_best_response(env, 1, {0: pi11})
    br2, _ = pm.exact_best_response(env, 1, {0: pi12})
    return env, pi11, pi12, br1, br2


def test_criterion_1_golden_pipeline():
    env, pi11, pi12, br1, br2 = rps_fixture()

    # (a) best responses are R then P
    assert br1.greedy_action(MATRIX_OBSERVATION, LEGAL) == ROCK
    assert br2.greedy_action(MATRIX_OBSERVATION, LEGAL) == PAPER

    # (b) analytic Q-vectors
    np.testing.assert_allclose(br1.q.lookup(KEY), Q21, rtol=0, atol=ULP)
    np.testing.assert_allclose(br2.q.lookup(KEY), Q22, rtol=0, atol=ULP)

    # (c) analytic ENFG block, and the simulated block within 0.02
    game = pm.EmpiricalGame(2)
    for policy in (pi11, pi12):
        game.add_policy(0, policy)
    for policy in (br1, br2):
        game.add_policy(1, policy)
    analytic_block = np.empty((2, 2))
    for i, j in itertools.product(range(2), range(2)):
        cell = analytic_payoffs(env, [game.strategy_sets[0][i], game.strategy_sets[1][j]])
        game.payoffs.record((i, j), cell, 1)
        analytic_block[i, j] = cell[1]
    np.testing.assert_allclose(analytic_block, BLOCK, rtol=0, atol=ULP)

    rng = np.random.default_rng(2024)
    simulated_block = np.empty((2, 2))
    for i, j in itertools.product(range(2), range(2)):
        simulated_block[i, j] = estimate_payoffs(
            env, [game.strategy_sets[0][i], game.strategy_sets[1][j]], 10_000, rng
        )[1]
    assert np.abs(simulated_block - BLOCK).max() < 0.02

    # (d) equilibrium of the block
    solution = pm.solve_nash(game)
    assert np.abs(solution.weights(1) - np.array([0.52, 0.48])).max() < 0.01

    # (e) value-mixed opponent plays S; the best response to it is R
    combined = pm.combine_opponents([br1, br2], solution.mixtures[1])
    assert combined.greedy_action(MATRIX_OBSERVATION, LEGAL) == SCISSORS
    next_br, value = pm.exact_best_response(env, 0, {1: combined})
    assert next_br.greedy_action(MATRIX_OBSERVATION, LEGAL) == ROCK
    assert value == 1.0
    report(1, "golden pipeline: BRs R/P, exact Q-vectors, ENFG block, NE (0.52, 0.48), mixed opponent S, next BR R")


def test_criterion_2_tabular_oracle_reproduces_q_values():
    env = pm.rps_env()
    hparams = pm.OracleHParams(
        learning_rate=1e-3,
        discount=0.0,
        total_timesteps=50_000,
        exploration_timesteps=40_000,
    )
    results = []
    for mixture, target, action in (
        (PI_11, Q21, ROCK),
        (PI_12, Q22, PAPER),
    ):
        policy = pm.train_best_response(
            env, 1, {0: pm.FixedMixturePolicy(mixture)}, hparams,
            np.random.default_rng(314),
        )
        learned = policy.q.lookup(KEY)
        assert np.abs(learned - target).max() < 0.02
        assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == action
        results.append(np.abs(learned - target).max())
    report(2, f"tabular oracle Q-errors {results[0]:.4f}, {results[1]:.4f} < 0.02; greedy R then P")


def test_criterion_3_double_oracle_convergence():
    config = pm.RunConfig(
        algorithm="psro", env="rps", mss="nash", epochs=4,
        oracle="exact", analytic_cells=True, seed=11,
    )
    record = pm.run_algorithm(config)
    env = pm.rps_env()
    deviations = [[pm.pure_action_policy(3, a) for a in range(3)]] * 2
    sums = []
    for entry in record.entries:
        populations = [
            record.game.strategy_sets[p][: len(entry.solution.weights(p))]
            for p in range(2)
        ]
        values = pm.regret(env, entry.solution, deviations, populations=populations)
        sums.append(pm.sum_regret(values))
    assert min(sums[1:5]) < 1e-9
    # final solution plays uniform rock-paper-scissors
    blended = np.zeros(3)
    for index, weight in enumerate(record.solution.weights(0)):
        probs = record.game.strategy_sets[0][index].action_probabilities(
            MATRIX_OBSERVATION, LEGAL
        )
        blended += weight * np.asarray(probs)
    np.testing.assert_allclose(blended, np.full(3, 1 / 3), rtol=0, atol=1e-12)
    report(3, f"underlying SumRegret by epoch: {['%.1e' % s for s in sums]}; final play uniform")


def test_criterion_4_expand_enfg_efficiency():
    env = pm.rps_env()
    game = pm.EmpiricalGame(2)
    for player in range(2):
        for _ in range(2):
            game.add_policy(player, pm.uniform_random_policy(3))
    counter = pm.SimulationCounter()
    pm.expand_enfg(game, env, 6, np.random.default_rng(0), counter)
    assert counter.eval_episodes == 4 * 6
    for player in range(2):
        game.add_policy(player, pm.uniform_random_policy(3))
    counter = pm.SimulationCounter()
    pm.expand_enfg(game, env, 6, np.random.default_rng(1), counter)
    assert counter.eval_episodes == 5 * 6  # exactly the five highlighted cells

    rng = np.random.default_rng(99)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        old = rng.integers(1, 4, size=n)
        new = old + rng.integers(0, 3, size=n)
        game = pm.EmpiricalGame(n)
        for player, size in enumerate(old):
            for _ in range(size):
                game.add_policy(player, None)
        for profile in itertools.product(*(range(k) for k in old)):
            game.payoffs.record(profile, np.zeros(n), 1)
        for player in range(n):
            for _ in range(new[player] - old[player]):
                game.add_policy(player, None)
        expected = int(np.prod(new)) - int(np.prod(old))
        assert len(game.missing_profiles()) == expected
    report(4, "2x2->3x3 simulates exactly 5 cells; product-set difference verified to 4 players")


def test_criterion_5_simulation_budget_claim():
    budget = 1_500
    hparams = pm.OracleHParams(
        learning_rate=5e-3, discount=0.0,
        total_timesteps=budget, exploration_timesteps=budget // 2,
    )
    finals = {algorithm: [] for algorithm in ("psro", "mixed-oracles", "mixed-opponents")}
    for algorithm in finals:
        for seed in range(5):
            config = pm.RunConfig(
                algorithm=algorithm, env="rps", mss="nash", epochs=6,
                episodes_per_cell=30, oracle="tabular",
                pure_hparams=hparams, mix_hparams=hparams, seed=seed,
            )
            record = pm.run_algorithm(config)
            if algorithm != "psro":
                deltas = [
                    record.entries[i].train_steps - record.entries[i - 1].train_steps
                    for i in range(1, len(record.entries))
                ]
                assert deltas == [2 * budget] * 6  # pure budget per epoch exactly
            finals[algorithm].append(record.entries[-1].sum_regret)
    psro_mean = float(np.mean(finals["psro"]))
    for algorithm in ("mixed-oracles", "mixed-opponents"):
        assert float(np.mean(finals[algorithm])) <= psro_mean + 0.05
    report(
        5,
        "per-epoch counters equal the pure budget; mean final ENFG SumRegret "
        f"psro {psro_mean:.3g}, mixed-oracles {np.mean(finals['mixed-oracles']):.3g}, "
        f"mixed-opponents {np.mean(finals['mixed-opponents']):.3g}",
    )


def test_criterion_6_q_mixing_linearity():
    rng = np.random.default_rng(606)
    keys = [bytes([k]) for k in range(5)]
    for _ in range(1_000):
        n_components = int(rng.integers(1, 5))
        n_actions = int(rng.integers(2, 5))
        tables = [
            QTable(n_actions, {k: rng.normal(size=n_actions) for k in keys if rng.random() < 0.6})
            for _ in range(n_components)
        ]
        weights = rng.dirichlet(np.ones(n_components))
        mixture = pm.MixedQPolicy(tables, weights)
        key = keys[int(rng.integers(len(keys)))]
        expected = np.zeros(n_actions)
        for weight, table in zip(weights, tables):
            expected = expected + weight * table.lookup(key)
        assert np.abs(mixture.lookup(key) - expected).max() < 1e-12
        solo_index = int(rng.integers(n_components))
        solo = np.zeros(n_components)
        solo[solo_index] = 1.0
        solo_mixture = pm.MixedQPolicy(tables, solo)
        assert np.array_equal(solo_mixture.lookup(key), tables[solo_index].lookup(key))
    report(6, "1000 random mixtures: linearity within 1e-12, weight-1 identity exact")


def test_criterion_7_leduc_integrity():
    env = LeducEnv()
    rng = np.random.default_rng(707)
    policies = [pm.uniform_random_policy(3), pm.uniform_random_policy(3)]
    for episode in range(10_000):
        returns = pm.simulate_episode(env, policies, rng, first_player=episode % 2)
        assert returns.sum() == 0.0

    for seat in range(2):
        for key in seat_keys(env, seat)[0]:
            assert len(key) == 30
            assert set(key).issubset({0, 1})

    from test_leduc import enumerate_information_states

    states = enumerate_information_states(env)
    assert len(states) == 1872
    report(7, "10^4 episodes sum to 0 exactly; 30-bit binary observations; 1872 info states, keys injective")


def test_criterion_8_regret_properties():
    rng = np.random.default_rng(808)
    for _ in range(1_000):
        tensor = rng.random((3, 3, 2))
        env = pm.envs.MatrixGameEnv(tensor)
        populations = [
            [pm.FixedMixturePolicy(rng.dirichlet(np.ones(3))) for _ in range(2)]
            for _ in range(2)
        ]
        sigma = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        eval_set = [[pm.FixedMixturePolicy(rng.dirichlet(np.ones(3)))] for _ in range(2)]
        clipped = pm.proxy_regret(
            env, sigma, psro_set=[[], []], eval_set=eval_set, populations=populations
        )
        assert (clipped >= 0.0).all()

        small = [[eval_set[p][0]] for p in range(2)]
        big = [
            [eval_set[p][0], pm.FixedMixturePolicy(rng.dirichlet(np.ones(3)))]
            for p in range(2)
        ]
        r_small = pm.regret(env, sigma, small, populations=populations)
        r_big = pm.regret(env, sigma, big, populations=populations)
        assert (r_big >= r_small - 1e-12).all()

    def one_hot_table(action):
        return QTable(3, {KEY: np.eye(3)[action]})

    policies = [ValuePolicy(one_hot_table(a % 3)) for a in range(4)]
    rep = pm.similarity_report(policies, pm.rps_env())
    assert np.allclose(np.diag(rep.agreement), 1.0)
    assert np.array_equal(rep.agreement, rep.agreement.T)
    report(8, "1000 proxy-regret clips >= 0; 1000 monotonic enlargements; similarity symmetric, unit diagonal")


def test_criterion_9_run_determinism_across_workers(tmp_path):
    curves = {}
    for workers in (1, 2, 4):
        config = {
            "run": {
                "algorithm": "mixed-opponents",
                "epochs": 3,
                "episodes_per_cell": 10,
                "seed": 909,
                "workers": workers,
            },
            "env": {"name": "rps"},
            "mss": {"name": "nash"},
            "oracle": {
                "kind": "tabular",
                "pure": {
                    "learning_rate": 5e-3, "discount": 0.0,
                    "total_timesteps": 500, "exploration_timesteps": 250,
                },
                "mix": {
                    "learning_rate": 5e-3, "discount": 0.0,
                    "total_timesteps": 500, "exploration_timesteps": 250,
                },
            },
        }
        path = tmp_path / f"w{workers}.json"
        path.write_text(json.dumps(config))
        for attempt in range(2):
            out = tmp_path / f"out-w{workers}-{attempt}"
            assert cli_main(["run", str(path), "--output", str(out)]) == 0
            curves[(workers, attempt)] = (out / "regret_curve.tsv").read_bytes()
    reference = curves[(1, 0)]
    assert all(curve == reference for curve in curves.values())
    report(9, "regret-curve exports byte-identical across reruns and worker counts 1, 2, 4")
