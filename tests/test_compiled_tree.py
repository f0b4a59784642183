"""The compiled game tree against the per-step episode API.

``train_best_response`` and ``simulate_episode`` walk each environment's
compiled nodes directly. The reference below is the training loop as it ran
through ``reset`` / ``observation`` / ``legal_actions`` / ``step`` before
that, drawing each double with one ``random()`` call: the walk, which reads
its doubles in chunks, must give the same learner rows bit for bit and the
same step count. The matrix tree is checked cell by cell
against the payoff tensor and the episode cursor that ``reset`` returns.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix import oracle
from psromix.envs import (
    CALL,
    FOLD,
    MATRIX_OBSERVATION,
    LeducEnv,
    MatrixGameEnv,
    estimate_payoffs,
    make_env,
    rps_env,
    save_matrix_env,
    simulate_episode,
)
from psromix.errors import IllegalAction
from psromix.oracle import (
    OracleHParams,
    SimulationCounter,
    TabularOracle,
    epsilon_at,
    train_best_response,
)
from psromix.policies import (
    FixedMixturePolicy,
    QTable,
    ValuePolicy,
    greedy_over,
    pure_action_policy,
    uniform_random_policy,
)


def episode_state_train_best_response(
    env, learner, opponents, hparams, rng, counter=None, opponent_rng=None
):
    """``train_best_response`` on the per-step episode API: one ``reset``
    per episode, then ``observation``, ``legal_actions`` and ``step`` per
    step, with every step's reward vector added into the learner's sum."""
    provider = opponents if callable(opponents) else lambda random: opponents
    opponent_random = (rng if opponent_rng is None else opponent_rng).random
    n_actions = env.action_count(learner)
    default_row = [0.0] * n_actions
    rows: dict[bytes, list[float]] = {}
    get_row = rows.get
    memos: dict[object, dict | None] = {}
    random = rng.random
    gamma = hparams.discount
    lr = hparams.learning_rate
    total = hparams.total_timesteps
    t = 0
    episode = 0

    while t < total:
        opponent_policies = provider(opponent_random)
        state = env.reset(rng, first_player=episode % 2)
        episode += 1
        pending_key = None
        pending_action = 0
        acc_reward = 0.0
        while not state.terminal:
            player = state.player
            key = state.observation(player)
            legal = state.legal_actions(player)
            if player == learner:
                if pending_key is not None:
                    row = get_row(pending_key)
                    if row is None:
                        row = rows[pending_key] = default_row.copy()
                    bootstrap = max(get_row(key, default_row)[a] for a in legal)
                    target = float(acc_reward) + gamma * bootstrap
                    row[pending_action] += lr * (target - row[pending_action])
                    pending_key = None
                    acc_reward = 0.0
                    if t >= total:
                        break
                epsilon = epsilon_at(t, hparams)
                if epsilon > 0.0 and random() < epsilon:
                    action = legal[int(random() * len(legal))]
                else:
                    action = greedy_over(get_row(key, default_row), legal)
                pending_key, pending_action = key, action
                t += 1
            else:
                policy = opponent_policies[player]
                try:
                    memo = memos[policy]
                except KeyError:
                    # Only a greedy value policy is memoized: it draws nothing.
                    greedy = isinstance(policy, ValuePolicy) and policy.epsilon == 0.0
                    memo = memos[policy] = {} if greedy else None
                if memo is None:
                    action = policy.act(key, legal, rng)
                else:
                    action = memo.get((key, legal))
                    if action is None:
                        action = memo[key, legal] = policy.act(key, legal, rng)
            rewards = state.step(action)
            if pending_key is not None:
                acc_reward += rewards[learner]
        if pending_key is not None:
            row = get_row(pending_key)
            if row is None:
                row = rows[pending_key] = default_row.copy()
            row[pending_action] += lr * (float(acc_reward) - row[pending_action])
    if counter is not None:
        counter.train_steps += t
    return ValuePolicy(QTable(n_actions, rows))


# -- training equivalence ---------------------------------------------------


def _three_player_tensor():
    return np.random.default_rng(5).integers(-3, 4, size=(2, 3, 2, 3)).astype(float)


@pytest.fixture(scope="module")
def envs(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "three.matrix"
    save_matrix_env(MatrixGameEnv(_three_player_tensor()), path)
    return {"leduc": LeducEnv(), "rps": rps_env(), "matrix3": make_env(f"matrix:{path}")}


@pytest.fixture(scope="module")
def greedy_by_seat(envs):
    """Per environment, a greedy policy per seat, trained by the reference
    loop against uniform opponents."""
    budget = OracleHParams(
        learning_rate=0.1, discount=1.0, total_timesteps=600, exploration_timesteps=400
    )
    policies = {}
    for name, env in envs.items():
        seats = range(env.n_players)
        policies[name] = [
            episode_state_train_best_response(
                env,
                seat,
                {o: uniform_random_policy(env.action_count(o)) for o in seats if o != seat},
                budget,
                np.random.default_rng(30 + seat),
            )
            for seat in seats
        ]
    return policies


def _train(train, env, learner, kind, greedy, hparams, seed):
    """One training call by ``train``: against greedy or epsilon-0.3
    opponents, or through ``respond_mixture`` over three policies per seat."""
    rng, opponent_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    counter = SimulationCounter()
    others = [seat for seat in range(env.n_players) if seat != learner]
    if kind == "mixture":
        mixtures = {
            seat: (
                [
                    greedy[seat],
                    ValuePolicy(greedy[seat].q, epsilon=0.3),
                    uniform_random_policy(env.action_count(seat)),
                ],
                [0.5, 0.2, 0.3],
            )
            for seat in others
        }
        with mock.patch.object(oracle, "train_best_response", train):
            policy = TabularOracle(hparams, hparams).respond_mixture(
                env, learner, mixtures, rng, counter, opponent_rng
            )
    else:
        epsilon = 0.0 if kind == "greedy" else 0.3
        opponents = {seat: ValuePolicy(greedy[seat].q, epsilon=epsilon) for seat in others}
        policy = train(env, learner, opponents, hparams, rng, counter, opponent_rng)
    rows = {key: np.asarray(policy.q.lookup(key)).tobytes() for key in policy.q.known_keys()}
    return list(rows.items()), counter.train_steps


@settings(max_examples=200, deadline=None)
@given(
    env_name=st.sampled_from(["leduc", "rps", "matrix3"]),
    kind=st.sampled_from(["greedy", "epsilon", "mixture"]),
    learner=st.integers(0, 2),
    total=st.integers(1, 400),
    ramp=st.sampled_from(["none", "below", "at", "above"]),
    discount=st.sampled_from([0.0, 0.9, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_compiled_training_equals_the_episode_state_loop(
    envs, greedy_by_seat, env_name, kind, learner, total, ramp, discount, seed
):
    env = envs[env_name]
    learner %= env.n_players
    exploration = {"none": 0, "below": total // 2, "at": total, "above": total}[ramp]
    hparams = OracleHParams(
        learning_rate=0.05,
        discount=discount,
        total_timesteps=total,
        exploration_timesteps=exploration,
    )
    if ramp == "above":
        # The config rules forbid a ramp past the budget; the loop must still
        # follow epsilon_at over it.
        hparams.exploration_timesteps = total + 50
    greedy = greedy_by_seat[env_name]
    compiled = _train(train_best_response, env, learner, kind, greedy, hparams, seed)
    reference = _train(episode_state_train_best_response, env, learner, kind, greedy, hparams, seed)
    assert compiled == reference
    assert compiled[1] == total


def test_compiled_training_raises_illegal_action_where_the_step_did():
    class Rogue:
        """Calls 50 times, then folds: illegal once it is not facing a bet."""

        def __init__(self):
            self.calls = 0

        def act(self, obs, legal, rng):
            self.calls += 1
            return CALL if self.calls <= 50 else FOLD

    hparams = OracleHParams(total_timesteps=500, exploration_timesteps=50)
    errors = []
    for train in (train_best_response, episode_state_train_best_response):
        rng = np.random.default_rng(4)
        rogue = Rogue()
        with pytest.raises(IllegalAction) as info:
            train(LeducEnv(), 1, {0: rogue}, hparams, rng)
        errors.append((str(info.value), rogue.calls))
    assert errors[0] == errors[1]
    assert errors[0][1] > 50


def _terminal_nodes(env):
    """Every terminal node reachable from either seating's root."""
    seen, stack, terminals = set(), list(env.roots), []
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        if node.terminal:
            terminals.append(node)
        stack.extend(node.children.values())
    return terminals


@pytest.mark.parametrize("env_name", ["leduc", "rps", "matrix3"])
def test_terminal_returns_are_the_rewards_as_python_floats(envs, env_name):
    terminals = _terminal_nodes(envs[env_name])
    assert terminals
    for node in terminals:
        assert len(node.returns) == len(node.rewards)
        for returns, rewards in zip(node.returns, node.rewards):
            assert len(returns) == len(rewards)
            for value, reward in zip(returns, rewards):
                assert type(value) is float
                assert value == float(reward)
                assert value.hex() == float(reward).hex()


# -- the compiled matrix tree -------------------------------------------------


def _cursor_rewards(env, joint):
    state = env.reset(np.random.default_rng(0))
    for action in joint:
        rewards = state.step(action)
    assert state.terminal
    return rewards


def test_matrix_tree_has_one_node_per_joint_action_prefix():
    env = MatrixGameEnv(_three_player_tensor())
    nodes, stack = [], [env.roots[0]]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children.values())
    assert env.roots[0] is env.roots[1]
    assert sorted(node.id for node in nodes) == list(range(1 + 2 + 2 * 3 + 2 * 3 * 2))
    assert sum(node.terminal for node in nodes) == 2 * 3 * 2
    deal = env.draw_deal(np.random.default_rng(0))
    assert all(view[node.id] is MATRIX_OBSERVATION for view in deal.views for node in nodes)


@pytest.mark.parametrize("env", [rps_env(), MatrixGameEnv(_three_player_tensor())],
                         ids=["rps", "three-player"])
def test_matrix_walk_gives_the_cursor_and_tensor_rewards(env):
    for joint in itertools.product(*(range(k) for k in env.action_counts)):
        seated = [pure_action_policy(k, a) for k, a in zip(env.action_counts, joint)]
        rng = np.random.default_rng(0)
        walked = simulate_episode(env, seated, rng)
        cursor = _cursor_rewards(env, joint)
        cell = env.payoff_tensor[joint]
        assert walked.tobytes() == cursor.tobytes() == cell.tobytes()
        assert not cursor.flags.writeable


def test_matrix_illegal_action_raises_at_the_same_step():
    env = MatrixGameEnv(_three_player_tensor())

    class Recording:
        def __init__(self, action, log):
            self.action, self.log = action, log

        def act(self, obs, legal, rng):
            self.log.append(self)
            return self.action

    for seat in range(env.n_players):
        for illegal in (-1, env.action_counts[seat]):
            log = []
            seated = [Recording(0, log) for _ in range(env.n_players)]
            seated[seat] = Recording(illegal, log)
            with pytest.raises(IllegalAction) as walked:
                simulate_episode(env, seated, np.random.default_rng(0))
            assert log == seated[: seat + 1]

            state = env.reset(np.random.default_rng(0))
            for _ in range(seat):
                state.step(0)
            with pytest.raises(IllegalAction) as stepped:
                state.step(illegal)
            assert state.player == seat and str(stepped.value) == str(walked.value)


def test_rps_payoff_estimate_is_unchanged():
    # Pinned when every episode of a cell came to draw on the cell's one
    # generator (the value 0.486 / 0.514).
    profile = [FixedMixturePolicy([0.2, 0.5, 0.3]), uniform_random_policy(3)]
    value = estimate_payoffs(rps_env(), profile, 500, np.random.default_rng(9))
    assert [float(v).hex() for v in value] == ["0x1.f1a9fbe76c8b4p-2", "0x1.072b020c49ba6p-1"]
