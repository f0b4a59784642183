import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.envs import (
    MATRIX_OBSERVATION,
    Environment,
    LeducEnv,
    rps_env,
)
from psromix.envs.base import Deal, EpisodeState, Node, compile_tree
from psromix.envs.matrix import MatrixGameEnv
from psromix.errors import IllegalAction, WrongEnvironment
from psromix.evaluation import proxy_regret, regret
from psromix.exact import exact_best_response
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
from psromix.qmixing import combine_opponents
from psromix.serialize import policy_to_text

KEY = MATRIX_OBSERVATION
LEGAL = (0, 1, 2)


def hp(**overrides):
    base = dict(
        learning_rate=0.1,
        discount=0.0,
        total_timesteps=50_000,
        exploration_timesteps=40_000,
    )
    base.update(overrides)
    return OracleHParams(**base)


def test_epsilon_decay_endpoints_and_midpoint():
    params = hp(exploration_timesteps=10_000, total_timesteps=20_000)
    assert epsilon_at(0, params) == 1.0
    assert epsilon_at(10_000, params) == pytest.approx(0.03)
    assert epsilon_at(20_000, params) == pytest.approx(0.03)
    assert epsilon_at(5_000, params) == pytest.approx(0.515)


def test_hparams_validation():
    with pytest.raises(ValueError):
        OracleHParams(learning_rate=0.0)
    with pytest.raises(ValueError):
        OracleHParams(discount=1.5)
    with pytest.raises(ValueError):
        OracleHParams(total_timesteps=10, exploration_timesteps=20)


def test_train_vs_pure_rock_one_shot():
    env = rps_env()
    policy = train_best_response(
        env, 1, {0: pure_action_policy(3, 0)}, hp(), np.random.default_rng(9)
    )
    values = policy.q.lookup(KEY)
    assert np.abs(values - np.array([0.5, 1.0, 0.0])).max() < 0.02
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 1  # paper


def test_train_vs_first_reference_mixture():
    env = rps_env()
    policy = train_best_response(
        env,
        1,
        {0: FixedMixturePolicy([0.0, 0.3, 0.7])},
        hp(learning_rate=1e-3),
        np.random.default_rng(7),
    )
    values = policy.q.lookup(KEY)
    assert np.abs(values - np.array([0.7, 0.15, 0.65])).max() < 0.02
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0


def test_train_vs_second_reference_mixture():
    env = rps_env()
    policy = train_best_response(
        env,
        1,
        {0: FixedMixturePolicy([0.4, 0.6, 0.0])},
        hp(learning_rate=1e-3),
        np.random.default_rng(8),
    )
    values = policy.q.lookup(KEY)
    assert np.abs(values - np.array([0.2, 0.7, 0.6])).max() < 0.02
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 1


def test_budget_zero_and_exact_step_accounting():
    env = rps_env()
    with pytest.raises(ValueError, match="total_timesteps must be an integer >= 1"):
        hp(total_timesteps=0, exploration_timesteps=0)
    counter = SimulationCounter()
    train_best_response(
        env,
        1,
        {0: pure_action_policy(3, 0)},
        hp(total_timesteps=1234, exploration_timesteps=1000),
        np.random.default_rng(0),
        counter,
    )
    assert counter.train_steps == 1234


def test_exact_budget_on_multistep_episodes():
    counter = SimulationCounter()
    train_best_response(
        LeducEnv(),
        0,
        {1: pure_action_policy(3, 1)},
        hp(discount=1.0, total_timesteps=777, exploration_timesteps=500),
        np.random.default_rng(1),
        counter,
    )
    assert counter.train_steps == 777


class RecordingPolicy:
    """Plays action 0 and records its label each time it is asked to act."""

    def __init__(self, label, log):
        self.label, self.log = label, log

    def act(self, observation, legal_actions, rng):
        self.log.append(self.label)
        return 0


def test_mixture_draws_match_searchsorted():
    # One opponent draw per one-step episode, compared with np.searchsorted
    # (side="right") over the cumsum, zero weights and all.
    weights = [0.25, 0.0, 0.45, 0.0, 0.3]
    log = []
    opponents = [RecordingPolicy(i, log) for i in range(len(weights))]
    oracle = TabularOracle(hp(), hp(total_timesteps=400, exploration_timesteps=100))
    oracle.respond_mixture(
        rps_env(), 1, {0: (opponents, weights)}, np.random.default_rng(0),
        SimulationCounter(), np.random.default_rng(5),
    )
    replay = np.random.default_rng(5)
    cumulative = np.cumsum(weights)
    expected = [int(np.searchsorted(cumulative, replay.random(), side="right")) for _ in log]
    assert len(log) == 400 and log == expected
    assert set(log) == {0, 2, 4}


@pytest.mark.parametrize("own_stream", [True, False])
def test_provider_reads_the_opponent_stream_and_act_gets_the_train_stream(own_stream):
    # A provider draws the opponent stream's doubles (the train stream's when
    # there is none), and a policy that is asked to act gets the train
    # stream's generator. The learner never explores, so on the train stream
    # an RPS episode draws the provider's double, if it is there, then the
    # deal's.
    rng = np.random.default_rng(0)
    opponent_rng = np.random.default_rng(1) if own_stream else None
    provided, acted = [], []

    class Recording:
        def act(self, observation, legal_actions, given):
            acted.append(given)
            return 0

    def provider(random):
        provided.append(random())
        return {1: Recording()}

    budget = hp(total_timesteps=20, exploration_timesteps=10, epsilon_start=0.0, epsilon_end=0.0)
    train_best_response(rps_env(), 0, provider, budget, rng, opponent_rng=opponent_rng)
    assert len(provided) == len(acted) == 20
    assert all(given is rng for given in acted)
    if own_stream:
        assert provided == np.random.default_rng(1).random(20).tolist()
    else:
        assert provided == np.random.default_rng(0).random(40)[::2].tolist()


class _Decision(Node):
    __slots__ = ("taken",)


def _repeated_key_node(taken):
    """One player, two decisions under one key. The first allows only action
    0; at the second, action 0 loses 1 and action 1 wins 1."""
    node = _Decision(0 if len(taken) < 2 else None, ((0,),) if not taken else ((0, 1),))
    node.taken = taken
    if node.terminal:
        node.rewards = (np.array([-1.0 if taken[1] == 0 else 1.0]),)
    return node


class RepeatedKeyEnv(Environment):
    name = "repeated-key"
    n_players = 1

    def __init__(self):
        root = _repeated_key_node(())
        nodes = compile_tree((root,), lambda node, a: _repeated_key_node(node.taken + (a,)))
        self.roots = (root, root)
        self.deals = (Deal(((b"k",) * len(nodes),)),)

    def action_count(self, player):
        return 2


def test_greedy_action_reads_the_update_to_a_repeated_key():
    # Greedy throughout, two episodes. The first ties at the second decision,
    # plays 0 and leaves [-1, 0]. In the second, the update at the second
    # decision (to max(-1, 0) = 0) lands on the key being acted on, so the
    # greedy choice must see the tie [0, 0] and play 0 again, leaving
    # [-1, 0]. A choice read before the update would play 1 and leave [0, 1].
    hparams = OracleHParams(
        learning_rate=1.0, discount=1.0, total_timesteps=4,
        exploration_timesteps=0, epsilon_end=0.0,
    )
    policy = train_best_response(RepeatedKeyEnv(), 0, {}, hparams, np.random.default_rng(0))
    assert policy.q.lookup(b"k").tolist() == [-1.0, 0.0]


def test_leduc_training_learns_something():
    # Against an always-call opponent the learner should beat folding always.
    env = LeducEnv()
    policy = train_best_response(
        env,
        0,
        {1: pure_action_policy(3, 1)},
        hp(discount=1.0, learning_rate=0.05, total_timesteps=30_000, exploration_timesteps=20_000),
        np.random.default_rng(4),
    )
    from psromix.envs import estimate_payoffs

    value = estimate_payoffs(env, [policy, pure_action_policy(3, 1)], 2_000, np.random.default_rng(5))
    assert value[0] > 0.0


def test_greedy_determinism():
    env = rps_env()
    policy = train_best_response(
        env, 1, {0: pure_action_policy(3, 0)}, hp(total_timesteps=500, exploration_timesteps=400),
        np.random.default_rng(2),
    )
    actions = {policy.greedy_action(MATRIX_OBSERVATION, LEGAL) for _ in range(10)}
    assert len(actions) == 1


def test_training_on_matrix_game_rejects_illegal_opponent_action():
    class Rogue:
        def act(self, obs, legal, rng):
            return 3

    with pytest.raises(IllegalAction):
        train_best_response(
            rps_env(), 0, {1: Rogue()}, hp(total_timesteps=10, exploration_timesteps=5),
            np.random.default_rng(0),
        )


def test_exact_best_response_vs_pure_scissors():
    env = rps_env()
    policy, value = exact_best_response(env, 0, {1: FixedMixturePolicy([0.0, 0.0, 1.0])})
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0
    assert value == 1.0


def test_exact_best_response_vs_reference_mixture():
    env = rps_env()
    policy, value = exact_best_response(env, 1, {0: FixedMixturePolicy([0.0, 0.3, 0.7])})
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0
    assert value == pytest.approx(0.7, abs=1e-15)


def test_exact_best_response_vs_uniform_tie_rule():
    env = rps_env()
    policy, value = exact_best_response(env, 1, {0: FixedMixturePolicy(np.full(3, 1 / 3))})
    assert value == pytest.approx(0.5)
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0
    assert policy.q.lookup(KEY) == pytest.approx([0.5, 0.5, 0.5])


def test_exact_best_response_policy_mixture_blending():
    env = rps_env()
    components = [pure_action_policy(3, 0), pure_action_policy(3, 1)]
    policy, _ = exact_best_response(env, 1, {0: (components, np.array([0.5, 0.5]))})
    # Facing half rock, half paper: E[R]=0.25, E[P]=0.75, E[S]=0.5.
    values = policy.q.lookup(KEY)
    assert values == pytest.approx([0.25, 0.75, 0.5])
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 1


class _WrappedLeduc(Environment):
    """Leduc behind a delegating wrapper: the same game, but not one that
    ``has_exact_values`` recognises."""

    name = "wrapped-leduc"
    n_players = 2

    def action_count(self, player):
        return 3

    def reset(self, rng, first_player=0):
        return LeducEnv().reset(rng, first_player)


_UNIFORM = uniform_random_policy(3)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda env: exact_best_response(env, 0, {1: _UNIFORM}), id="exact_best_response"
        ),
        pytest.param(
            lambda env: regret(
                env, [[1.0], [1.0]], [[_UNIFORM], [_UNIFORM]],
                populations=[[_UNIFORM], [_UNIFORM]],
            ),
            id="regret",
        ),
        pytest.param(
            lambda env: proxy_regret(
                env, [[1.0], [1.0]], [[_UNIFORM], [_UNIFORM]], [[], []],
                populations=[[_UNIFORM], [_UNIFORM]],
            ),
            id="proxy_regret",
        ),
    ],
)
def test_env_without_exact_values_rejected(call):
    with pytest.raises(WrongEnvironment):
        call(_WrappedLeduc())


@pytest.mark.parametrize("env", [rps_env(), LeducEnv()], ids=["rps", "leduc"])
def test_exact_best_response_rejects_a_missing_opponent(env):
    with pytest.raises(ValueError, match="an opponent is a policy .* got None"):
        exact_best_response(env, 0, {})


def test_three_player_exact_best_response():
    rng = np.random.default_rng(0)
    env = MatrixGameEnv(rng.random((2, 3, 2, 3)))
    policy, value = exact_best_response(
        env, 1, {0: FixedMixturePolicy([0.5, 0.5]), 2: FixedMixturePolicy([1.0, 0.0])}
    )
    tensor = env.payoff_tensor[..., 1]
    expected = 0.5 * tensor[0, :, 0] + 0.5 * tensor[1, :, 0]
    assert policy.q.lookup(KEY) == pytest.approx(list(expected))
    assert value == pytest.approx(expected.max())


@st.composite
def matrix_opponents(draw):
    """A random 2- or 3-player tensor, a learner, and each opponent's
    distribution, given as a vector (for the brute-force sum), a bare policy
    and a weighted mixture."""
    n_players = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(n_players))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tensor = rng.standard_normal(shape + (n_players,))
    learner = draw(st.integers(0, n_players - 1))
    forms = {}
    for player in range(n_players):
        if player == learner:
            continue
        components = [FixedMixturePolicy(rng.dirichlet(np.ones(shape[player]))) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        weights[draw(st.integers(0, 2))] = 0.0
        weights /= weights.sum()
        blended = sum(w * c.probs for w, c in zip(weights, components))
        forms[player] = (blended, FixedMixturePolicy(blended), (components, weights))
    return tensor, learner, forms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrix_opponents())
def test_exact_best_response_equals_brute_force_sum(case):
    tensor, learner, forms = case
    env = MatrixGameEnv(tensor)
    dists = {player: form[0] for player, form in forms.items()}
    expected = np.zeros(tensor.shape[learner])
    for joint in itertools.product(*(range(k) for k in tensor.shape[:-1])):
        prob = np.prod([dists[p][a] for p, a in enumerate(joint) if p != learner])
        expected[joint[learner]] += prob * tensor[joint][learner]
    for form in (1, 2):
        policy, value = exact_best_response(
            env, learner, {player: forms[player][form] for player in forms}
        )
        assert policy.q.lookup(KEY) == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(expected.max(), abs=1e-12)


def test_convergence_matches_exact_oracle_when_gap_clear():
    rng = np.random.default_rng(123)
    env_rng = np.random.default_rng(456)
    checked = 0
    for _ in range(30):
        tensor = env_rng.random((3, 3, 2))
        env = MatrixGameEnv(tensor)
        mixture = env_rng.dirichlet(np.ones(3))
        exact_policy, _ = exact_best_response(env, 1, {0: FixedMixturePolicy(mixture)})
        values = exact_policy.q.lookup(KEY)
        top2 = np.sort(values)[-2:]
        if top2[1] - top2[0] <= 0.05:
            continue
        checked += 1
        trained = train_best_response(
            env,
            1,
            {0: FixedMixturePolicy(mixture)},
            hp(learning_rate=2e-3, total_timesteps=20_000, exploration_timesteps=15_000),
            rng,
        )
        assert trained.greedy_action(MATRIX_OBSERVATION, LEGAL) == exact_policy.greedy_action(
            MATRIX_OBSERVATION, LEGAL
        )
    assert checked >= 10


def reference_train_best_response(
    env, learner, opponents, hparams, rng, counter=None, opponent_rng=None
):
    """``train_best_response`` as it was before opponents were memoized and
    the learner's rows became lists, drawing one ``random()`` at a time:
    every opponent acts at every step, and the learner updates float64 rows
    in place. The provider is given ``opponent_rng.random`` (``rng.random``
    when that is None), each episode's deal is ``env.deals[int(u *
    len(env.deals))]`` and the learner's uniform action ``legal[int(u *
    len(legal))]``. The rows are kept in a plain dict, a zero row made on a
    key's first update, and become a QTable once, at the end."""
    provider = opponents if callable(opponents) else lambda random: opponents
    opponent_random = (rng if opponent_rng is None else opponent_rng).random
    n_actions = env.action_count(learner)
    rows: dict[bytes, np.ndarray] = {}
    unseen = np.zeros(n_actions)
    t = 0
    episode = 0
    while t < hparams.total_timesteps:
        opponent_policies = provider(opponent_random)
        deal = env.deals[int(rng.random() * len(env.deals))]
        state = EpisodeState(deal, env.roots[episode % 2])
        episode += 1
        pending_key = None
        pending_action = 0
        acc_reward = 0.0
        while not state.terminal:
            player = state.player
            if player == learner:
                key = state.observation(player)
                legal = state.legal_actions(player)
                if pending_key is not None:
                    vec = rows.setdefault(pending_key, np.zeros(n_actions))
                    bootstrap = max(rows.get(key, unseen)[a] for a in legal)
                    target = acc_reward + hparams.discount * bootstrap
                    vec[pending_action] += hparams.learning_rate * (target - vec[pending_action])
                    pending_key = None
                    acc_reward = 0.0
                    if t >= hparams.total_timesteps:
                        break
                epsilon = epsilon_at(t, hparams)
                if epsilon > 0.0 and rng.random() < epsilon:
                    action = legal[int(rng.random() * len(legal))]
                else:
                    action = greedy_over(rows.get(key, unseen), legal)
                pending_key, pending_action = key, action
                t += 1
            else:
                action = opponent_policies[player].act(
                    state.observation(player), state.legal_actions(player), rng
                )
            rewards = state.step(action)
            if pending_key is not None:
                acc_reward += rewards[learner]
        if pending_key is not None:
            vec = rows.setdefault(pending_key, np.zeros(n_actions))
            vec[pending_action] += hparams.learning_rate * (acc_reward - vec[pending_action])
    if counter is not None:
        counter.train_steps += t
    return ValuePolicy(QTable(n_actions, rows))


def _psro_provider(mixtures):
    """One policy per opponent drawn per episode, in ``mixtures`` order, as
    TabularOracle.respond_mixture draws: ``mixtures`` maps each opponent to a
    ``(policies, weights)`` pair."""
    seats = [
        (opponent, policies, np.cumsum(weights))
        for opponent, (policies, weights) in mixtures.items()
    ]
    return lambda random: {
        opponent: policies[int(np.searchsorted(cumulative, random(), side="right"))]
        for opponent, policies, cumulative in seats
    }


def _opponents_of_each_kind(env, opponent, fixed_probs):
    """A greedy trained policy, the same at epsilon 0.3, uniform random, a
    fixed mixture, a value mixture, a psro-style draw over those five, the
    trained table at epsilon 1 and the value mixture at epsilon 0.5."""
    budget = hp(discount=1.0, total_timesteps=1500, exploration_timesteps=1000)
    uniform = uniform_random_policy(env.action_count(opponent))
    learner = 1 - opponent
    greedy = reference_train_best_response(
        env, opponent, {learner: uniform}, budget, np.random.default_rng(11)
    )
    other = reference_train_best_response(
        env, opponent, {learner: uniform}, budget, np.random.default_rng(12)
    )
    kinds = {
        "greedy": greedy,
        "epsilon-0.3": ValuePolicy(greedy.q, epsilon=0.3),
        "uniform": uniform,
        "fixed-mixture": FixedMixturePolicy(fixed_probs),
        "value-mixture": combine_opponents([greedy, other, uniform], [0.5, 0.3, 0.2]),
    }
    members = list(kinds.values())
    kinds["psro-draw"] = _psro_provider({opponent: (members, [0.3, 0.2, 0.1, 0.1, 0.3])})
    # Exploring value policies on trained tables: the inline exploration draw.
    kinds["epsilon-1-trained"] = ValuePolicy(greedy.q, epsilon=1.0)
    kinds["value-mixture-epsilon-0.5"] = ValuePolicy(kinds["value-mixture"].q, epsilon=0.5)
    return {
        name: policy if callable(policy) else {opponent: policy}
        for name, policy in kinds.items()
    }


OPPONENT_KINDS = (
    "greedy", "epsilon-0.3", "uniform", "fixed-mixture", "value-mixture", "psro-draw",
    "epsilon-1-trained", "value-mixture-epsilon-0.5",
)


@pytest.fixture(scope="module")
def opponents_by_env():
    # In "one-action" the learner (player 0) has a single action, so each of
    # its exploratory actions is integers(1), which draws nothing.
    one_action = MatrixGameEnv(np.random.default_rng(3).random((1, 3, 2)))
    return {
        # Leduc's fixed mixture always calls: FOLD and RAISE are not always legal.
        "leduc": (LeducEnv(), _opponents_of_each_kind(LeducEnv(), 1, [0.0, 1.0, 0.0])),
        "rps": (rps_env(), _opponents_of_each_kind(rps_env(), 1, [0.2, 0.5, 0.3])),
        "one-action": (one_action, _opponents_of_each_kind(one_action, 1, [0.2, 0.5, 0.3])),
    }


@pytest.mark.parametrize("kind", OPPONENT_KINDS)
@pytest.mark.parametrize("env_name", ["leduc", "rps", "one-action"])
def test_training_equals_the_reference_loop(opponents_by_env, env_name, kind):
    # Training reads its streams a chunk ahead, so the generators' states
    # differ after training; the tables, keys and steps must not.
    env, kinds = opponents_by_env[env_name]
    budget = hp(discount=1.0, learning_rate=0.05, total_timesteps=2500, exploration_timesteps=1500)
    runs = []
    for train in (train_best_response, reference_train_best_response):
        rng, opponent_rng = np.random.default_rng(21), np.random.default_rng(22)
        counter = SimulationCounter()
        policy = train(env, 0, kinds[kind], budget, rng, counter, opponent_rng)
        runs.append(
            (
                policy_to_text(policy),
                list(policy.q.known_keys()),
                counter.train_steps,
            )
        )
    assert runs[0] == runs[1]


def _three_player_mixtures():
    """Seats 1 and 2 of a 3-player matrix game, each a mixture over uniform
    random, a fixed mixture, a greedy trained policy, its table at epsilon
    0.4 and a value mixture, with a zero weight each."""
    env = MatrixGameEnv(np.random.default_rng(8).random((2, 3, 2, 3)))
    budget = hp(discount=1.0, total_timesteps=600, exploration_timesteps=400)
    uniform = {seat: uniform_random_policy(env.action_count(seat)) for seat in range(3)}
    mixtures = {}
    for seat, weights in ((1, [0.3, 0.0, 0.2, 0.25, 0.25]), (2, [0.2, 0.3, 0.0, 0.4, 0.1])):
        others = {o: uniform[o] for o in range(3) if o != seat}
        greedy = reference_train_best_response(
            env, seat, others, budget, np.random.default_rng(40 + seat)
        )
        probs = np.random.default_rng(50 + seat).dirichlet(np.ones(env.action_count(seat)))
        policies = [
            uniform[seat],
            FixedMixturePolicy(probs),
            greedy,
            ValuePolicy(greedy.q, epsilon=0.4),
            combine_opponents([greedy, uniform[seat]], [0.7, 0.3]),
        ]
        mixtures[seat] = (policies, weights)
    return env, mixtures


@pytest.fixture(scope="module")
def mixtures_by_case(opponents_by_env):
    """Per case: the environment, the learner's opponents' mixtures, and
    whether the opponents draw on their own stream."""

    def single(env_name, weights):
        env, kinds = opponents_by_env[env_name]
        policies = [kinds[name][1] for name in OPPONENT_KINDS if name != "psro-draw"]
        return env, {1: (policies, weights)}

    weights = [0.2, 0.1, 0.1, 0.1, 0.2, 0.15, 0.15]
    zeros = [0.3, 0.0, 0.25, 0.0, 0.2, 0.25, 0.0]
    return {
        "one-opponent-train-stream": (*single("leduc", weights), False),
        "zero-weights-leduc": (*single("leduc", zeros), True),
        "zero-weights-rps": (*single("rps", zeros), True),
        "two-opponents": (*_three_player_mixtures(), True),
    }


@pytest.mark.parametrize(
    "case", ["one-opponent-train-stream", "zero-weights-leduc", "zero-weights-rps", "two-opponents"]
)
def test_respond_mixture_equals_the_reference_loop(mixtures_by_case, case):
    # respond_mixture's provider reads the opponent stream's chunked doubles;
    # the reference draws with Generator.random and np.searchsorted, every
    # opponent acting through act at every step.
    env, mixtures, own_stream = mixtures_by_case[case]
    budget = hp(discount=1.0, learning_rate=0.05, total_timesteps=2500, exploration_timesteps=1500)

    def reference(env, player, mixtures, rng, counter, opponent_rng):
        return reference_train_best_response(
            env, player, _psro_provider(mixtures), budget, rng, counter, opponent_rng
        )

    runs = []
    for respond in (TabularOracle(hp(), budget).respond_mixture, reference):
        rng, opponent_rng = np.random.default_rng(31), np.random.default_rng(32)
        counter = SimulationCounter()
        policy = respond(env, 0, mixtures, rng, counter, opponent_rng if own_stream else None)
        runs.append((policy_to_text(policy), counter.train_steps))
        if not own_stream:  # not the opponents' stream: nothing reads it
            unread = np.random.default_rng(32).bit_generator.state
            assert opponent_rng.bit_generator.state == unread
    assert runs[0] == runs[1]
    assert runs[0][1] == 2500
