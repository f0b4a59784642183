"""Play and inspect Leduc Poker: rules, observation encoding, and a trained
best response.

Cards are indexed rank-major (J0 J1 Q0 Q1 K0 K1). Actions are FOLD=0,
CALL=1, RAISE=2; CALL checks when nothing is outstanding, FOLD is only legal
when facing a bet.
"""

import numpy as np

import psromix as pm
from psromix.envs import estimate_payoffs, simulate_episode
from psromix.envs.leduc import CALL, RAISE, LeducEnv

env = LeducEnv()
ACTION_NAMES = {0: "FOLD", 1: "CALL", 2: "RAISE"}

print("== a scripted hand ==")
state = env.deal(private0=4, private1=0, public=2)  # K0 vs J0, board Q0
for action in (RAISE, CALL, RAISE, CALL):
    player = state.player
    print(f"player {player} sees legal {tuple(ACTION_NAMES[a] for a in state.legal_actions(player))}"
          f" -> {ACTION_NAMES[action]}")
    rewards = state.step(action)
print(f"showdown: K beats J, returns {rewards} (chips conserved: sum {rewards.sum()})")

print("\n== the 30-entry observation ==")
key = state.observation(0)
f = np.frombuffer(key, np.uint8)
print(f"player one-hot     {f[0:2]}")
print(f"private card       {f[2:8]}   (K0 = index 4)")
print(f"public card        {f[8:14]}   (Q0 = index 2)")
print(f"round-1 actions    {f[14:22]}   (RAISE=10, CALL=01 per 2-bit slot)")
print(f"round-2 actions    {f[22:30]}")
print(f"key: {key.hex()[:20]}... ({len(key)} bytes, injective over information states)")

print("\n== random play is exactly zero-sum ==")
rng = np.random.default_rng(0)
randoms = [pm.uniform_random_policy(3), pm.uniform_random_policy(3)]
sums = [simulate_episode(env, randoms, rng, first_player=ep % 2).sum()
        for ep in range(1_000)]
print(f"1000 episodes, max |return sum| = {max(abs(s) for s in sums)}")

print("\n== train a best response to an always-call opponent ==")
hparams = pm.OracleHParams(
    learning_rate=0.05, discount=1.0,
    total_timesteps=30_000, exploration_timesteps=20_000,
)
counter = pm.SimulationCounter()
policy = pm.train_best_response(
    env, 0, {1: pm.pure_action_policy(3, CALL)}, hparams,
    np.random.default_rng(7), counter,
)
value = estimate_payoffs(env, [policy, pm.pure_action_policy(3, CALL)],
                         4_000, np.random.default_rng(8))
print(f"trained for exactly {counter.train_steps} learner steps")
print(f"mean return vs always-call: {value[0]:+.3f} chips/hand "
      f"({len(policy.q.values)} states visited)")
