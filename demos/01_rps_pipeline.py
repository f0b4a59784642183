"""Walk the whole pipeline on rock-paper-scissors, by hand.

Two fixed strategies for player 1 induce best responses, action values, an
empirical game, its equilibrium, and finally a value-mixed opponent whose
best response differs from the best response to the mixture itself - the
motivating effect behind training against collapsed opponents.
"""

import numpy as np

import psromix as pm
from psromix.envs import MATRIX_OBSERVATION
from psromix.exact import analytic_payoffs

ACTIONS = ["R", "P", "S"]
env = pm.rps_env()

print("== RPS, win=1 / tie=0.5 / lose=0 ==")
print("player-2 payoff matrix (rows: player-1 action):")
print(env.payoff_tensor[:, :, 1])

# Player 1's two fixed strategies.
pi11 = pm.FixedMixturePolicy([0.0, 0.3, 0.7])
pi12 = pm.FixedMixturePolicy([0.4, 0.6, 0.0])
print("\nplayer-1 strategies: pi_1 = (0, .3, .7), pi_2 = (.4, .6, 0)")

# Exact best responses with their action values.
br1, v1 = pm.exact_best_response(env, 1, {0: pi11})
br2, v2 = pm.exact_best_response(env, 1, {0: pi12})
print(f"BR to pi_1: {ACTIONS[br1.greedy_action(MATRIX_OBSERVATION, (0,1,2))]}"
      f"  values {br1.q.lookup(MATRIX_OBSERVATION)}")
print(f"BR to pi_2: {ACTIONS[br2.greedy_action(MATRIX_OBSERVATION, (0,1,2))]}"
      f"  values {br2.q.lookup(MATRIX_OBSERVATION)}")

# Build the 2x2 empirical game over {pi_1, pi_2} x {BR1, BR2}.
game = pm.EmpiricalGame(2)
for policy in (pi11, pi12):
    game.add_policy(0, policy)
for policy in (br1, br2):
    game.add_policy(1, policy)
for profile in game.all_profiles():
    cell = analytic_payoffs(env, [game.strategy_sets[0][profile[0]],
                                  game.strategy_sets[1][profile[1]]])
    game.payoffs.record(profile, cell, 1)
block = np.array([[game.payoff((i, j))[1] for j in range(2)] for i in range(2)])
print("\nempirical game, player-2 payoffs:")
print(block)

solution = pm.solve_nash(game)
print(f"\nequilibrium: player 2 mixes {np.round(solution.weights(1), 4)} over (BR1, BR2)")
print("player 2 never plays S here, although S scores well against both pi_1 and pi_2.")

# Mixing the opponents' action-VALUE tables instead of their action choices
# surfaces S as the aggregate's greedy action.
combined = pm.combine_opponents([br1, br2], solution.mixtures[1])
mixed_values = combined.q.lookup(MATRIX_OBSERVATION)
print(f"\nvalue-mixed opponent: values {np.round(mixed_values, 4)}"
      f" -> plays {ACTIONS[int(np.argmax(mixed_values))]}")
next_br, value = pm.exact_best_response(env, 0, {1: combined})
print(f"best response to the mixed opponent: "
      f"{ACTIONS[next_br.greedy_action(MATRIX_OBSERVATION, (0,1,2))]} (value {value})")
print("-> a strategy the plain mixture target would never have produced.")
