"""Evaluate solutions against deviation sets and compare policy libraries.

A deviation set is a plain list per player: strategy indices for an
empirical game, policies for an environment. Proxy regret measures deviation
gain against discovered plus held-out policies, clipped at zero; the
similarity report checks how behaviourally diverse a policy set is by
greedy-action agreement over every information state that some assignment
of the policies to the seats reaches.

The held-out evaluation set is written under PSROMIX_OUTPUT_ROOT (default:
the working directory), as the command-line tool writes its outputs, by the
writer that stores a checkpoint's policies (``psromix.engine.save_policy_set``):
a rerun replaces the directory's ``p<player>_<k>.txt`` files and leaves
any other file there alone.
"""

import os

import numpy as np

import psromix as pm
from psromix.evaluation import export_eval_set, export_similarity

env = pm.rps_env()

print("== regret against pure deviations ==")
populations = [[pm.FixedMixturePolicy([0.0, 0.3, 0.7])], [pm.pure_action_policy(3, 0)]]
sigma = [np.array([1.0]), np.array([1.0])]
deviations = [[pm.pure_action_policy(3, a) for a in range(3)]] * 2
values = pm.regret(env, sigma, deviations, populations=populations)
print(f"player 2 plays R against (0,.3,.7): regret {values[1]:.3f} (R is already the BR)")
print(f"player 1 could deviate: regret {values[0]:.3f}")
print(f"sum_regret: {pm.sum_regret(values):.3f}")

print("\n== proxy regret clips weak deviation sets at zero ==")
weak_eval = [[pm.pure_action_policy(3, 1)], [pm.pure_action_policy(3, 2)]]
clipped = pm.proxy_regret(env, sigma, psro_set=[[], []], eval_set=weak_eval,
                          populations=populations)
print(f"per-player proxy regret: {np.round(clipped, 3)} (never negative)")

print("\n== held-out evaluation set from a finished run ==")
hparams = pm.OracleHParams(learning_rate=5e-3, discount=0.0,
                           total_timesteps=800, exploration_timesteps=400)
config = pm.RunConfig(algorithm="mixed-opponents", env="rps", mss="nash",
                      epochs=5, episodes_per_cell=20, oracle="tabular",
                      pure_hparams=hparams, mix_hparams=hparams, seed=23)
record = pm.run_algorithm(config)
independent = pm.run_algorithm(
    pm.RunConfig(algorithm="psro", env="rps", mss="nash", epochs=5,
                 episodes_per_cell=20, oracle="tabular",
                 pure_hparams=hparams, mix_hparams=hparams, seed=99)
)
eval_dir = os.path.join(os.environ.get("PSROMIX_OUTPUT_ROOT", "."), "psromix-demo-eval")
eval_set = export_eval_set(independent, eval_dir, size=2, seed=1)
proxy = pm.proxy_regret(env, record.solution,
                        psro_set=record.game.strategy_sets, eval_set=eval_set,
                        populations=record.game.strategy_sets)
print(f"run solution proxy regret vs own + held-out policies: {np.round(proxy, 4)}")

print("\n== similarity of the discovered policies (Leduc) ==")
leduc = pm.LeducEnv()
leduc_hp = pm.OracleHParams(learning_rate=0.05, discount=1.0,
                            total_timesteps=4_000, exploration_timesteps=2_000)
library = [
    pm.train_best_response(leduc, 0, {1: pm.uniform_random_policy(3)}, leduc_hp,
                           np.random.default_rng(seed))
    for seed in range(3)
]
report = pm.similarity_report(library, leduc)
print(f"information states reached by some profile: {report.corpus_size_deduplicated}")
print(export_similarity(report, [f"br{i}" for i in range(3)]))
