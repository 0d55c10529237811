"""
Exact policy cost versus Monte Carlo estimates
==============================================

"""

# The expected cost of any linear strategy has a closed form: propagate the
# per-agent deviation covariance and the mean-field mean and covariance,
# d_x numbers each per step (2*d_x each under noisy observation, where the
# estimates ride along), no sampling.
from mflqg import build_model, exact_policy_cost, monte_carlo_cost, optimal_strategy

model = build_model(
    horizon=8, n_agents=5,
    A=0.85, B=1.0, D=0.1,
    Q=1.0, R=1.0, P=1.0,
    Sigma_X=1.0, Sigma_W=0.5, initial_mean=1.5,
)
strategy = optimal_strategy(model)

evaluation = exact_policy_cost(model, strategy)
print("exact expected cost:", evaluation.total)

# the split those two blocks give: deviation cost, deterministic
# mean-field cost, and mean-field noise cost
print("  deviation part:       ", evaluation.deviation_costs.sum())
print("  mean-field mean part: ", evaluation.meanfield_mean_costs.sum())
print("  mean-field noise part:", evaluation.meanfield_noise_costs.sum())

# Monte Carlo converges to the same number; the estimator is seeded and
# chunked so the result is identical for any worker count
for runs in (100, 1000, 10000):
    mc = monte_carlo_cost(model, strategy, runs=runs, seed=12, workers=4)
    gap = abs(mc.mean - evaluation.total)
    print(f"{runs:6d} runs: {mc.mean:.4f} +/- {mc.stderr:.4f}  (gap {gap:.4f})")
