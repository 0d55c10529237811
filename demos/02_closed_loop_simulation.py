"""
Simulating the closed loop and splitting its cost
=================================================

"""

import numpy as np
from mflqg import (
    build_model, exact_policy_cost, export_trace_csv,
    optimal_strategy, simulate,
)

# two-dimensional subsystems, 8 agents, mild coupling through the mean
model = build_model(
    horizon=10, n_agents=8,
    A=[[0.9, 0.1], [0.0, 0.8]],
    B=[[1.0], [0.5]],
    D=[[0.1, 0.0], [0.0, 0.1]],
    Q=np.eye(2), R=1.0, P=np.eye(2),
    Sigma_X=0.5 * np.eye(2), Sigma_W=0.2 * np.eye(2),
    initial_mean=[2.0, -1.0],
)

strategy = optimal_strategy(model)
trace = simulate(model, strategy, seed=7)
print("realized cost:", round(trace.total_cost, 4))
print("mean-field path (first component):", np.round(trace.meanfield[:, 0], 3))

# the expected cost splits exactly into a per-agent deviation part around
# the mean-field and a mean-field part, each propagated on its own d_x-sized
# block whatever the population size
evaluation = exact_policy_cost(model, strategy)
print("expected cost:", round(evaluation.total, 4))
print("  deviation part: ", round(evaluation.deviation_costs.sum(), 4))
print("  mean-field part:", round(evaluation.meanfield_costs.sum(), 4))

# traces export as CSV, one row per (step, agent) plus a mean-field file
agents_csv, meanfield_csv = export_trace_csv(trace, "demo_out")
print("wrote", agents_csv, "and", meanfield_csv)
