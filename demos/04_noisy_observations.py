"""
Noisy observations: the same gains applied to a local estimate
==============================================================

"""

import numpy as np
from mflqg import (
    build_model, exact_policy_cost, simulate, solve_control_riccati,
    solve_filter_riccati,
)

# each subsystem sees y = x + 0.4 z + v instead of x itself; the
# mean-field z is still shared exactly
model = build_model(
    horizon=15, n_agents=2000,
    A=0.9, B=1.0,
    Q=1.0, R=1.0, P=0.5,
    Cx=1.0, Cz=0.4, Sigma_V=0.5,
    Sigma_X=1.0, Sigma_W=0.2, initial_mean=1.0,
    observation_mode="noisy",
)

# certainty equivalence: the control gains are the full-observation ones;
# the filter recursion adds per-step estimator gains
control = solve_control_riccati(model)
filt = solve_filter_riccati(model)
schedule = control.gain_schedule(filt)
print("filter gains Kf_t:", np.round(filt.Kf[:5, 0, 0], 4), "...")

# the predicted estimation-error variance is Sigma_e; simulate 2000
# subsystems and compare against the empirical spread
trace = simulate(model, schedule, seed=3)
errors = trace.states[:, :, 0] - trace.estimates[:, :, 0]
for t in (1, 5, 15):
    predicted = filt.Sigma_e[t - 1, 0, 0]
    empirical = np.mean(errors[t - 1] ** 2)
    print(f"t={t:2d}  predicted {predicted:.4f}  empirical {empirical:.4f}")

print("realized cost:", round(trace.total_cost, 2))

# the expected cost has a closed form here too: the estimates are propagated
# alongside the states, as a deviation part and a mean-field part of 2*d_x
# numbers each per step, with no sampling
print("exact expected cost:", round(exact_policy_cost(model, schedule).total, 2))
