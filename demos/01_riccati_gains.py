"""
Two small Riccati recursions instead of one big one
===================================================

"""

# build a population of 50 coupled scalar subsystems: each one drifts
# toward the population average (D = 0.15) and everyone pays for the
# average straying from zero (P = 2)
import numpy as np
from mflqg import build_model, solve_control_riccati

model = build_model(
    horizon=6, n_agents=50,
    A=0.9, B=1.0, D=0.15,
    Q=1.0, R=1.0, P=2.0,
    Sigma_X=1.0, Sigma_W=0.3,
)

# the optimal decentralized law needs two d_x-sized backward recursions,
# not one recursion of size n * d_x = 50
solution = solve_control_riccati(model)

print("deviation gains Kx_t:  ", np.round(solution.Kx[:, 0, 0], 4))
print("mean-field gains Kz_t: ", np.round(solution.Kz[:, 0, 0], 4))

# the terminal gains are exactly zero: at t = T there is nothing left
# to influence
print("terminal gains:", solution.Kx[-1, 0, 0], solution.Kz[-1, 0, 0])

# the gains do not depend on the population size or on any noise
# covariance; re-solving a modified model (replace validates it again)
# reproduces them bit for bit
from dataclasses import replace

bigger = replace(model, n_agents=5000, Sigma_W=np.array([[7.0]]))
again = solve_control_riccati(bigger)
print("same gains for n=5000 and different noise:",
      np.array_equal(solution.Kx, again.Kx) and np.array_equal(solution.Kz, again.Kz))

# each subsystem applies u = Kx x + (Kz - Kx) z, where z is the
# population average; the schedule below is what the simulator consumes
schedule = solution.gain_schedule()
print("first-step law: u = %.4f x + %.4f z"
      % (schedule.Kx[0, 0, 0], schedule.Kz[0, 0, 0] - schedule.Kx[0, 0, 0]))
