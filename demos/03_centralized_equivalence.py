"""
Decentralized gains against the brute-force centralized answer
==============================================================

"""

# The headline guarantee: a controller that sees only its own state and
# the population average performs exactly as well as a centralized
# controller that sees every state. Check it by actually building the
# centralized problem.
import numpy as np
from mflqg import (
    build_model, build_stacked_model, check_equivalence,
    solve_control_riccati, solve_stacked_riccati,
)

model = build_model(
    horizon=5, n_agents=4,
    A=0.8, B=1.0, D=0.2,
    Q=1.0, R=0.5, P=1.5,
    Sigma_X=1.0, Sigma_W=0.4, initial_mean=1.0,
)

# stack the 4 subsystems into one 4-dimensional system and solve the
# plain textbook recursion on it, comparing each step's centralized gain
# with the one the mean-field solution implies as it goes. The stacked
# A, B, Q and R are kron(I, block) + kron(11', coupling): the oracle
# applies them as Kronecker operators without forming them, while the
# value matrix M, H = B'MB + R and the gain K stay dense, and H is solved
# by plain LU
stacked = build_stacked_model(model)
central = solve_stacked_riccati(stacked, solve_control_riccati(model))
print("centralized gain at t=1:")
print(np.round(central.K1, 4))

# the centralized gain has the predicted structure: one number for your
# own state, one shared number for everyone else's
print("relative gain residual per step:", np.array2string(central.gain_residuals, precision=2))

# check_equivalence runs this solve and adds the cost comparison: the
# centralized optimal cost against the decentralized controller's exact
# expected cost
report = check_equivalence(model, tolerance=1e-8)
print("max gain residual:", report.max_gain_residual)
print("centralized cost:  ", report.cost_centralized)
print("decentralized cost:", report.cost_decentralized)
print("passed:", report.passed)
