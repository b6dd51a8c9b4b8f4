"""Low-rank evolution of an anisotropic diffusion problem.

The coefficient tensor of a tensor-product P1 discretization evolves on a
fixed-rank manifold: each implicit Euler step is tested against the tangent
space of the current point and retracted back to the ranks.  With zero source
the norm decreases every step (the update itself is an admissible test
function because the manifold is a cone), and the boundary gap is monitored
so a rank collapse stops the run instead of corrupting it.
"""

import numpy as np

from ttdlra import energy_report, rank_collapse_problem, solve
from ttdlra.integrate import BREAKDOWN_REL
from ttdlra.problems import heat_problem

terms = [
    (1.0, [lambda x: np.sin(np.pi * x)] * 3),
    (0.5, [lambda x: np.sin(2 * np.pi * x)] * 3),
    (0.25, [lambda x: np.sin(3 * np.pi * x)] * 3),
]
b0 = np.eye(3) + 0.25 * (np.ones((3, 3)) - np.eye(3))
problem = heat_problem(3, 16, (3, 3), b0=b0, initial_terms=terms, t_end=0.02)
print("grid:", problem.dims, " outer ranks:", problem.u0.outer_ranks,
      " train ranks:", problem.u0.core.ranks)

tr = solve(problem, "projected_euler", tau=5e-4, t_end=0.02)
print(f"\n{'t':>8} {'|u|':>12} {'gap':>12} {'residual':>10} {'defect':>10}")
for s in tr.states[:: max(1, len(tr.states) // 10)]:
    print(
        f"{s.time:8.4f} {np.sqrt(s.energy_l2):12.8f} {s.gap:12.3e} "
        f"{s.tangent_residual:10.2e} {s.retraction_defect:10.2e}"
    )
rep = energy_report(tr, problem)
# the check sums each step's dissipation form; projector-splitting steps record
# none, and for such runs the flag reads None ("not checked")
print("\nzero-source energy inequality satisfied:", rep.dissipation_ok)

print("\nengineered rank collapse: the second singular value decays away")
collapse = rank_collapse_problem(n_cells=12, weight=0.15, t_end=0.4)
tr = solve(collapse, "projected_euler", tau=0.0025, t_end=0.4)
final = tr.states[-1]
print(
    f"breakdown recorded at t = {tr.breakdown.time:.4f} with gap "
    f"{tr.breakdown.gap:.3e} <= {BREAKDOWN_REL:.0e} * |u| = "
    f"{BREAKDOWN_REL * np.sqrt(final.energy_l2):.3e}"
)
