"""Tangent-space projection on a constrained Tucker manifold.

A manifold point couples a small train-format core with tall orthonormal
factors.  The orthogonal projector onto its tangent space splits into a core
piece plus one piece per mode with mutually orthogonal ranges.  An
independent brute-force oracle (span all parameter directions, orthonormalize,
project) confirms the closed-form projector to near machine precision.
"""

import numpy as np

from ttdlra import (
    DenseTensor,
    apply_tangent_projector,
    brute_force_projector,
    core_tangent_project,
    inner,
    mode_multiply,
    point_to_dense,
    tangent_project,
    tangent_to_ambient,
)
from ttdlra.sampling import random_dense, random_point

rng = np.random.default_rng(1)

p = random_point(rng, dims=(5, 4, 5), outer_ranks=(2, 3, 2), tt_ranks=(2, 2))
print("point dims:", p.dims, " outer ranks:", p.outer_ranks, " train ranks:", p.core.ranks)

z = random_dense(rng, p.dims)
pz = apply_tangent_projector(p, z)
oracle = brute_force_projector(p, z)
print("projector vs brute-force oracle:", np.max(np.abs(pz.data - oracle.data)))

# the manifold is a cone, so the point lies in its own tangent space
x = point_to_dense(p)
print("|P x - x| / |x| =", (apply_tangent_projector(p, x) - x).norm() / x.norm())

# gauge conditions and the orthogonal splitting of the projected vector
v = tangent_project(p, z)
for m, (u, udot) in enumerate(zip(p.factors, v.factor_velocities)):
    print(f"gauge residual mode {m}: {np.max(np.abs(u.T @ udot)):.2e}")

# the core velocity and the point's expanded core are arrays; expand them
parts = [DenseTensor.from_array(v.core_velocity)]
for m, u in enumerate(p.factors):
    parts[0] = mode_multiply(parts[0], u, m)
core = DenseTensor.from_array(p.expanded)
for m, udot in enumerate(v.factor_velocities):
    term = core
    for mm, u in enumerate(p.factors):
        term = mode_multiply(term, udot if mm == m else u, mm)
    parts.append(term)
total = tangent_to_ambient(v).norm() ** 2
print("sum of squared summand norms :", sum(s.norm() ** 2 for s in parts))
print("squared norm of the embedding:", total)

# the core piece alone is the projector of the small train manifold
cz = z
for m, u in enumerate(p.factors):
    cz = mode_multiply(cz, u.T, m)
cdot = core_tangent_project(p.core, cz.to_array())
print("core velocity matches the core projector:", np.linalg.norm(cdot - v.core_velocity))
