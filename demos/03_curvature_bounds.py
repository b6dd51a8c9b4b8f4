"""Curvature diagnostics: projector differences against distance-based bounds.

For two points on the same fixed-rank manifold, the operator-norm difference
of their tangent projectors is controlled by the distance between the points
divided by the distance to the relative boundary, and the normal component of
their difference is quadratically small.  For matrices the boundary distance
is exactly the smallest positive singular value, so the bounds are sharp
theorems; for more modes the interface gap only bounds the distance from
above and the comparison columns are diagnostics.
"""

import numpy as np

from ttdlra import aligned_basis_report, curvature_report, polar_align
from ttdlra.sampling import perturbed_point, random_orthonormal, random_point

rng = np.random.default_rng(2)

print("matrix pairs (exact boundary distance)")
print(f"{'distance':>10} {'|P_X-P_Y|':>10} {'bound 8/s':>10} {'defect':>10} {'bound 1/s':>10}")
for i in range(5):
    x = random_point(rng, (6, 6), (2, 2), tt_ranks=(2,))
    y = random_point(rng, (6, 6), (2, 2), tt_ranks=(2,))
    rep = curvature_report(x, y)
    print(
        f"{rep.distance:10.4f} {rep.projector_difference_norm:10.4f} "
        f"{rep.projector_bound_tt:10.4f} {rep.normal_defect:10.6f} "
        f"{rep.normal_bound_tt:10.4f}"
    )

print("\nsecond-order normal defect under retracted perturbations (3 modes)")
x = random_point(rng, (4, 4, 4), (2, 3, 2), tt_ranks=(2, 2), min_gap_rel=0.05)
direction = None
for eps in (1e-1, 1e-2, 1e-3):
    y, direction = perturbed_point(rng, x, eps, direction)
    rep = curvature_report(x, y)
    print(
        f"eps = {eps:.0e}: defect = {rep.normal_defect:.3e}, "
        f"defect / eps^2 = {rep.normal_defect / eps**2:.4f} ({rep.sigma_kind})"
    )

print("\naligned subspace bases: the sqrt(2) comparison inequalities")
u = random_orthonormal(rng, 7, 3)
v = random_orthonormal(rng, 7, 3)
u = polar_align(u, v)
a, b = rng.standard_normal(3), rng.standard_normal(3)
rep = aligned_basis_report(u, v, a, b)
print(f"|U - V|      = {rep.basis_diff:.4f} <= sqrt(2) |P_U - P_V| = {np.sqrt(2)*rep.projector_diff:.4f}")
print(f"|x - y|      = {rep.coeff_diff:.4f} <= sqrt(2) |Ux - Vy|   = {np.sqrt(2)*rep.embedded_diff:.4f}")
