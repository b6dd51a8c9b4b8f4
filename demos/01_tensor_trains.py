"""Tensor-train basics: decomposition, rounding, and boundary diagnostics.

A tensor train factors a d-way array into a chain of small cores.  The
singular values of the prefix unfoldings (the interface spectrum) measure how
close the train sits to the set of lower-rank trains: projecting out the
smallest singular direction at an interface lands exactly on that set, at a
distance equal to the discarded singular value.
"""

import numpy as np

from ttdlra import (
    DenseTensor,
    boundary_gap,
    interface_spectrum,
    truncate_interface,
    tt_from_dense,
    tt_round,
    tt_to_dense,
    tt_scale,
)

rng = np.random.default_rng(0)

# build a 6 x 6 x 6 tensor with exact interface ranks (3, 2)
cores = (
    rng.standard_normal((1, 6, 3)),
    rng.standard_normal((3, 6, 2)),
    rng.standard_normal((2, 6, 1)),
)
from ttdlra import TTTensor

# the train expanded to an array, viewed as an ambient tensor
x = DenseTensor.from_array(tt_to_dense(TTTensor(cores)))
print("dense tensor with", x.size, "entries")

t, err = tt_from_dense(x.to_array(), return_error=True)
print("recovered interface ranks:", t.ranks, " decomposition error:", err)

spec = interface_spectrum(t)
for split, vals in zip(spec.splits, spec.values):
    print(f"interface after modes {split}: spectrum {np.round(vals, 4)}")
print("boundary gap (smallest interface value):", boundary_gap(t))

# the gap scales linearly along the cone of positive multiples
print("gap of 3x the tensor:", boundary_gap(tt_scale(t, 3.0)))

# interface truncation realizes the distance to the lower-rank set exactly
for m in range(2):
    cut = truncate_interface(t, m)
    dist = (x - DenseTensor.from_array(tt_to_dense(cut))).norm()
    print(
        f"truncate interface {m}: distance {dist:.6f} "
        f"= smallest singular value {spec.values[m][-1]:.6f}"
    )

# rounding reports the error it commits
rounded, rerr = tt_round(t, ranks=(2, 1), return_error=True)
actual = (x - DenseTensor.from_array(tt_to_dense(rounded))).norm()
print(f"rounded to (2, 1): reported error {rerr:.6f}, actual {actual:.6f}")
