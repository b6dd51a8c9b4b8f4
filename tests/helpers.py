import numpy as np


def kron_matrix(op):
    """Dense oracle for a sum-of-products operator: one big matrix acting on
    column-major flattened coefficients (mode-0 factor last in the kron)."""
    dims = op.dims
    total = int(np.prod(dims))
    out = np.zeros((total, total))
    for term in op.terms:
        mats = [np.eye(n) for n in dims]
        for mode, mat in term.factors:
            mats[mode] = mat
        acc = mats[-1]
        for m in range(len(dims) - 2, -1, -1):
            acc = np.kron(acc, mats[m])
        out += term.coeff * acc
    return out


def ambient_matrix_by_columns(basis):
    """Oracle for ``TangentBasis.ambient_matrix``: embed one unit coordinate
    vector at a time through ``tangent_to_ambient``."""
    from ttdlra.tangent import TangentVector, tangent_to_ambient

    cols = np.zeros((int(np.prod(basis.point.dims)), basis.dim))
    for j in range(basis.dim):
        e = np.zeros(basis.dim)
        e[j] = 1.0
        cols[:, j] = tangent_to_ambient(TangentVector(basis, e)).data
    return cols


def summands(v):
    """The d+1 ambient summands of a tangent vector, each expanded by its own
    chain of mode products: ``Cdot x U`` and ``C x_m Udot^m x U`` per mode."""
    from ttdlra.dense import mode_multiply

    p = v.base
    core = p.core_dense()
    parts = [v.core_velocity]
    for m, u in enumerate(p.factors):
        parts[0] = mode_multiply(parts[0], u, m)
    for m, udot in enumerate(v.factor_velocities):
        term = core
        for mm, u in enumerate(p.factors):
            term = mode_multiply(term, udot if mm == m else u, mm)
        parts.append(term)
    return parts
