import numpy as np


def kron_matrix(op):
    """Dense oracle for a sum-of-products operator: one big matrix acting on
    column-major flattened coefficients (mode-0 factor last in the kron)."""
    dims = op.dims
    total = int(np.prod(dims))
    out = np.zeros((total, total))
    for term in op.terms:
        mats = [np.eye(n) for n in dims]
        for mode, factor in term.factors:
            mats[mode] = factor @ np.eye(dims[mode])
        acc = mats[-1]
        for m in range(len(dims) - 2, -1, -1):
            acc = np.kron(acc, mats[m])
        out += term.coeff * acc
    return out


def p1_matrices(n_cells):
    """Dense P1 mass, stiffness and transfer matrices from their stencils."""
    n, h = n_cells - 1, 1.0 / n_cells
    off = np.ones(n - 1)
    shift = np.diag(off, 1)
    mass = h / 6.0 * (4.0 * np.eye(n) + shift + shift.T)
    stiffness = (2.0 * np.eye(n) - shift - shift.T) / h
    transfer = 0.5 * (shift - shift.T)
    return mass, stiffness, transfer


def dense_mode_factors(n_cells):
    """Dense ``L^-1 X L^-T`` for X = K, T and T^T, with ``L`` the dense
    Cholesky factor of the P1 mass matrix."""
    mass, stiffness, transfer = p1_matrices(n_cells)
    linv = np.linalg.inv(np.linalg.cholesky(mass))
    return {
        "stiffness": linv @ stiffness @ linv.T,
        "transfer": linv @ transfer @ linv.T,
        "transfer_transposed": linv @ transfer.T @ linv.T,
    }


def gauge_frame(basis):
    """Map from orthonormal tangent coordinates (``dim`` entries, mode blocks
    in the ``Qperp`` of a complete QR of ``U``, as ``ambient_matrix`` uses) to
    the gauge coordinates of ``basis``: ``blockdiag(I, I_r (x) Qperp, ...)``.
    Its columns are orthonormal and span the gauge space."""
    import scipy.linalg

    blocks = [np.eye(basis.block_sizes[0])]
    for u in basis.point.factors:
        r = u.shape[1]
        qperp = np.linalg.qr(u, mode="complete")[0][:, r:]
        blocks.append(np.kron(np.eye(r), qperp))
    return scipy.linalg.block_diag(*blocks)


def ambient_matrix_by_columns(basis):
    """Oracle for ``TangentBasis.ambient_matrix``: embed the gauge vector of
    one orthonormal coordinate at a time through ``tangent_to_ambient``."""
    from ttdlra.tangent import TangentVector, tangent_to_ambient

    frame = gauge_frame(basis)
    cols = np.zeros((int(np.prod(basis.point.dims)), basis.dim))
    for j in range(basis.dim):
        cols[:, j] = tangent_to_ambient(TangentVector(basis, frame[:, j])).data
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
