import functools
import sys

import numpy as np


def count_calls(monkeypatch, module, *names):
    """Count the calls of the functions ``names`` of the ``ttdlra`` module
    ``module``: each is wrapped under every name that looks it up in a loaded
    ``ttdlra`` module, as ``perfbench/tracer.py`` does.  Returns the counts,
    a dict by name that the wrappers keep up to date."""
    calls = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items() if m is not None and k.split(".")[0] == "ttdlra"]
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


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


def source_dense(factors):
    """Dense oracle of a factored source: the sum over the columns j of the
    outer products of the ``factors[m][:, j]``, by ``np.multiply.outer``."""
    from ttdlra.dense import DenseTensor

    arr = np.zeros(tuple(len(g) for g in factors))
    for j in range(factors[0].shape[1]):
        arr += functools.reduce(np.multiply.outer, [g[:, j] for g in factors])
    return DenseTensor.from_array(arr)


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
    """Dense ``L^-1 X L^-T`` for X = K and T, with ``L`` the dense Cholesky
    factor of the P1 mass matrix."""
    mass, stiffness, transfer = p1_matrices(n_cells)
    linv = np.linalg.inv(np.linalg.cholesky(mass))
    return {"stiffness": linv @ stiffness @ linv.T, "transfer": linv @ transfer @ linv.T}


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


def _along_mode(arr, mode, apply):
    """``apply``, a map of n x k blocks, on the mode-``mode`` fibres of ``arr``."""
    moved = np.moveaxis(arr, mode, 0)
    out = apply(moved.reshape(len(moved), -1)).reshape((-1,) + moved.shape[1:])
    return np.moveaxis(out, 0, mode)


def to_orthonormal(disc, x):
    """Orthonormal coordinates of a nodal coefficient tensor: ``L_m^T`` on
    every mode."""
    from ttdlra.dense import DenseTensor
    from ttdlra.fem import chol_matmul

    arr = x.to_array()
    for m, fem in enumerate(disc.fems):
        arr = _along_mode(arr, m, lambda w, c=fem.mass_chol: chol_matmul(c, w, "T"))
    return DenseTensor.from_array(arr)


def from_orthonormal(disc, y):
    """Nodal coefficient tensor of orthonormal coordinates: ``L_m^-T`` on every
    mode."""
    from ttdlra.dense import DenseTensor
    from ttdlra.fem import chol_solve

    arr = y.to_array()
    for m, fem in enumerate(disc.fems):
        arr = _along_mode(arr, m, lambda w, c=fem.mass_chol: chol_solve(c, w, "T"))
    return DenseTensor.from_array(arr)


def prolong_coefficients(x, n_from, n_to):
    """Nodal coefficient tensor on ``n_from`` cells per mode injected into the
    P1 space of ``n_to`` cells by exact doublings, mode by mode."""
    from ttdlra.dense import DenseTensor
    from ttdlra.experiments import _prolong_1d

    arr, n = x.to_array(), n_from
    while n < n_to:
        for m in range(arr.ndim):
            arr = _along_mode(arr, m, _prolong_1d)
        n *= 2
    return DenseTensor.from_array(arr)


def terminal_nodal(problem, opts):
    """Nodal coefficient tensor of the terminal state of a run."""
    from ttdlra.experiments import _terminal_point
    from ttdlra.manifold import point_to_dense

    return from_orthonormal(problem.disc, point_to_dense(_terminal_point(problem, opts)))


def nodal_convergence_error(coarse, ref, n_from, n_to, ref_disc):
    """The convergence error through the ambient grid: the coarse nodal tensor
    prolonged to the reference mesh, minus the reference, in orthonormal
    coordinates of the reference mesh."""
    return to_orthonormal(ref_disc, prolong_coefficients(coarse, n_from, n_to) - ref).norm()
