"""Time integration of the low-rank evolution with boundary-gap monitoring.

Two one-step schemes are provided.

``step_projected_implicit_euler`` solves one implicit Euler step tested
against the tangent space of the current point: with ``u`` the current point
and ``T_u`` its tangent space, the update ``u + v`` with ``v in T_u`` enforces

    <(u+ v - u)/tau + A(t+) (u + v) - f(t+), w> = 0   for all w in T_u,

followed by a rank retraction.  Because the manifold is a cone, ``u + v``
itself is an admissible test function, which yields the discrete energy
inequality: with zero source the squared norm decreases every step, and the
retraction (an orthogonal truncation) cannot increase it.

``step_projector_splitting`` sweeps once left-to-right over the train cores,
solving a small implicit substep per core with a reversed-sign interface
substep in between (the classical splitting of the tangent-space projector
for trains).  The reversed substep is realized as the exact inverse of the
implicit Euler map compressed to the interface subspace, so the sweep is
unconditionally computable for stiff operators and reproduces the
unconstrained implicit Euler step exactly when the ranks are full.  It
requires points whose outer ranks are the generic ones induced by the train
ranks.

The Galerkin system is solved matrix-free in the gauge-form tangent
coordinates of :class:`~ttdlra.tangent.TangentBasis`.
:func:`tangent_operator` builds the step's core couplings once, so a matvec
applies the banded factors to the mode blocks and contracts no core.
Conjugate gradients solve ``(I/tau + V^T A V) x = b``, preconditioned by a
block-diagonal inverse built from those couplings: the exact core block, and
per mode the block of every term but the two-mode terms on that mode,
inverted by fast diagonalization in one stacked tridiagonal
factorization, so neither a ``dim x dim`` nor an n x n matrix is formed.
``u + v`` is the Tucker form of the summed coordinates, since ``u`` lies in
its own tangent space, and :func:`~ttdlra.retraction.retract_tucker`
retracts it on a small core.  The sweep's result is a train that
:func:`~ttdlra.retraction.retract_train` retracts on its cores.  The source
stays factored, as the problem's rank-one load columns: the projected step
projects each column as a Tucker pair with a 1^d core, and the sweep
contracts them through its environments.  So do the energies: the
quadratic forms are :func:`~ttdlra.fem.operator_quadratic_form` s on the
core.  Each step records how far it moved, measured where both states share
a frame, and the energy report reads those records and the problem's load
Gram matrix, so it forms no tensor.  Only the reference solver
:func:`dense_implicit_euler` works in the ambient space, where it expands
the source's columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor, _check_ambient, _exponent, _multiply_modes
from .errors import BreakdownError, InvalidArgumentError, NotOnManifoldError
from .manifold import ManifoldPoint, point_boundary_gap, point_to_dense
from .retraction import retract_train, retract_tucker
from .retraction import retract  # noqa: F401  perfbench/test_tracer.py looks it up here
from .fem import _lapack, chol_matmul, factor_images, laplacian_operator, operator_quadratic_form
from .tangent import TangentBasis
from .tt import TTTensor, generic_outer_ranks, orthogonalize, tt_add, tt_scale

__all__ = [
    "EvolutionState",
    "Trajectory",
    "BreakdownRecord",
    "BREAKDOWN_REL",
    "state_from_point",
    "step_projected_implicit_euler",
    "step_projector_splitting",
    "solve",
    "check_run",
    "energy_report",
    "EnergyReport",
    "dense_implicit_euler",
    "tangent_operator",
]

# states whose boundary gap falls below this fraction of the norm stop the run
BREAKDOWN_REL = 1e-8


@dataclass(frozen=True)
class EvolutionState:
    """One accepted snapshot of the evolution in orthonormal coordinates.

    ``step_distance`` is ``|u_n - u_{n-1}|``, recorded by the step that made
    the state; a state no step made carries NaN."""

    time: float
    point: ManifoldPoint
    gap: float
    energy_l2: float
    energy_v: float
    tangent_residual: float = 0.0
    retraction_defect: float = 0.0
    dissipation_form: float = 0.0  # a(u+, u+) of the pre-retraction update
    step_distance: float = float("nan")


@dataclass(frozen=True)
class BreakdownRecord:
    time: float
    gap: float


@dataclass(frozen=True)
class Trajectory:
    states: tuple
    scheme: str
    step_size: float
    breakdown: BreakdownRecord | None = None

    @property
    def times(self):
        return np.array([s.time for s in self.states])


# ---------------------------------------------------------------------------
# the Galerkin system in tangent coordinates, matrix-free
# ---------------------------------------------------------------------------

# relative residual at which the conjugate gradient solve stops
CG_RTOL = 1e-12


def tangent_operator(basis: TangentBasis, op):
    """Matrix-free ``x -> V^T A V x`` in the gauge coordinates
    ``x = (c, theta_0, ..., theta_{d-1})``.  The mode blocks are read as gauge
    vectors (``U_m^T theta_m = 0``), as all vectors of the step's CG are.

    A term acts on at most two modes, and ``U^T Udot = 0``, so the core enters
    ``V^T A V`` only through couplings that are linear in ``c`` and in the
    r x r products ``beta = U_m^T X theta_m`` (Kressner, Steinlechner and
    Vandereycken, SISC 2016).  They are built once, from the core, the core
    basis, ``rmap``, ``qright`` and the ``U_k^T X U_k``.  With ``X theta_m``
    the banded images under mode m's distinct factors ``X``,

        c_out       = K_cc c + K_cbeta beta,
        theta_out_m = P_m [theta_m G0_m + sum_X (X theta_m) G^X_m + sum_X (X U_m) R^X_m],

    where ``R = K_Rc c + K_Rbeta beta`` and ``P_m = I - U_m U_m^T``.  ``G0_m``
    sums the terms off mode m, ``G^X_m`` and ``R^X_m`` those with factor ``X``
    on it.  A matvec takes two bidiagonal solves per mode, one product with
    the coupling matrix ``K`` and n x r by r x r products; it forms no
    core-sized array.  A term on more than two modes is an
    ``InvalidArgumentError``.  The returned matvec carries ``core_block``,
    ``K_cc``, and ``off_mode``, the ``G0_m``, for :func:`_preconditioner`."""
    p, core = basis.point, basis.core
    d, ranks = p.ndim, core.shape
    distinct = [{} for _ in range(d)]  # per mode: id -> factor, in slot order
    terms = []
    for term in op.terms:
        if len(term.factors) > 2:
            raise InvalidArgumentError("an operator term may act on at most two modes")
        for m, f in term.factors:
            distinct[m].setdefault(id(f), f)
        terms.append((term.coeff, [(m, list(distinct[m]).index(id(f))) for m, f in term.factors]))
    banded, xu, a = [], [], []  # per mode: (rows, L) of the distinct factors, X U, U^T X U
    for u, fs in zip(p.factors, distinct):
        fs = list(fs.values())
        stacked = np.stack([f.rows for f in fs], axis=1) if fs else None
        banded.append((stacked, fs[0].fem.mass_chol) if fs else None)
        xu.append(factor_images(*banded[-1], u) if fs else np.zeros((0,) + u.shape))
        a.append(u.T @ xu[-1])
    q = basis.core_basis.shape[1]
    starts = np.cumsum([q] + [len(fs) * r * r for fs, r in zip(distinct, ranks)])
    kmat = np.zeros((starts[-1], starts[-1]))  # rows (c_out, R), columns (c, beta)

    def span(m, j):  # the rows of R^j_m and the columns of beta^j_m
        return slice(starts[m] + j * ranks[m] ** 2, starts[m] + (j + 1) * ranks[m] ** 2)

    def contract(x, y, keep):  # over the core modes not in keep: x's kept and trailing axes, y's
        rest = [k for k in range(d) if k not in keep]
        return np.tensordot(x, y, axes=(rest, rest))

    def image(arr, coeff, factors):  # coeff * arr x_k mat for each (k, mat) in factors
        if not factors:
            return coeff * arr
        (k, mat), *others = factors
        return _multiply_modes(arr, [(k, coeff * mat)] + others)

    cbt = np.ascontiguousarray(basis.core_basis.reshape(ranks + (q,), order="F"))
    # Q_m with its column index at mode m, and C x_m rmap_m^T
    qt = [np.moveaxis(qr.reshape(ranks[:m] + ranks[m + 1 :] + ranks[m : m + 1], order="F"), -1, m)
          for m, qr in enumerate(basis.qright)]
    crm = [_multiply_modes(core, [(m, rm.T)]) for m, rm in enumerate(basis.rmap)]
    # sums over the terms: the core block's; per mode and slot (0: the terms
    # off the mode, 1 + j: factor j on it) the output side Q_m x a^T; per mode
    # and factor the input side C x rmap^T x a
    cc = np.zeros(cbt.shape)
    out = [np.zeros((1 + len(fs),) + ranks) for fs in distinct]
    into = [np.zeros((len(fs),) + ranks) for fs in distinct]
    # (m, l) -> [(i, j), (x, y)], summed over the other modes: (C x_l rmap_l^T)[i@m, y@l]
    # Q_m[j@m, x@l], which maps beta^i_l to R^j_m through a term on modes m and l
    pair = {}
    for coeff, slots in terms:
        cc += image(cbt, coeff, [(k, a[k][j]) for k, j in slots])
        on = dict(slots)
        for m in range(d):
            others = [(k, a[k][j].T) for k, j in slots if k != m]
            out[m][on.get(m, -1) + 1] += image(qt[m], coeff, others)
        for l, i in slots:
            into[l][i] += image(crm[l], coeff, [(k, a[k][j]) for k, j in slots if k != l])
        if len(slots) == 2:
            for (m, j), (l, i) in (slots, slots[::-1]):
                if (m, l) not in pair:
                    t = contract(crm[l], qt[m], sorted((m, l)))
                    t = t.transpose((0, 2, 3, 1) if m < l else (1, 3, 2, 0))
                    pair[m, l] = t.reshape(ranks[m] ** 2, ranks[l] ** 2)
                kmat[span(m, j), span(l, i)] += coeff * pair[m, l]
    kmat[:q, :q] = contract(cbt, cc, [])
    gs = []  # per mode: G0 and the G^j stacked
    for m, r in enumerate(ranks):
        rows, outs = slice(starts[m], starts[m + 1]), np.moveaxis(out[m], 0, -1)
        g = np.tensordot(basis.rmap[m].T, contract(core, outs, [m]), axes=1)  # (i, j, slot)
        gs.append(g.transpose(2, 0, 1).reshape(-1, r))
        outs = contract(cbt, outs[..., 1:], [m])  # (i, core basis, j, slot)
        kmat[rows, :q] = outs.transpose(3, 0, 2, 1).reshape(-1, q)
        ins = contract(cbt, np.moveaxis(into[m], 0, -1), [m])  # (x, core basis, y, slot)
        kmat[:q, rows] = ins.transpose(1, 3, 0, 2).reshape(q, -1)
    xu = [w.transpose(1, 0, 2).reshape(w.shape[1], w.shape[0] * w.shape[2]) for w in xu]

    def matvec(x):
        blocks = basis._blocks(x)
        images = []  # per mode: theta_m and its banded images
        for b, u, bm in zip(blocks[1:], p.factors, banded):
            t = b.reshape(u.shape, order="F")
            images.append(np.concatenate([t[None], factor_images(*bm, t)]) if bm else t[None])
        betas = [(u.T @ w[1:]).ravel() for u, w in zip(p.factors, images)]
        y = kmat @ np.concatenate([blocks[0]] + betas)
        res = [y[:q]]
        for m, (u, w, g, xum) in enumerate(zip(p.factors, images, gs, xu)):
            r = y[starts[m] : starts[m + 1]].reshape(-1, u.shape[1])
            z = w.transpose(1, 0, 2).reshape(len(u), -1) @ g + xum @ r
            res.append((z - u @ (u.T @ z)).ravel(order="F"))
        return np.concatenate(res)

    matvec.core_block = kmat[:q, :q]
    matvec.off_mode = [g[:r] for g, r in zip(gs, ranks)]
    return matvec


def _preconditioner(basis: TangentBasis, op, tau: float, matvec):
    """Block-diagonal inverse of ``I/tau + V^T A V`` without the two-mode
    terms on each mode block (Kressner, Steinlechner and Vandereycken, SISC
    2016).  It reads ``core_block`` and ``off_mode`` of ``matvec``, the step's
    :func:`tangent_operator`, so it contracts no core.

    The core block is ``(I/tau + K_cc)^-1``, formed as a q x q matrix.
    Mode block m inverts ``theta -> theta/tau + A_m theta + theta G0_m`` on the
    gauge space, with ``A_m`` the sum of the one-mode terms on m and ``G0_m``
    the symmetric positive semidefinite coupling of the terms off m.  Fast
    diagonalization (Lynch, Rice and Thomas 1964) with ``G0_m = W diag(lam)
    W^T`` turns it into one shifted operator ``S_j = (1/tau + lam_j) I + A_m``
    per column j of ``theta W``, inverted on the gauge space in the Schur
    complement form ``S_j^-1 - S_j^-1 U (U^T S_j^-1 U)^-1 U^T S_j^-1``.  As
    ``S_j^-1 = L^T ((1/tau + lam_j) M + sum_t c_t X_t)^-1 L``, the tridiagonal
    systems of all modes and columns stack into one tridiagonal matrix: one
    ``dpttrf`` per build, one ``dpttrs`` per apply."""
    core = np.linalg.inv(np.eye(len(matvec.core_block)) / tau + matvec.core_block)
    fems = {m: f.fem for term in op.terms for m, f in term.factors}
    one_mode = dict.fromkeys(range(basis.point.ndim), 0.0)  # mode -> rows of A_m
    for term in op.terms:
        if len(term.factors) == 1:
            ((m, f),) = term.factors
            one_mode[m] = one_mode[m] + term.coeff * f.rows
    factors = basis.point.factors
    q = basis.block_sizes[0]
    spans = [slice(s.start - q, s.stop - q) for s in basis._slices[1:]]  # rows of mode m
    diags, offs, chols, rots = [], [], [], []  # per mode: the tridiagonals and L of its columns, W
    for m, (u, g0) in enumerate(zip(factors, matvec.off_mode)):
        if m not in fems:
            raise InvalidArgumentError(f"no operator term acts on mode {m}")
        (n, r), fem = u.shape, fems[m]
        lam, w = np.linalg.eigh(g0)
        rows = (1.0 / tau + lam)[:, None, None] * fem.mass + one_mode[m]
        rows[:, -1, 2] = 0.0  # no coupling from one column to the next
        diags.append(rows[..., 1].ravel())
        offs.append(rows[..., 2].ravel())
        chols.append(np.tile(fem.mass_chol, r))
        chols[-1][1, n - 1 :: n] = 0.0
        rots.append(w)
    diag, off, info = _lapack().dpttrf(np.concatenate(diags), np.concatenate(offs)[:-1])
    if info != 0:
        raise InvalidArgumentError("the preconditioner's shifted operator is not positive definite")
    chol = np.hstack(chols)

    def s_inv(g):
        z, _ = _lapack().dpttrs(diag, off, chol_matmul(chol, g, "N"))
        return chol_matmul(chol, z, "T")

    # column-major, so the broadcasts of chol_matmul run down the long columns
    su = np.zeros((spans[-1].stop, max(u.shape[1] for u in factors)), order="F")
    for u, span in zip(factors, spans):  # U in every column of every mode
        su[span, : u.shape[1]] = np.tile(u, (u.shape[1], 1))
    su = s_inv(su)
    corrs = []  # per mode and column j: S_j^-1 U (U^T S_j^-1 U)^-1
    for u, span in zip(factors, spans):
        n, r = u.shape
        s = su[span, :r].reshape(r, n, r)
        corrs.append(s @ np.linalg.inv(u.T @ s))

    def apply(x):
        blocks = basis._blocks(x)
        rotated = [(b.reshape(u.shape, order="F") @ w).ravel(order="F")
                   for b, u, w in zip(blocks[1:], factors, rots)]
        z = s_inv(np.concatenate(rotated)[:, None])[:, 0]
        out = [core @ blocks[0]]
        for u, w, corr, span in zip(factors, rots, corrs, spans):
            y = z[span].reshape(u.shape, order="F")
            y = y - (corr @ (u.T @ y).T[:, :, None])[:, :, 0].T
            out.append((y @ w.T).ravel(order="F"))
        return np.concatenate(out)

    return apply


def _pcg(apply, precond, b) -> tuple:
    """Preconditioned conjugate gradients for ``apply(x) = b`` from ``x = 0``,
    stopping at relative residual ``CG_RTOL`` or after ``len(b)`` iterations.
    Returns the solution and the iteration count.  CG runs on ``b`` scaled by
    the power of two that brings its largest entry into [0.5, 1): no inner
    product underflows, and the exact scaling leaves normal-range results
    bit-identical."""
    exponent = _exponent(b)
    b = np.ldexp(b, -exponent)
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z
    rz = float(r @ z)
    stop = CG_RTOL * np.linalg.norm(b)
    for it in range(b.size):
        if np.linalg.norm(r) <= stop:
            return np.ldexp(x, exponent), it
        q = apply(p)
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = precond(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return np.ldexp(x, exponent), b.size


# ---------------------------------------------------------------------------
# states and schemes
# ---------------------------------------------------------------------------


def state_from_point(point: ManifoldPoint, t: float, disc, **diag) -> EvolutionState:
    return EvolutionState(
        time=float(t),
        point=point,
        gap=point_boundary_gap(point),
        energy_l2=point.norm() ** 2,
        energy_v=operator_quadratic_form(point, laplacian_operator(disc)),
        **diag,
    )


def _next_time(t: float, tau: float) -> float:
    """``t + tau``, as the exact multiple ``(k+1) tau`` when ``t = k tau``."""
    k = round(t / tau)
    return (k + 1) * tau if k * tau == t else t + tau


def _retract_step(retract_fn, x: tuple, p: ManifoldPoint):
    """``retract_fn(*x)`` of a step's update to the ranks of ``p``, a rank
    collapse raised as ``BreakdownError`` with its gap."""
    tt_ranks = p.core.ranks if p.tt_core else None
    try:
        return retract_fn(*x, p.outer_ranks, tt_ranks)
    except NotOnManifoldError as exc:
        raise BreakdownError(f"rank collapse during retraction: {exc}", gap=exc.gap) from exc


def _projected_admits(p: ManifoldPoint) -> None:
    if p.ndim < 2:
        raise InvalidArgumentError(
            "the projected scheme needs at least two modes; a single mode is "
            "the unconstrained problem (use the splitting scheme)"
        )


def _source_coords(basis: TangentBasis, factors):
    """Tangent coordinates of the source ``sum_j (x)_m factors[m][:, j]``:
    each column is a rank-one Tucker pair with a 1^d core.  No columns give 0."""
    ones = np.ones((1,) * len(factors))
    columns = [[g[:, j : j + 1] for g in factors] for j in range(factors[0].shape[1])]
    return sum((basis.coords_of_tucker(ones, column) for column in columns), 0.0)


def step_projected_implicit_euler(state: EvolutionState, tau: float, problem) -> EvolutionState:
    """One implicit Euler step in the current tangent space, then retraction."""
    if tau <= 0:
        raise InvalidArgumentError("step size must be positive")
    p = state.point
    _projected_admits(p)
    t_new = _next_time(state.time, tau)
    op = problem.operator(t_new)
    basis = TangentBasis(p)
    matvec = tangent_operator(basis, op)

    # u lies in its own tangent space: coordinates (C, 0, ..., 0)
    u_coords = np.zeros(sum(basis.block_sizes))
    u_coords[: basis.block_sizes[0]] = basis.core_basis.T @ basis.core.ravel(order="F")
    au = matvec(u_coords)
    b = _source_coords(basis, problem.source_factors(t_new)) - au
    coords, _ = _pcg(lambda x: x / tau + matvec(x), _preconditioner(basis, op, tau, matvec), b)

    # one explicit matvec at the solution gives the residual and the
    # pre-retraction energy identity a(u+v, u+v) = a(u,u) + 2 <A u, v> + <A v, v>;
    # the residual's norms are taken on b's scale, exactly, so neither underflows
    av = matvec(coords)
    e = _exponent(b)
    resid = np.linalg.norm(np.ldexp(coords / tau + av - b, -e)) / max(
        np.linalg.norm(np.ldexp(b, -e)), np.finfo(float).tiny
    )
    a_form = float(u_coords @ au) + 2.0 * float(au @ coords) + float(coords @ av)

    core, factors = basis.tucker(u_coords + coords)
    new_point, defect, distance = _retract_step(retract_tucker, (core, factors, basis.core), p)
    return state_from_point(
        new_point,
        t_new,
        problem.disc,
        tangent_residual=float(resid),
        retraction_defect=float(defect),
        dissipation_form=float(a_form),
        step_distance=distance,
    )


# -- projector splitting ----------------------------------------------------


def _point_to_ambient_tt(p: ManifoldPoint) -> TTTensor:
    cores = list(p.core.cores)
    for m, u in enumerate(p.factors):
        cores[m] = np.einsum("ij,ajb->aib", u, cores[m])
    return TTTensor(tuple(cores))


def _env_update_left(env, core, mat):
    # env[a, a'] -> contract with core (a, j, b) on both indices, mat on j
    tmp = np.tensordot(env, core, axes=(1, 0))  # a, j, b
    if mat is not None:
        tmp = np.tensordot(mat, tmp, axes=(1, 1))  # j', a, b
        tmp = np.moveaxis(tmp, 0, 1)
    return np.tensordot(core, tmp, axes=([0, 1], [0, 1]))  # b', b


def _env_update_right(env, core, mat):
    # env and the result are ordered (test side, trial side)
    tmp = np.tensordot(core, env, axes=(2, 1))  # a', j, c
    if mat is not None:
        tmp = np.tensordot(mat, tmp, axes=(1, 1))  # j', a', c
        tmp = np.moveaxis(tmp, 0, 1)
    return np.tensordot(core, tmp, axes=([1, 2], [1, 2]))  # a, a'


def _splitting_admits(p: ManifoldPoint) -> None:
    if not p.tt_core:
        raise InvalidArgumentError("the splitting sweep needs a train-format core")
    generic = generic_outer_ranks(p.dims, p.core.ranks)
    if p.outer_ranks != generic:
        raise InvalidArgumentError(
            f"the splitting sweep requires generic outer ranks {generic}, got {p.outer_ranks}"
        )


def step_projector_splitting(state: EvolutionState, tau: float, problem) -> EvolutionState:
    """One first-order splitting sweep with implicit Euler substeps.

    Operates on the ambient train representation; the outer ranks of the
    point must be the generic ones induced by the train ranks.  For a single
    mode the sweep degenerates to one full implicit Euler step.
    """
    if tau <= 0:
        raise InvalidArgumentError("step size must be positive")
    p = state.point
    _splitting_admits(p)
    dims = p.dims
    d = p.ndim
    t_new = _next_time(state.time, tau)
    op = problem.operator(t_new)
    factors = problem.source_factors(t_new)

    y = orthogonalize(_point_to_ambient_tt(p), 0)
    cores = [c.copy() for c in y.cores]
    # the local systems are assembled densely, from dense mode matrices
    terms = [(t.coeff, {m: f.dense for m, f in t.factors}) for t in op.terms]
    terms = [(c, [mats.get(m) for m in range(d)]) for c, mats in terms]

    # right environments per term at every interface
    right_envs = [[None] * (d + 1) for _ in terms]
    for it, (_, mats) in enumerate(terms):
        env = np.ones((1, 1))
        right_envs[it][d] = env
        for m in range(d - 1, -1, -1):
            env = _env_update_right(env, cores[m], mats[m])
            right_envs[it][m] = env
    left_envs = [np.ones((1, 1)) for _ in terms]

    # the source's projections onto the prefix and suffix bases: k x s
    # environments, one column per rank-one load column
    s = factors[0].shape[1]
    right_f = [None] * d + [np.ones((1, s))]
    for m in range(d - 1, 0, -1):
        right_f[m] = np.einsum("aic,ij,cj->aj", cores[m], factors[m], right_f[m + 1])
    left_f = np.ones((1, s))

    for m in range(d):
        kl, n, kr = cores[m].shape
        size = kl * n * kr
        a_eff = np.zeros((size, size))
        for it, (c, mats) in enumerate(terms):
            mid = mats[m] if mats[m] is not None else np.eye(n)
            a_eff += c * np.einsum(
                "ab,jk,cd->ajcbkd", left_envs[it], mid, right_envs[it][m + 1]
            ).reshape(size, size)
        k0 = cores[m].reshape(size)
        f_eff = np.einsum("aj,ij,bj->aib", left_f, factors[m], right_f[m + 1])
        rhs = k0 + tau * f_eff.reshape(size)
        k1 = np.linalg.solve(np.eye(size) + tau * a_eff, rhs)
        if m == d - 1:
            cores[m] = k1.reshape(kl, n, kr)
            break
        q, rfac = np.linalg.qr(k1.reshape(kl * n, kr))
        cores[m] = q.reshape(kl, n, q.shape[1])
        # advance the environments through the new core
        for it, (c, mats) in enumerate(terms):
            left_envs[it] = _env_update_left(left_envs[it], cores[m], mats[m])
        left_f = np.einsum("aj,aib,ij->bj", left_f, cores[m], factors[m])
        # interface substep with reversed sign
        ks = rfac.shape[0]
        a_s = np.zeros((ks * ks, ks * ks))
        for it, (c, mats) in enumerate(terms):
            a_s += c * np.einsum(
                "ab,cd->acbd", left_envs[it], right_envs[it][m + 1]
            ).reshape(ks * ks, ks * ks)
        s0 = rfac.reshape(ks * ks)
        # reversed-sign substep, realized as the exact inverse of the
        # implicit Euler map on the interface subspace: unconditionally
        # computable and exact at full rank
        s1 = s0 + tau * (a_s @ s0) - tau * (left_f @ right_f[m + 1].T).reshape(ks * ks)
        cores[m + 1] = np.tensordot(
            s1.reshape(ks, ks), cores[m + 1], axes=(1, 0)
        )

    # cores 0 ... d-2 are left-orthogonal: the sweep leaves its center at d-1
    x = TTTensor(tuple(cores), ortho_center=d - 1)
    new_point = _retract_step(retract_train, (x,), p)
    minus_new = tt_scale(_point_to_ambient_tt(new_point), -1.0)
    return state_from_point(
        new_point,
        t_new,
        problem.disc,
        tangent_residual=0.0,
        retraction_defect=tt_add(x, minus_new).norm(),
        dissipation_form=float("nan"),
        step_distance=tt_add(y, minus_new).norm(),
    )


def _step_count(tau: float, t_end: float) -> int:
    """Number of steps of size ``tau`` to ``t_end``, which ``tau`` must divide."""
    if not (0 < tau < np.inf and 0 <= t_end < np.inf):
        raise InvalidArgumentError("need a finite tau > 0 and t_end >= 0")
    n_steps = int(round(t_end / tau))
    if abs(n_steps * tau - t_end) > 1e-9 * t_end:
        raise InvalidArgumentError(f"step size {tau} does not divide the horizon {t_end}")
    return n_steps


_SCHEMES = {  # name -> (step, the check that a point's rank structure admits the scheme)
    "projected_euler": (step_projected_implicit_euler, _projected_admits),
    "projector_splitting": (step_projector_splitting, _splitting_admits),
}


def check_run(u0: ManifoldPoint, scheme: str, tau: float, t_end: float) -> int:
    """What :func:`solve` checks before its first step: a known scheme that
    admits the rank structure of ``u0``, ``tau > 0`` dividing ``t_end``, and an
    initial boundary gap above the breakdown threshold.  Returns the step count."""
    if scheme not in _SCHEMES:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}")
    _SCHEMES[scheme][1](u0)
    n_steps = _step_count(tau, t_end)
    threshold = BREAKDOWN_REL * u0.norm()
    if u0.gap <= threshold:
        raise InvalidArgumentError(
            f"initial boundary gap {u0.gap:.3e} is below the breakdown threshold {threshold:.3e}"
        )
    return n_steps


def solve(problem, scheme: str, tau: float, t_end: float) -> Trajectory:
    """March from the initial point until ``t_end`` or rank breakdown.

    Every accepted state keeps a boundary gap above ``BREAKDOWN_REL`` times
    the norm; a state below the threshold is recorded as the final entry
    together with a breakdown record, and the run stops there.
    """
    n_steps = check_run(problem.u0, scheme, tau, t_end)
    step, _ = _SCHEMES[scheme]
    state = state_from_point(problem.u0, 0.0, problem.disc)
    states = [state]
    breakdown = None
    for _ in range(n_steps):
        try:
            state = step(state, tau, problem)
        except BreakdownError as exc:
            breakdown = BreakdownRecord(time=_next_time(state.time, tau), gap=exc.gap)
            break
        states.append(state)
        threshold = BREAKDOWN_REL * state.point.norm()
        if state.gap <= threshold:
            breakdown = BreakdownRecord(time=state.time, gap=state.gap)
            break
    return Trajectory(
        states=tuple(states),
        scheme=scheme,
        step_size=float(tau),
        breakdown=breakdown,
    )


@dataclass(frozen=True)
class EnergyReport:
    """Discrete quadratures of the standard parabolic energy quantities.

    ``dissipation_ok`` is ``None`` (not checked) for a zero-source run in which
    some step recorded no dissipation form, as projector-splitting steps do.
    """

    l2_terminal: float
    v_integral: float  # sum tau * |u_n|_V^2 over accepted steps
    du_integral: float  # sum |u_n - u_{n-1}|^2 / tau
    v_sup: float
    data_l2_initial: float
    data_v_initial: float
    data_f_integral: float
    dissipation_ok: bool | None
    growth_suspected: bool


def energy_report(tr: Trajectory, problem) -> EnergyReport:
    """Quadratures of the energy quantities and the zero-source decay check.

    Arithmetic over the states' records: ``du_integral`` sums their
    ``step_distance`` s (NaN for a state no step made), and ``|f(t)|^2`` is
    the problem's ``rhs_norm_sq``, so no tensor is formed.

    With zero source, implicit Euler satisfies, per step and before
    retraction, ``|u+|^2 + 2 tau a(u+, u+) <= |u|^2``; the retraction only
    shrinks norms, so the accumulated inequality must hold up to round-off.
    The boundedness flags are qualitative: the theory's constants are not
    computable here, so only gross growth is flagged.
    """
    if not tr.states:
        raise InvalidArgumentError("empty trajectory")
    tau = tr.step_size
    states = tr.states
    l2_terminal = states[-1].energy_l2
    v_integral = float(sum(s.energy_v for s in states[1:]) * tau)
    du = 0.0
    for s in states[1:]:
        du += s.step_distance**2 / tau
    v_sup = float(max(s.energy_v for s in states))
    f_integral = 0.0
    for s in states[1:]:
        f_integral += problem.rhs_norm_sq(s.time) * tau
    dissipation_ok = True
    if f_integral == 0.0 and len(states) > 1:
        if any(np.isnan(s.dissipation_form) for s in states[1:]):
            dissipation_ok = None
        else:
            budget = states[-1].energy_l2
            for s in states[1:]:
                budget += 2.0 * tau * s.dissipation_form
            dissipation_ok = bool(budget <= states[0].energy_l2 * (1.0 + 1e-8))
    data = states[0].energy_l2 + states[0].energy_v + f_integral
    growth_suspected = v_sup > 1e6 * max(data, np.finfo(float).tiny)
    return EnergyReport(
        l2_terminal=float(l2_terminal),
        v_integral=v_integral,
        du_integral=float(du),
        v_sup=v_sup,
        data_l2_initial=float(states[0].energy_l2),
        data_v_initial=float(states[0].energy_v),
        data_f_integral=float(f_integral),
        dissipation_ok=dissipation_ok,
        growth_suspected=bool(growth_suspected),
    )


def dense_implicit_euler(problem, tau: float, t_end: float):
    """Reference solver on the full coefficient space (no rank constraint).

    Returns the time grid and the dense states.  Assembles the operator as an
    explicit matrix, so the ambient size may not exceed ``AMBIENT_LIMIT``
    (``OversizeError``).
    """
    dims = problem.disc.dims
    size = _check_ambient(dims)
    n_steps = _step_count(tau, t_end)
    states = [point_to_dense(problem.u0)]
    eye = np.eye(size)
    for n in range(n_steps):
        t_new = (n + 1) * tau
        op = problem.operator(t_new)
        amat = np.column_stack([op.apply(DenseTensor(dims, e)).data for e in eye])
        factors = problem.source_factors(t_new)
        fvec = np.zeros(dims)
        for j in range(factors[0].shape[1]):  # the rank-one source columns
            column = [(m, g[:, j : j + 1]) for m, g in enumerate(factors)]
            fvec += _multiply_modes(np.ones((1,) * len(dims)), column)
        y = np.linalg.solve(eye + tau * amat, states[-1].data + tau * fvec.ravel(order="F"))
        states.append(DenseTensor(dims, y))
    return np.arange(n_steps + 1) * tau, states
