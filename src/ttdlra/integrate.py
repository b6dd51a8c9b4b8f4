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

The Galerkin solve runs in explicit orthonormal tangent coordinates; the
reduced matrix is assembled from small contractions of the core with
factor-compressed operator blocks.  The ambient ``n^d`` tensor is not formed
either: ``u + v`` stays a Tucker tensor with factors ``[U^m, Udot^m]`` and a
``(2r)^d`` block core, the sweep's result and the source stay trains, and
:func:`~ttdlra.retraction.retract_tucker` retracts on a small core.  The
energy report takes state differences through their factors as well; only
the reference solver :func:`dense_implicit_euler` works in the ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor, matricize
from .errors import BreakdownError, InvalidArgumentError, NotOnManifoldError
from .manifold import ManifoldPoint, point_boundary_gap, point_to_dense
from .retraction import orthonormal_tucker, retract_tucker, stack_tucker, train_as_tucker
from .retraction import retract  # noqa: F401  perfbench/test_tracer.py looks it up here
from .tangent import TangentBasis, TangentVector
from .tt import TTTensor, orthogonalize, tt_to_dense

__all__ = [
    "EvolutionState",
    "Trajectory",
    "BreakdownRecord",
    "BREAKDOWN_REL",
    "state_from_point",
    "step_projected_implicit_euler",
    "step_projector_splitting",
    "solve",
    "energy_report",
    "EnergyReport",
    "dense_implicit_euler",
    "reduced_operator_matrix",
    "reduced_point_image",
    "reduced_rhs_coords",
    "operator_quadratic_form",
]

# states whose boundary gap falls below this fraction of the norm stop the run
BREAKDOWN_REL = 1e-8


@dataclass(frozen=True)
class EvolutionState:
    """One accepted snapshot of the evolution in orthonormal coordinates."""

    time: float
    point: ManifoldPoint
    gap: float
    energy_l2: float
    energy_v: float
    tangent_residual: float = 0.0
    retraction_defect: float = 0.0
    dissipation_form: float = 0.0  # a(u+, u+) of the pre-retraction update


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
# reduced Galerkin assembly in tangent coordinates
# ---------------------------------------------------------------------------


def _mode_apply_batched(arr, mat, mode):
    out = np.tensordot(mat, arr, axes=(1, mode))
    return np.moveaxis(out, 0, mode)


class _Hats:
    """Factor-compressed blocks of one small matrix on one mode.

    ``a = U^T M U``, ``b = Qperp^T M U``, ``c = U^T M Qperp``,
    ``d = Qperp^T M Qperp``; identity modes short-circuit.
    """

    def __init__(self, basis: TangentBasis):
        self.basis = basis
        self._cache = {}

    def get(self, mode, mat):
        key = (mode, id(mat))
        if key not in self._cache:
            u = self.basis.point.factors[mode]
            q = self.basis.qperp[mode]
            mu = mat @ u
            mq = mat @ q
            self._cache[key] = (u.T @ mu, q.T @ mu, u.T @ mq, q.T @ mq)
        return self._cache[key]

    def identity(self, mode):
        u = self.basis.point.factors[mode]
        q = self.basis.qperp[mode]
        return (
            np.eye(u.shape[1]),
            np.zeros((q.shape[1], u.shape[1])),
            np.zeros((u.shape[1], q.shape[1])),
            np.eye(q.shape[1]),
        )


def _term_hats(hats: _Hats, term):
    d = hats.basis.point.ndim
    out = []
    factor_map = dict(term.factors)
    for m in range(d):
        if m in factor_map:
            out.append(hats.get(m, factor_map[m]))
        else:
            out.append(hats.identity(m))
    return out, set(factor_map)


def _core_batched(basis: TangentBasis):
    rdims = basis.point.outer_ranks
    q = basis.core_basis.shape[1]
    return basis.core_basis.reshape(rdims + (q,), order="F")


def _apply_ahats(arr, term_hats, skip=()):
    """Mode-multiply the ``a`` blocks on all modes not in ``skip``."""
    out = arr
    for m, blocks in enumerate(term_hats):
        if m in skip:
            continue
        out = _mode_apply_batched(out, blocks[0], m)
    return out


def reduced_operator_matrix(basis: TangentBasis, op) -> np.ndarray:
    """Tangent-coordinate Galerkin matrix ``V^T A V`` of a sum-of-products
    operator, assembled blockwise from small contractions."""
    p = basis.point
    d = p.ndim
    core = p.core_dense().to_array()
    cb = _core_batched(basis)
    nblocks = basis.block_sizes
    offsets = np.concatenate([[0], np.cumsum(nblocks)]).astype(int)
    dim = basis.dim
    hmat = np.zeros((dim, dim))
    hats = _Hats(basis)
    all_axes = list(range(d))
    for term in op.terms:
        th, _ = _term_hats(hats, term)
        c = term.coeff
        # core-core block
        wb = _apply_ahats(cb, th)
        wflat = wb.reshape(-1, cb.shape[-1], order="F")
        hmat[: offsets[1], : offsets[1]] += c * (basis.core_basis.T @ wflat)
        # core ~ mode blocks
        wc = _apply_ahats(core, th)  # no batch axis
        for nu in range(d):
            w_nu = _apply_ahats(cb, th, skip=(nu,))
            other = [ax for ax in all_axes if ax != nu]
            # t2[j, k, K] with k from the basis side, K from the point core
            t2 = np.tensordot(w_nu, core, axes=(other, other))
            t2 = np.moveaxis(t2, 1, 0)  # batch axis first
            blk = np.einsum("jkK,Kd,qk->jqd", t2, basis.rmap[nu], th[nu][1])
            blk = blk.reshape(offsets[1], nblocks[nu + 1], order="F")
            hmat[: offsets[1], offsets[nu + 1] : offsets[nu + 2]] += c * blk
            hmat[offsets[nu + 1] : offsets[nu + 2], : offsets[1]] += c * blk.T
        # mode ~ mode blocks
        for mu in range(d):
            w_mu = _apply_ahats(core, th, skip=(mu,))
            other = [ax for ax in all_axes if ax != mu]
            t2c = np.tensordot(w_mu, core, axes=(other, other))
            m2 = basis.rmap[mu].T @ t2c @ basis.rmap[mu]
            blk = np.kron(m2, th[mu][3].T)
            hmat[
                offsets[mu + 1] : offsets[mu + 2], offsets[mu + 1] : offsets[mu + 2]
            ] += c * blk
            for nu in range(mu + 1, d):
                w_mn = _apply_ahats(core, th, skip=(mu, nu))
                other2 = [ax for ax in all_axes if ax not in (mu, nu)]
                t4 = np.tensordot(w_mn, core, axes=(other2, other2))
                # t4[a, b, A, B]: a,b from the mapped core at (mu, nu); A,B plain
                blk = np.einsum(
                    "abAB,Ap,ag,Bd,qb->pgqd",
                    t4,
                    th[mu][2],
                    basis.rmap[mu],
                    basis.rmap[nu],
                    th[nu][1],
                    optimize=True,
                )
                blk = blk.reshape(nblocks[mu + 1], nblocks[nu + 1], order="F")
                hmat[
                    offsets[mu + 1] : offsets[mu + 2], offsets[nu + 1] : offsets[nu + 2]
                ] += c * blk
                hmat[
                    offsets[nu + 1] : offsets[nu + 2], offsets[mu + 1] : offsets[mu + 2]
                ] += c * blk.T
    return hmat


def reduced_point_image(basis: TangentBasis, op) -> np.ndarray:
    """Tangent coordinates of ``A`` applied to the base point itself."""
    p = basis.point
    d = p.ndim
    core = p.core_dense().to_array()
    hats = _Hats(basis)
    parts_core = np.zeros(basis.block_sizes[0])
    parts_modes = [np.zeros(s) for s in basis.block_sizes[1:]]
    all_axes = list(range(d))
    for term in op.terms:
        th, _ = _term_hats(hats, term)
        c = term.coeff
        wc = _apply_ahats(core, th)
        parts_core += c * (basis.core_basis.T @ wc.ravel(order="F"))
        for nu in range(d):
            w_nu = _apply_ahats(core, th, skip=(nu,))
            other = [ax for ax in all_axes if ax != nu]
            t2c = np.tensordot(w_nu, core, axes=(other, other))
            blk = np.einsum("bB,Bd,qb->qd", t2c, basis.rmap[nu], th[nu][1])
            parts_modes[nu] += c * blk.ravel(order="F")
    return np.concatenate([parts_core] + parts_modes)


def operator_quadratic_form(point: ManifoldPoint, op) -> float:
    """``<A u, u>`` for a manifold point, via factor-compressed contractions."""
    if isinstance(point, TangentBasis):
        point = point.point
    core = point.core_dense().to_array()
    total = 0.0
    for term in op.terms:
        w = core
        factor_map = dict(term.factors)
        for m, u in enumerate(point.factors):
            mat = factor_map.get(m)
            small = u.T @ (mat @ u) if mat is not None else np.eye(u.shape[1])
            w = _mode_apply_batched(w, small, m)
        total += term.coeff * float(np.tensordot(w, core, axes=core.ndim))
    return total


def _compress_tt(f: TTTensor, factors, skip=None) -> DenseTensor:
    cores = list(f.cores)
    for m, u in enumerate(factors):
        if m == skip:
            continue
        cores[m] = np.einsum("ij,ajb->aib", u.T, cores[m])
    return tt_to_dense(TTTensor(tuple(cores)))


def reduced_rhs_coords(basis: TangentBasis, f: TTTensor) -> np.ndarray:
    """Tangent coordinates of a train-format source tensor."""
    p = basis.point
    parts = [basis.core_basis.T @ _compress_tt(f, p.factors).data]
    for m in range(p.ndim):
        fm = matricize(_compress_tt(f, p.factors, skip=m), {m})
        theta = basis.qperp[m].T @ fm @ basis.qright[m]
        parts.append(theta.ravel(order="F"))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# states and schemes
# ---------------------------------------------------------------------------


def state_from_point(point: ManifoldPoint, t: float, disc, **diag) -> EvolutionState:
    from .fem import laplacian_operator

    return EvolutionState(
        time=float(t),
        point=point,
        gap=point_boundary_gap(point),
        energy_l2=point.norm() ** 2,
        energy_v=operator_quadratic_form(point, laplacian_operator(disc)),
        **diag,
    )


def _point_plus_tangent(v: TangentVector) -> tuple:
    """Tucker form of ``u + v = (C + Cdot) x U + sum_m C x_m Udot^m x U``:
    factors ``[U^m, Udot^m]``, ``C + Cdot`` in core block ``(0, ..., 0)`` and
    ``C`` in each block with a single 1."""
    p = v.base
    d = p.ndim
    core = p.core_dense().to_array()
    blocks = {(0,) * d: core + v.core_velocity.to_array()}
    for m in range(d):
        blocks[tuple(int(j == m) for j in range(d))] = core
    return stack_tucker(blocks, [[u, ud] for u, ud in zip(p.factors, v.factor_velocities)])


def _retract_step(tucker, p: ManifoldPoint):
    """Factored retraction of a step's update to the ranks of ``p``."""
    tt_ranks = p.core.ranks if p.tt_core else None
    try:
        return retract_tucker(*tucker, p.outer_ranks, tt_ranks)
    except NotOnManifoldError as exc:
        raise BreakdownError(f"rank collapse during retraction: {exc}") from exc


def step_projected_implicit_euler(state: EvolutionState, tau: float, problem) -> EvolutionState:
    """One implicit Euler step in the current tangent space, then retraction."""
    if tau <= 0:
        raise InvalidArgumentError("step size must be positive")
    p = state.point
    if p.ndim < 2:
        raise InvalidArgumentError(
            "the projected scheme needs at least two modes; a single mode is "
            "the unconstrained problem (use the splitting scheme)"
        )
    t_new = state.time + tau
    op = problem.operator(t_new)
    f_tt = problem.rhs_tt(t_new)
    basis = TangentBasis(p)

    hmat = reduced_operator_matrix(basis, op)
    au = reduced_point_image(basis, op)
    b = (reduced_rhs_coords(basis, f_tt) if f_tt is not None else 0.0) - au
    system = hmat + np.eye(basis.dim) / tau
    coords = np.linalg.solve(system, b)
    resid = np.linalg.norm(system @ coords - b)
    resid /= max(np.linalg.norm(b), np.finfo(float).tiny)

    # pre-retraction energy identity data:
    # a(u+v, u+v) = a(u,u) + 2 <A u, v> + <A v, v>
    a_uu = operator_quadratic_form(p, op)
    a_form = a_uu + 2.0 * float(au @ coords) + float(coords @ hmat @ coords)

    u_plus = _point_plus_tangent(basis.to_tangent(coords))
    new_point, defect = _retract_step(u_plus, p)
    return state_from_point(
        new_point,
        t_new,
        problem.disc,
        tangent_residual=float(resid),
        retraction_defect=float(defect),
        dissipation_form=float(a_form),
    )


# -- projector splitting ----------------------------------------------------


def _point_to_ambient_tt(p: ManifoldPoint) -> TTTensor:
    cores = list(p.core.cores)
    for m, u in enumerate(p.factors):
        cores[m] = np.einsum("ij,ajb->aib", u, cores[m])
    return TTTensor(tuple(cores))


def _generic_outer_ranks(dims, tt_ranks):
    if len(dims) == 1:
        return (dims[0],)  # single mode: the full space
    k = (1,) + tuple(tt_ranks) + (1,)
    return tuple(min(n, k[m] * k[m + 1]) for m, n in enumerate(dims))


def _term_matrices(term, d):
    mats = {m: mat for m, mat in term.factors}
    return [mats.get(m) for m in range(d)]


def _env_update_left(env, core, mat, trial=None):
    # env[a, a'] -> contract with core (a, j, b), mat on j, the trial core
    # (default: core again) on the second index
    trial = core if trial is None else trial
    tmp = np.tensordot(env, trial, axes=(1, 0))  # a, j, b
    if mat is not None:
        tmp = np.tensordot(mat, tmp, axes=(1, 1))  # j', a, b
        tmp = np.moveaxis(tmp, 0, 1)
    return np.tensordot(core, tmp, axes=([0, 1], [0, 1]))  # b', b


def _env_update_right(env, core, mat, trial=None):
    # env and the result are ordered (test side, trial side)
    trial = core if trial is None else trial
    tmp = np.tensordot(trial, env, axes=(2, 1))  # a', j, c
    if mat is not None:
        tmp = np.tensordot(mat, tmp, axes=(1, 1))  # j', a', c
        tmp = np.moveaxis(tmp, 0, 1)
    return np.tensordot(core, tmp, axes=([1, 2], [1, 2]))  # a, a'


def step_projector_splitting(state: EvolutionState, tau: float, problem) -> EvolutionState:
    """One first-order splitting sweep with implicit Euler substeps.

    Operates on the ambient train representation; the outer ranks of the
    point must be the generic ones induced by the train ranks.  For a single
    mode the sweep degenerates to one full implicit Euler step.
    """
    if tau <= 0:
        raise InvalidArgumentError("step size must be positive")
    p = state.point
    if not p.tt_core:
        raise InvalidArgumentError("the splitting sweep needs a train-format core")
    dims = p.dims
    d = p.ndim
    tt_ranks = p.core.ranks
    if p.outer_ranks != _generic_outer_ranks(dims, tt_ranks):
        raise InvalidArgumentError(
            "the splitting sweep requires generic outer ranks "
            f"{_generic_outer_ranks(dims, tt_ranks)}, got {p.outer_ranks}"
        )
    t_new = state.time + tau
    op = problem.operator(t_new)
    f_tt = problem.rhs_tt(t_new)

    y = orthogonalize(_point_to_ambient_tt(p), 0)
    cores = [c.copy() for c in y.cores]
    terms = [(term.coeff, _term_matrices(term, d)) for term in op.terms]

    # right environments per term at every interface
    right_envs = [[None] * (d + 1) for _ in terms]
    for it, (_, mats) in enumerate(terms):
        env = np.ones((1, 1))
        right_envs[it][d] = env
        for m in range(d - 1, -1, -1):
            env = _env_update_right(env, cores[m], mats[m])
            right_envs[it][m] = env
    left_envs = [np.ones((1, 1)) for _ in terms]

    # the source enters through the same environments, with its train cores
    # on the trial side: its projections onto the prefix and suffix bases
    if f_tt is not None:
        right_f = [None] * d + [np.ones((1, 1))]
        for m in range(d - 1, 0, -1):
            right_f[m] = _env_update_right(right_f[m + 1], cores[m], None, f_tt.cores[m])
        left_f = np.ones((1, 1))

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
        rhs = k0.copy()
        if f_tt is not None:
            f_eff = np.einsum("ac,cjd,bd->ajb", left_f, f_tt.cores[m], right_f[m + 1])
            rhs += tau * f_eff.reshape(size)
        k1 = np.linalg.solve(np.eye(size) + tau * a_eff, rhs)
        if m == d - 1:
            cores[m] = k1.reshape(kl, n, kr)
            break
        q, rfac = np.linalg.qr(k1.reshape(kl * n, kr))
        cores[m] = q.reshape(kl, n, q.shape[1])
        # advance the environments through the new core
        for it, (c, mats) in enumerate(terms):
            left_envs[it] = _env_update_left(left_envs[it], cores[m], mats[m])
        if f_tt is not None:
            left_f = _env_update_left(left_f, cores[m], None, f_tt.cores[m])
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
        s1 = s0 + tau * (a_s @ s0)
        if f_tt is not None:
            s1 -= tau * (left_f @ right_f[m + 1].T).reshape(ks * ks)
        cores[m + 1] = np.tensordot(
            s1.reshape(ks, ks), cores[m + 1], axes=(1, 0)
        )

    new_point, defect = _retract_step(train_as_tucker(TTTensor(tuple(cores))), p)
    return state_from_point(
        new_point,
        t_new,
        problem.disc,
        tangent_residual=0.0,
        retraction_defect=float(defect),
        dissipation_form=float("nan"),
    )


_SCHEMES = {
    "projected_euler": step_projected_implicit_euler,
    "projector_splitting": step_projector_splitting,
}


def solve(problem, scheme: str, tau: float, t_end: float) -> Trajectory:
    """March from the initial point until ``t_end`` or rank breakdown.

    Every accepted state keeps a boundary gap above ``BREAKDOWN_REL`` times
    the norm; a state below the threshold is recorded as the final entry
    together with a breakdown record, and the run stops there.
    """
    if scheme not in _SCHEMES:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}")
    if tau <= 0 or t_end < 0:
        raise InvalidArgumentError("need tau > 0 and t_end >= 0")
    step = _SCHEMES[scheme]
    state = state_from_point(problem.u0, 0.0, problem.disc)
    threshold = BREAKDOWN_REL * np.sqrt(state.energy_l2)
    if state.gap <= threshold:
        raise InvalidArgumentError(
            f"initial boundary gap {state.gap:.3e} is below the breakdown "
            f"threshold {threshold:.3e}"
        )
    states = [state]
    breakdown = None
    n_steps = int(round(t_end / tau)) if t_end > 0 else 0
    for _ in range(n_steps):
        try:
            state = step(state, tau, problem)
        except BreakdownError:
            breakdown = BreakdownRecord(time=state.time + tau, gap=0.0)
            break
        states.append(state)
        threshold = BREAKDOWN_REL * np.sqrt(state.energy_l2)
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
    """Discrete quadratures of the standard parabolic energy quantities."""

    l2_terminal: float
    v_integral: float  # sum tau * |u_n|_V^2 over accepted steps
    du_integral: float  # sum |u_n - u_{n-1}|^2 / tau
    v_sup: float
    data_l2_initial: float
    data_v_initial: float
    data_f_integral: float
    dissipation_ok: bool
    growth_suspected: bool


def energy_report(tr: Trajectory, problem) -> EnergyReport:
    """Quadratures of the energy quantities and the zero-source decay check.

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
    for a, b in zip(states[:-1], states[1:]):
        # u_a - u_b: factors [U_a, U_b] and block-diagonal core (C_a, -C_b)
        ca, cb = a.point.core_dense().to_array(), b.point.core_dense().to_array()
        blocks = {(0,) * ca.ndim: ca, (1,) * ca.ndim: -cb}
        diff = stack_tucker(blocks, [list(ws) for ws in zip(a.point.factors, b.point.factors)])
        du += orthonormal_tucker(*diff)[0].norm() ** 2 / tau
    v_sup = float(max(s.energy_v for s in states))
    f_integral = 0.0
    for s in states[1:]:
        f = problem.rhs_tt(s.time)
        f_integral += (f.norm() ** 2 if f is not None else 0.0) * tau
    dissipation_ok = True
    if f_integral == 0.0 and len(states) > 1:
        acc = states[0].energy_l2
        budget = states[-1].energy_l2
        for s in states[1:]:
            if np.isnan(s.dissipation_form):
                dissipation_ok = False
                break
            budget += 2.0 * tau * s.dissipation_form
        dissipation_ok = dissipation_ok and budget <= acc * (1.0 + 1e-8)
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
        dissipation_ok=bool(dissipation_ok),
        growth_suspected=bool(growth_suspected),
    )


def dense_implicit_euler(problem, tau: float, t_end: float):
    """Reference solver on the full coefficient space (no rank constraint).

    Returns the time grid and the dense states.  Assembles the operator as an
    explicit matrix, so this is restricted to small ambient sizes.
    """
    dims = problem.disc.dims
    size = int(np.prod(dims))
    if size > 4096:
        raise InvalidArgumentError("dense reference limited to small grids")
    y = point_to_dense(problem.u0).data.copy()
    times = [0.0]
    states = [DenseTensor(dims, y.copy())]
    n_steps = int(round(t_end / tau)) if t_end > 0 else 0
    eye = np.eye(size)
    for n in range(n_steps):
        t_new = (n + 1) * tau
        op = problem.operator(t_new)
        amat = np.zeros((size, size))
        for j in range(size):
            e = np.zeros(size)
            e[j] = 1.0
            amat[:, j] = op.apply(DenseTensor(dims, e)).data
        f = problem.rhs_tt(t_new)
        fvec = tt_to_dense(f).data if f is not None else np.zeros(size)
        y = np.linalg.solve(eye + tau * amat, y + tau * fvec)
        times.append(t_new)
        states.append(DenseTensor(dims, y.copy()))
    return np.array(times), states
