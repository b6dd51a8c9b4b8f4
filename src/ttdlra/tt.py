"""Tensor-train representation, orthogonalization, and boundary diagnostics.

A tensor train stores ``X(i_0, ..., i_{d-1}) = G_0(i_0) G_1(i_1) ... G_{d-1}(i_{d-1})``
through order-3 cores ``G_m`` of shape ``(k_{m-1}, N_m, k_m)`` with
``k_{-1} = k_{d-1} = 1``.  Interface ``m`` (for ``m = 0, ..., d-2``) separates
modes ``{0..m}`` from ``{m+1..d-1}``; the singular values of the corresponding
unfolding are the interface spectrum, and their minimum over all interfaces
bounds the distance to the set of trains of strictly lower rank from above.
Spectra and tangent bases read a train's two QR sweeps, its :func:`_frame`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import _check_finite, _contract, _exponent, _frobenius, _norm, _qr, _svd
from .errors import DegeneratePointError, InvalidArgumentError

__all__ = [
    "TTTensor",
    "InterfaceSpectrum",
    "tt_from_dense",
    "tt_to_dense",
    "orthogonalize",
    "interface_spectrum",
    "boundary_gap",
    "truncate_interface",
    "tt_round",
    "tt_add",
    "tt_scale",
    "max_feasible_ranks",
    "generic_outer_ranks",
]

# Interface spectra below this relative size count as exact rank deficiency.
_DEGENERATE_REL = 1e-13


@dataclass(frozen=True)
class TTTensor:
    """Tensor train with an optional orthogonality marker.

    ``ortho_center = c`` records that cores left of ``c`` are left-orthogonal
    and cores right of ``c`` are right-orthogonal (the mixed canonical form);
    ``None`` records no orthogonality.  ``ortho_center = d-1`` is the fully
    left-orthogonal form, ``ortho_center = 0`` the fully right-orthogonal one.
    """

    cores: tuple
    ortho_center: int | None = field(default=None)

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=float) for c in self.cores)
        if len(cores) < 1:
            raise InvalidArgumentError("a tensor train needs at least one core")
        for c in cores:
            if c.ndim != 3:
                raise InvalidArgumentError("cores must be order-3 arrays")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise InvalidArgumentError("boundary interface sizes must be 1")
        for left, right in zip(cores[:-1], cores[1:]):
            if left.shape[2] != right.shape[0]:
                raise InvalidArgumentError(
                    f"interface sizes mismatch: {left.shape} vs {right.shape}"
                )
        object.__setattr__(self, "cores", cores)
        if self.ortho_center is not None and not (
            0 <= self.ortho_center < len(cores)
        ):
            raise InvalidArgumentError("orthogonality center out of range")

    @property
    def ndim(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple:
        """Interface sizes ``(k_0, ..., k_{d-2})`` without the boundary ones."""
        return tuple(c.shape[2] for c in self.cores[:-1])

    def norm(self) -> float:
        return _norm(orthogonalize(self, 0).cores[0])


@dataclass(frozen=True)
class InterfaceSpectrum:
    """Singular values of a family of unfoldings.

    ``splits`` lists the row-mode set of each unfolding; ``values`` holds the
    corresponding nonincreasing singular value arrays.
    """

    splits: tuple
    values: tuple

    def minimum(self) -> float:
        return float(min(v[-1] for v in self.values))


def _left_unfold(core) -> np.ndarray:
    kl, n, kr = core.shape
    return core.reshape(kl * n, kr)


def _right_unfold(core) -> np.ndarray:
    kl, n, kr = core.shape
    return core.reshape(kl, n * kr)


def max_feasible_ranks(dims) -> tuple:
    """Largest exact interface sizes for the given mode sizes."""
    d = len(dims)
    out = []
    for m in range(d - 1):
        left = int(np.prod(dims[: m + 1]))
        right = int(np.prod(dims[m + 1 :]))
        out.append(min(left, right))
    return tuple(out)


def generic_outer_ranks(dims, tt_ranks) -> tuple:
    """Outer ranks induced by the train ranks (the generic mode ranks); a
    single mode has only the full space."""
    if len(dims) == 1:
        return (dims[0],)
    k = (1,) + tuple(tt_ranks) + (1,)
    return tuple(min(n, k[m] * k[m + 1]) for m, n in enumerate(dims))


def _checked_caps(dims, ranks) -> tuple:
    """``ranks`` as interface size caps of a train over ``dims``: d - 1
    positive ints within :func:`max_feasible_ranks`."""
    ranks = tuple(int(k) for k in ranks)
    if len(ranks) != len(dims) - 1:
        raise InvalidArgumentError(f"expected {len(dims) - 1} interface sizes, got {len(ranks)}")
    if any(k < 1 for k in ranks):
        raise InvalidArgumentError("interface sizes must be positive")
    feasible = max_feasible_ranks(dims)
    if any(k > f for k, f in zip(ranks, feasible)):
        raise InvalidArgumentError(f"requested ranks {ranks} exceed the feasible {feasible}")
    return ranks


def tt_from_dense(x: np.ndarray, ranks=None, return_error=False):
    """Sweep of truncated SVDs turning an array into a train.

    Parameters
    ----------
    x : ndarray
    ranks : sequence of int, optional
        Interface size caps ``(k_0, ..., k_{d-2})``.  Must be feasible.
        Without caps the decomposition is exact.
    return_error : bool
        Also return the truncation error committed by the sweep.

    The reconstruction is exact whenever the input has interface ranks within
    the caps; otherwise the result is a quasi-best truncation.
    """
    x = np.asarray(x, dtype=float)
    dims, d = x.shape, x.ndim
    if d < 1 or x.size == 0:
        raise InvalidArgumentError(f"invalid mode sizes {dims}")
    if ranks is not None:
        ranks = _checked_caps(dims, ranks)
    carry = x.reshape((1,) + dims)
    cores, discarded = [], []
    for m in range(d - 1):
        kl = carry.shape[0]
        mat = carry.reshape(kl * dims[m], -1)
        u, s, vh = _svd(mat)
        # keep the numerical rank of the unfolding
        tol = max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        k = max(1, int(np.count_nonzero(s > tol)))
        if ranks is not None:
            k = min(k, ranks[m])
        discarded.append(s[k:])
        cores.append(u[:, :k].reshape(kl, dims[m], k))
        carry = (s[:k, None] * vh[:k]).reshape((k,) + dims[m + 1 :])
    cores.append(carry.reshape(carry.shape[0], dims[-1], 1))
    t = TTTensor(tuple(cores), ortho_center=d - 1)
    return (t, _discarded_norm(discarded)) if return_error else t


def _discarded_norm(pieces) -> float:
    """``sqrt(sum_m sum(pieces[m] ** 2))`` at scale (as ``dense._norm``), with the plain bits."""
    e = max((_exponent(p) for p in pieces), default=0)
    total = 0.0
    for p in pieces:
        total += float(np.sum(np.ldexp(p, -e) ** 2))
    return float(np.ldexp(np.sqrt(total), e))


def tt_to_dense(t: TTTensor) -> np.ndarray:
    """Contract the core chain into a column-major array of shape ``t.dims``."""
    acc = t.cores[0][0]  # (N_0, k_0)
    for core in t.cores[1:]:
        acc = _contract(acc, core, (acc.ndim - 1, 0))
    return np.asfortranarray(acc[..., 0])


def orthogonalize(t: TTTensor, site: int) -> TTTensor:
    """Return an equal-valued train in mixed canonical form with center ``site``.

    Cores left of ``site`` come out left-orthogonal and cores right of it
    right-orthogonal.  The represented tensor is unchanged up to round-off.
    """
    d = t.ndim
    if not 0 <= site < d:
        raise InvalidArgumentError(f"site {site} out of range for order {d}")
    cores = [c.copy() for c in t.cores]
    for m in range(site):
        q, r = _qr(_left_unfold(cores[m]))
        cores[m] = q.reshape(cores[m].shape[0], cores[m].shape[1], q.shape[1])
        cores[m + 1] = _contract(r, cores[m + 1], (1, 0))
    for m in range(d - 1, site, -1):
        q, r = _qr(_right_unfold(cores[m]).T)
        knew = q.shape[1]
        cores[m] = q.T.reshape(knew, cores[m].shape[1], cores[m].shape[2])
        cores[m - 1] = _contract(cores[m - 1], r.T, (2, 0))
    return TTTensor(tuple(cores), ortho_center=site)


def _frame(t: TTTensor, complete=True) -> tuple:
    """A train's two QR sweeps, ``(rights, lefts, centers)`` by interface m: the Q
    of core m+1 in a right sweep of reduced QRs (rows: its right index slowest),
    the complete Q (None unless ``complete``) of core m in a left sweep on the
    cores as given (rows: its mode slowest), and the k_m x k_m center K_m, the
    left carry times the right R transposed: the train is ``L_<=m K_m R_>m``."""
    for g in t.cores:
        _check_finite(g, "train core")
    lefts, carries = [], [np.ones((1, 1))]
    for g in t.cores[:-1]:
        mat = (carries[-1] @ g.transpose(1, 0, 2)).reshape(-1, g.shape[2])
        q, r = _qr(mat, "complete") if complete else (None, _qr(mat, "r"))
        lefts.append(q)
        carries.append(r[: g.shape[2]])
    cores, rights, centers = list(t.cores), [], []
    for m in range(t.ndim - 1, 0, -1):
        q, r = _qr(cores[m].transpose(2, 1, 0).reshape(-1, cores[m].shape[0]))
        rights.insert(0, q)
        centers.insert(0, carries[m] @ r.T)
        cores[m - 1] = cores[m - 1] @ r.T
    return tuple(rights), tuple(lefts), tuple(centers)


def interface_spectrum(t: TTTensor) -> InterfaceSpectrum:
    """Singular values of every prefix unfolding ``{0..m} | {m+1..d-1}``, those
    of the centers of the train's :func:`_frame`; interface ``m`` has ``k_m``."""
    values = tuple(_svd(k, "values") for k in _frame(t, complete=False)[2])
    return InterfaceSpectrum(tuple(tuple(range(m + 1)) for m in range(len(values))), values)


def boundary_gap(t: TTTensor) -> float:
    """Smallest interface singular value over all prefix unfoldings.

    This quantity scales linearly under positive scaling of the train and
    bounds the distance to the relative boundary (where some interface rank
    drops) from above.  For matrices (``d = 2``) it equals that distance.
    """
    if t.ndim == 1:
        g = float(_frobenius(t.cores[0]))
        if g == 0.0:
            raise DegeneratePointError("zero tensor has no boundary gap")
        return g
    spec = interface_spectrum(t)
    gap = spec.minimum()
    scale = max(float(v[0]) for v in spec.values)
    if gap <= _DEGENERATE_REL * scale or gap == 0.0:
        raise DegeneratePointError(
            f"interface spectrum is numerically rank deficient (gap {gap:.3e})"
        )
    return gap


def truncate_interface(t: TTTensor, interface: int) -> TTTensor:
    """Project out the smallest singular direction at one interface.

    The result lies in the closure of the trains whose rank at ``interface``
    is one lower, at distance exactly the smallest interface singular value.
    For rank one at that interface the zero tensor is returned.
    """
    d = t.ndim
    if not 0 <= interface < d - 1:
        raise InvalidArgumentError(f"interface {interface} out of range")
    work = orthogonalize(t, interface)
    cores = [c.copy() for c in work.cores]
    center = cores[interface]
    kl, n, kr = center.shape
    u, s, vh = _svd(_left_unfold(center))
    if kr == 1:
        zero = [np.zeros_like(c) for c in cores]
        return TTTensor(tuple(zero))
    keep = kr - 1
    cores[interface] = u[:, :keep].reshape(kl, n, keep)
    carry = s[:keep, None] * vh[:keep]
    cores[interface + 1] = _contract(carry, cores[interface + 1], (1, 0))
    return TTTensor(tuple(cores))


def tt_round(t: TTTensor, ranks=None, return_error=False):
    """Quasi-optimal truncation of a train to lower interface sizes.

    One left-orthogonalization sweep followed by a right-to-left sweep of
    truncated SVDs.  The committed error is reported on request.
    """
    d = t.ndim
    if d == 1:
        return (t, 0.0) if return_error else t
    if ranks is not None:
        ranks = tuple(int(k) for k in ranks)
        if len(ranks) != d - 1 or any(k < 1 for k in ranks):
            raise InvalidArgumentError("invalid interface size caps")
    work = orthogonalize(t, d - 1)
    cores, discarded = [c.copy() for c in work.cores], []
    for m in range(d - 1, 0, -1):
        mat = _right_unfold(cores[m])
        u, s, vh = _svd(mat)
        k = s.size
        if ranks is not None:
            k = min(k, ranks[m - 1])
        discarded.append(s[k:])
        cores[m] = vh[:k].reshape(k, cores[m].shape[1], cores[m].shape[2])
        carry = u[:, :k] * s[:k]
        cores[m - 1] = _contract(cores[m - 1], carry, (2, 0))
    out = TTTensor(tuple(cores), ortho_center=0)
    return (out, _discarded_norm(discarded)) if return_error else out


def tt_add(a: TTTensor, b: TTTensor) -> TTTensor:
    """Direct-sum representation of ``a + b`` (interface sizes add up)."""
    if a.dims != b.dims:
        raise InvalidArgumentError(f"mode sizes differ: {a.dims} vs {b.dims}")
    d = a.ndim
    if d == 1:
        return TTTensor((a.cores[0] + b.cores[0],))
    cores = []
    for m in range(d):
        ca, cb = a.cores[m], b.cores[m]
        n = ca.shape[1]
        if m == 0:
            core = np.concatenate([ca, cb], axis=2)
        elif m == d - 1:
            core = np.concatenate([ca, cb], axis=0)
        else:
            kl = ca.shape[0] + cb.shape[0]
            kr = ca.shape[2] + cb.shape[2]
            core = np.zeros((kl, n, kr))
            core[: ca.shape[0], :, : ca.shape[2]] = ca
            core[ca.shape[0] :, :, ca.shape[2] :] = cb
        cores.append(core)
    return TTTensor(tuple(cores))


def tt_scale(t: TTTensor, s: float) -> TTTensor:
    cores = list(t.cores)
    cores[0] = cores[0] * float(s)
    return TTTensor(tuple(cores), ortho_center=t.ortho_center)
