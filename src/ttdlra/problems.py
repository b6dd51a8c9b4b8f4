"""Problem definitions: diffusion data, separable sources, low-rank initial data.

A problem couples a tensor-product grid with an affine-in-time diffusion
matrix, a separable source, and an initial manifold point, all expressed in
mass-orthonormal coordinates.  Problems are constructed programmatically or
from a JSON-compatible dictionary; see :func:`problem_from_config` for the
schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .fem import (
    DiffusionCoefficient,
    Discretization,
    SourceTerm,
    TTOperator,
    assemble_operator,
    build_fem1d,
    mass_orthonormalize,
    profile_values,
    source_loads,
)
from .manifold import ManifoldPoint, make_point
from .retraction import retract_train
from .retraction import retract  # noqa: F401  perfbench/test_tracer.py looks it up here
from .tt import TTTensor, tt_add, tt_from_dense, tt_round
from .tt import generic_outer_ranks  # noqa: F401  re-exported

__all__ = [
    "ParabolicProblem",
    "problem_from_config",
    "heat_problem",
    "rank_collapse_problem",
]


@dataclass(frozen=True)
class ParabolicProblem:
    """Semidiscrete anisotropic diffusion problem on a low-rank manifold."""

    disc: Discretization
    diffusion: DiffusionCoefficient
    sources: tuple
    u0: ManifoldPoint
    t_end: float
    outer_ranks: tuple
    tt_ranks: tuple | None
    # the source as one factored object, computed once: per mode the n_m x s
    # matrix of the terms' mode loads (only the weights c(t) depend on time),
    # and their Gram matrix, the entrywise product of the G_m^T G_m, for |f(t)|
    loads: tuple = field(init=False, repr=False, compare=False)
    load_gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "loads", source_loads(self.sources, self.disc))
        gram = np.ones((len(self.sources),) * 2)
        for g in self.loads:
            gram = gram * (g.T @ g)
        object.__setattr__(self, "load_gram", gram)

    def operator(self, t: float) -> TTOperator:
        return assemble_operator(self.diffusion, self.disc, t)

    def source_factors(self, t: float) -> tuple:
        """The mode loads with mode 0's column j scaled by ``c_j(t)``: the
        source ``f(t) = sum_j (x)_m G_m[:, j]``, as rank-one columns."""
        c = np.array([term.coefficient(t) for term in self.sources])
        return (self.loads[0] * c,) + self.loads[1:]

    def rhs_norm_sq(self, t: float) -> float:
        """``|f(t)|^2 = c(t)^T G c(t)``, ``G`` the ``load_gram``; clamped at 0,
        so zero coefficients give exactly 0.0."""
        c = np.array([term.coefficient(t) for term in self.sources])
        return max(float(c @ self.load_gram @ c), 0.0)

    @property
    def dims(self) -> tuple:
        return self.disc.dims


# -- profile vocabulary for configuration files ------------------------------


def _profile(spec):
    if isinstance(spec, dict):
        kind = spec.get("kind", "sine")
    else:
        kind, spec = str(spec), {}
    if kind == "sine":
        freq = float(spec.get("frequency", 1.0))
        f = lambda x: np.sin(freq * np.pi * x)  # noqa: E731
    elif kind == "constant":
        f = lambda x: 1.0  # noqa: E731
    elif kind == "bump":
        f = lambda x: x * (1.0 - x)  # noqa: E731
    else:
        raise ConfigError(f"unknown profile kind {kind!r}")
    f.__qualname__ = repr(spec or kind)  # the name profile_values reports
    return f


def _time_poly(coeffs):
    coeffs = tuple(float(c) for c in coeffs)

    def evaluate(t):
        return sum(c * t**i for i, c in enumerate(coeffs))

    return evaluate


def _initial_point(
    disc: Discretization, terms, outer_ranks, tt_ranks
) -> ManifoldPoint:
    """Nodal interpolation of a separable sum, transformed and retracted.

    Each profile is called once, on the array of its mode's interior nodes.
    With ``outer_ranks=None`` the mode ranks are read off the train (after
    rounding to the train ranks), so the initial point carries exact ranks.
    """
    if not terms:
        raise ConfigError("initial data needs at least one separable term")
    acc = None
    for coefficient, profiles in terms:
        cores = []
        for m, fem in enumerate(disc.fems):
            nodes = (np.arange(fem.n_interior) + 1) * fem.h
            vals = profile_values(profiles[m], nodes)
            cores.append(disc.to_orthonormal_1d(vals, m).reshape(1, -1, 1))
        cores[0] = cores[0] * float(coefficient)
        piece = TTTensor(tuple(cores))
        acc = piece if acc is None else tt_add(acc, piece)
    if tt_ranks is not None:
        acc = tt_round(acc, ranks=tt_ranks)
    return retract_train(acc, outer_ranks, tt_ranks)


def problem_from_config(config: dict) -> tuple:
    """Build ``(problem, run_options)`` from a JSON-compatible dictionary.

    Schema::

        {
          "dims": 3,                     # number of coordinate directions
          "cells": 16,                   # cells per direction (int or list)
          "b0": [[...], ...],            # symmetric d x d, default identity
          "b1": [[...], ...],            # symmetric drift, default zero
          "t_end": 0.1,
          "tau": 0.005,
          "scheme": "projected_euler",   # or "projector_splitting"
          "tt_ranks": [2, 2],            # null for a plain Tucker core
          "outer_ranks": "auto",         # or an explicit list
          "initial": [
            {"coefficient": 1.0,
             "profiles": [{"kind": "sine", "frequency": 1}, ...]}
          ],
          "sources": [
            {"time_poly": [1.0], "profiles": [...]}
          ]
        }
    """
    try:
        d = int(config["dims"])
        if d < 1:
            raise ConfigError("dims must be at least 1")
        cells = config.get("cells", 8)
        if isinstance(cells, (int, float)):
            cells = [int(cells)] * d
        cells = [int(c) for c in cells]
        if len(cells) != d:
            raise ConfigError("cells list does not match dims")
        t_end = float(config.get("t_end", 0.1))
        tau = float(config.get("tau", 0.01))
        scheme = str(config.get("scheme", "projected_euler"))
        b0 = np.asarray(config.get("b0", np.eye(d)), dtype=float)
        b1 = np.asarray(config.get("b1", np.zeros((d, d))), dtype=float)
        diffusion = DiffusionCoefficient(b0, b1, horizon=max(t_end, 1e-12))
        disc = mass_orthonormalize([build_fem1d(c) for c in cells])
        tt_ranks = config.get("tt_ranks", None)
        if tt_ranks is not None:
            tt_ranks = tuple(int(k) for k in tt_ranks)
            if len(tt_ranks) != d - 1:
                raise ConfigError("tt_ranks must have dims - 1 entries")
        outer = config.get("outer_ranks", "auto")
        if outer == "auto":
            outer = None  # read the mode ranks off the assembled initial data
        else:
            outer = tuple(int(r) for r in outer)
            if len(outer) != d:
                raise ConfigError("outer_ranks must have dims entries")
        init_terms = []
        for term in config.get("initial", []):
            profiles = [_profile(s) for s in term["profiles"]]
            if len(profiles) != d:
                raise ConfigError("initial term profile count does not match dims")
            init_terms.append((float(term.get("coefficient", 1.0)), profiles))
        sources = []
        for term in config.get("sources", []):
            profiles = tuple(_profile(s) for s in term["profiles"])
            if len(profiles) != d:
                raise ConfigError("source term profile count does not match dims")
            sources.append(
                SourceTerm(time_coeff=_time_poly(term.get("time_poly", [1.0])), profiles=profiles)
            )
        u0 = _initial_point(disc, init_terms, outer, tt_ranks)
        # the source loads are evaluated here, so a bad profile is a config error
        problem = ParabolicProblem(
            disc=disc,
            diffusion=diffusion,
            sources=tuple(sources),
            u0=u0,
            t_end=t_end,
            outer_ranks=u0.outer_ranks if outer is None else outer,
            tt_ranks=tt_ranks,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, InvalidArgumentError) as exc:
        raise ConfigError(f"invalid problem configuration: {exc}") from exc
    return problem, {"tau": tau, "scheme": scheme, "t_end": t_end}


def heat_problem(
    d: int,
    n_cells: int,
    tt_ranks,
    b0=None,
    b1=None,
    sources=(),
    initial_terms=None,
    outer_ranks=None,
    t_end=0.1,
) -> ParabolicProblem:
    """Programmatic construction used by tests and demonstration scripts; the
    profiles of ``initial_terms`` and ``sources`` are called on point arrays."""
    disc = mass_orthonormalize([build_fem1d(n_cells) for _ in range(d)])
    b0 = np.eye(d) if b0 is None else np.asarray(b0, dtype=float)
    b1 = np.zeros((d, d)) if b1 is None else np.asarray(b1, dtype=float)
    diffusion = DiffusionCoefficient(b0, b1, horizon=max(t_end, 1e-12))
    tt_ranks = tuple(tt_ranks) if tt_ranks is not None else None
    if initial_terms is None:
        base = [lambda x: np.sin(np.pi * x)] * d
        second = [lambda x: np.sin(2 * np.pi * x)] * d
        initial_terms = [(1.0, base), (0.35, second)]
    u0 = _initial_point(disc, initial_terms, outer_ranks, tt_ranks)
    return ParabolicProblem(
        disc=disc,
        diffusion=diffusion,
        sources=tuple(sources),
        u0=u0,
        t_end=t_end,
        outer_ranks=u0.outer_ranks,
        tt_ranks=tt_ranks,
    )


def rank_collapse_problem(n_cells: int = 12, weight: float = 0.15, t_end: float = 0.4):
    """Two-mode zero-source flow whose second singular value decays away.

    The initial point mixes two discrete diffusion eigenmodes with well
    separated decay rates; the smaller component shrinks relative to the
    norm until the boundary gap crosses the breakdown threshold, so a
    correct monitor must stop before ``t_end``.
    """
    disc = mass_orthonormalize([build_fem1d(n_cells) for _ in range(2)])
    diffusion = DiffusionCoefficient(np.eye(2), np.zeros((2, 2)), horizon=t_end)
    evals, evecs = np.linalg.eigh(disc.stiffness[0].dense)
    slow = evecs[:, 0]
    fast = evecs[:, 2]
    core = np.diag([1.0, float(weight)])
    u = np.column_stack([slow, fast])
    core_tt = tt_from_dense(core, ranks=(2,))
    u0 = make_point(core_tt, (u, u))
    return ParabolicProblem(
        disc=disc,
        diffusion=diffusion,
        sources=(),
        u0=u0,
        t_end=t_end,
        outer_ranks=(2, 2),
        tt_ranks=(2,),
    )
