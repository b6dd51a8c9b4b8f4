"""In-memory span tracer that wraps ttdlra names where they are looked up.

A layer is a function or class of the package.  Installing the tracer
replaces that object under every name that refers to it in any loaded
``ttdlra`` module (``ttdlra.integrate.retract`` and ``ttdlra.problems.retract``
both, since each module looks the name up in its own globals at call time).
Classes are wrapped by subclassing, so ``isinstance`` checks against the
original class still hold.  ``DenseTensor`` construction is counted by
wrapping ``__post_init__`` on the class itself, which leaves its type alone.

Spans stay in memory as ``[name, start, end, parent]`` lists; the caller
writes them out when the run ends.  Layers missing from the package (for
example after a refactor deletes them) are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (home module, attribute, layer name, kind); "span" records a timed span,
# "count" only counts calls, "class" records a span around construction.
LAYERS = (
    ("retraction", "retract", "retraction.retract", "span"),
    ("tangent", "TangentBasis", "tangent.basis", "class"),
    ("tangent", "tangent_to_ambient", "tangent.to_ambient", "span"),
    ("tangent", "curvature_report", "tangent.curvature_report", "span"),
    ("tangent", "aligned_basis_report", "tangent.aligned_basis_report", "span"),
    ("manifold", "point_to_dense", "manifold.point_to_dense", "span"),
    ("manifold", "point_boundary_gap", "manifold.point_boundary_gap", "span"),
    ("integrate", "reduced_operator_matrix", "integrate.reduced_operator_matrix", "span"),
    ("integrate", "reduced_point_image", "integrate.reduced_point_image", "span"),
    ("integrate", "reduced_rhs_coords", "integrate.reduced_rhs_coords", "span"),
    ("integrate", "state_from_point", "integrate.state_from_point", "span"),
    ("tt", "orthogonalize", "tt.orthogonalize", "span"),
    ("tt", "tt_to_dense", "tt.tt_to_dense", "span"),
    ("tt", "tt_round", "tt.tt_round", "span"),
    ("tt", "truncate_interface", "tt.truncate_interface", "span"),
    ("tt", "interface_spectrum", "tt.interface_spectrum", "span"),
    ("dense", "svd", "dense.svd", "span"),
    ("dense", "mode_multiply", "dense.mode_multiply", "count"),
    ("fem", "assemble_operator", "fem.assemble_operator", "span"),
    ("fem", "assemble_rhs", "fem.assemble_rhs", "span"),
    ("fem", "load_vector", "fem.load_vector", "count"),
    ("fem", "mass_orthonormalize", "fem.mass_orthonormalize", "span"),
    ("sampling", "random_point", "sampling.random_point", "span"),
)


class Tracer:
    """Collects spans, per-phase call counts and computed byte totals.

    ``ambient_size`` is the number of entries of the full grid tensor; a
    DenseTensor of exactly that size counts as an ambient tensor.
    """

    def __init__(self, ambient_size: int = 0):
        self.ambient_size = int(ambient_size)
        self.spans = []
        self.counts = Counter()  # (phase, name) -> calls
        self.values = defaultdict(float)  # (phase, name) -> summed quantity
        self.phase = None
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def run_phase(self, phase, fn, *args, **kwargs):
        """Call ``fn`` inside a top-level span named ``phase``."""
        self.phase = phase
        idx = self._open(phase)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self.phase = None

    def _count(self, name, amount=1):
        self.counts[(self.phase, name)] += amount

    def _add(self, name, amount):
        self.values[(self.phase, name)] += amount

    # -- wrappers --------------------------------------------------------------

    def _wrap_function(self, fn, name, kind):
        tracer = self

        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._count(name)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(name)
            if name == "retraction.retract":
                tracer._add("retraction.input_bytes", args[0].data.nbytes)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_class(self, cls, name):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                tracer._count(name)
                idx = tracer._open(name)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer._add(name + ".dim", getattr(self, "dim", 0))

        Traced.__name__ = cls.__name__
        Traced.__qualname__ = cls.__qualname__
        Traced.__module__ = cls.__module__
        Traced.__doc__ = cls.__doc__
        return Traced

    def _dense_post_init(self, original):
        tracer = self

        @functools.wraps(original)
        def post_init(obj):
            original(obj)
            tracer._count("dense.tensors_constructed")
            if obj.data.size == tracer.ambient_size:
                tracer._count("dense.ambient_tensors")
                tracer._add("dense.ambient_bytes", obj.data.nbytes)

        return post_init

    # -- installation ------------------------------------------------------------

    def install(self):
        """Patch every lookup site of every layer; undo with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "ttdlra" or key.startswith("ttdlra."))
        ]
        try:
            for home, attr, name, kind in LAYERS:
                home_mod = sys.modules.get("ttdlra." + home)
                original = getattr(home_mod, attr, None)
                if original is None:
                    continue
                if kind == "class":
                    wrapped = self._wrap_class(original, name)
                else:
                    wrapped = self._wrap_function(original, name, kind)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapped)
            dense_cls = sys.modules["ttdlra.dense"].DenseTensor
            original_post = dense_cls.__post_init__
            self._patches.append((dense_cls, "__post_init__", original_post))
            dense_cls.__post_init__ = self._dense_post_init(original_post)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------------

    def phase_stats(self, phase):
        """``(inclusive, total, self, runs)`` seconds of one phase (None: all).

        ``inclusive`` maps each layer to the time of its outermost spans inside
        the phase (a span with an ancestor of the same name is already
        covered).  ``total`` and ``self`` sum the phase's own spans and their
        duration minus that of their direct children; ``runs`` counts them.
        """
        inclusive = defaultdict(float)
        total = 0.0
        children = 0.0
        runs = 0
        names_on_path = {}  # span index -> set of names on its ancestor path
        phase_of = {}  # span index -> index of its phase span
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                names_on_path[idx] = frozenset()
                phase_of[idx] = idx
                if phase is None or name == phase:
                    total += end - start
                    runs += 1
                continue
            top = phase_of[parent]
            phase_of[idx] = top
            path = names_on_path[parent] | {self.spans[parent][0]}
            names_on_path[idx] = path
            if phase is not None and self.spans[top][0] != phase:
                continue
            if name not in path:
                inclusive[name] += end - start
            if parent == top:
                children += end - start
        return dict(inclusive), total, total - children, runs

    def signature(self):
        """Exact counts of this trace: equal across runs of identical work."""
        return {
            "counts": sorted((f"{p}|{n}", c) for (p, n), c in self.counts.items()),
            "values": sorted((f"{p}|{n}", v) for (p, n), v in self.values.items()),
        }
