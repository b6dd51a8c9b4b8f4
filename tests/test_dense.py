import numpy as np
import pytest

from ttdlra.dense import (
    DenseTensor,
    _contract,
    _eigh,
    _frobenius,
    _inv,
    _moveaxis,
    _norm2,
    _qr,
    _solve,
    _svd,
    inner,
    matricize,
    mode_multiply,
    svd,
)
from ttdlra.errors import InvalidArgumentError


def random_tensor(rng, dims):
    return DenseTensor.from_array(rng.standard_normal(dims))


def test_constructor_validates():
    with pytest.raises(InvalidArgumentError):
        DenseTensor((2, 0), np.zeros(0))
    with pytest.raises(InvalidArgumentError):
        DenseTensor((2, 3), np.zeros(5))


def test_matricize_rank_one_outer_product(rng):
    a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
    x = DenseTensor.from_array(np.einsum("i,j,k->ijk", a, b, c))
    m = matricize(x, {0})
    # columns enumerate (mode 1, mode 2) with mode 1 fastest
    expected = np.outer(a, np.kron(c, b))
    np.testing.assert_allclose(m, expected, atol=1e-14)


def test_matricize_prefix_split_index_enumeration():
    x = DenseTensor((2, 2, 2), np.arange(8.0))
    m = matricize(x, {0, 1})
    # oracle: direct index enumeration with documented fastest-first order
    arr = x.to_array()
    expected = np.zeros((4, 2))
    for i0 in range(2):
        for i1 in range(2):
            for i2 in range(2):
                expected[i0 + 2 * i1, i2] = arr[i0, i1, i2]
    np.testing.assert_array_equal(m, expected)


def test_matricize_tensorize_round_trip_all_splits(rng):
    for dims in [(2,) * 5, (3, 4, 2), (6, 2, 3, 2)]:
        x = random_tensor(rng, dims)
        d = len(dims)
        for bits in range(1, 2**d - 1):
            split = tuple(i for i in range(d) if bits & (1 << i))
            rest = tuple(i for i in range(d) if i not in split)
            m = matricize(x, split)
            # inverse: undo the column-major reshape, then the mode permutation
            shape = tuple(dims[i] for i in split + rest)
            back = m.reshape(shape, order="F").transpose(np.argsort(split + rest))
            np.testing.assert_array_equal(back, x.to_array())


def test_matricize_rejects_empty_and_full_split(rng):
    x = random_tensor(rng, (2, 3))
    with pytest.raises(InvalidArgumentError):
        matricize(x, set())
    with pytest.raises(InvalidArgumentError):
        matricize(x, {0, 1})


def test_mode_multiply_identity(rng):
    x = random_tensor(rng, (3, 4, 2))
    y = mode_multiply(x, np.eye(4), 1)
    np.testing.assert_allclose(y.to_array(), x.to_array(), atol=1e-15)


def test_mode_multiply_rank_one(rng):
    a, b = rng.standard_normal(3), rng.standard_normal(4)
    m = rng.standard_normal((5, 3))
    x = DenseTensor.from_array(np.outer(a, b))
    y = mode_multiply(x, m, 0)
    np.testing.assert_allclose(y.to_array(), np.outer(m @ a, b), atol=1e-14)


def test_mode_multiply_matches_loop_oracle(rng):
    x = random_tensor(rng, (3, 4, 2))
    m = rng.standard_normal((5, 4))
    y = mode_multiply(x, m, 1)
    arr = x.to_array()
    expected = np.zeros((3, 5, 2))
    for i in range(3):
        for j in range(5):
            for k in range(2):
                expected[i, j, k] = sum(m[j, q] * arr[i, q, k] for q in range(4))
    np.testing.assert_allclose(y.to_array(), expected, atol=1e-13)
    with pytest.raises(InvalidArgumentError):
        mode_multiply(x, m, 0)


def test_mode_multiply_commutes_across_modes(rng):
    x = random_tensor(rng, (3, 4, 5))
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((6, 4))
    y1 = mode_multiply(mode_multiply(x, a, 0), b, 1)
    y2 = mode_multiply(mode_multiply(x, b, 1), a, 0)
    assert (y1 - y2).norm() <= 1e-12 * max(y1.norm(), 1.0)


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(res.left_vectors), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(res.right_vectors), np.eye(2), atol=1e-14)


def test_svd_rank_one(rng):
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    res = svd(np.outer(u, v))
    np.testing.assert_allclose(res.singular_values[0], 1.0, atol=1e-13)
    np.testing.assert_allclose(res.singular_values[1:], 0.0, atol=1e-13)


def test_svd_against_gram_eigenvalue_oracle(rng):
    m = rng.standard_normal((6, 4))
    res = svd(m)
    evals = np.linalg.eigvalsh(m.T @ m)[::-1]
    np.testing.assert_allclose(res.singular_values**2, evals, rtol=1e-10, atol=1e-12)
    err = np.linalg.norm((res.left_vectors * res.singular_values) @ res.right_vectors.T - m)
    assert err <= 1e-12 * np.linalg.norm(m)


def test_svd_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_inner_basics(rng):
    x = random_tensor(rng, (3, 4))
    zero = DenseTensor.from_array(np.zeros((3, 4)))
    assert inner(x, zero) == 0.0
    a, b = rng.standard_normal(3), rng.standard_normal(4)
    c, d = rng.standard_normal(3), rng.standard_normal(4)
    lhs = inner(
        DenseTensor.from_array(np.outer(a, b)), DenseTensor.from_array(np.outer(c, d))
    )
    np.testing.assert_allclose(lhs, (a @ c) * (b @ d), rtol=1e-13)
    y = random_tensor(rng, (3, 4))
    np.testing.assert_allclose(
        inner(x, y), np.dot(x.data, y.data), rtol=1e-14, atol=1e-14
    )
    with pytest.raises(InvalidArgumentError):
        inner(x, random_tensor(rng, (4, 3)))


def test_parseval_over_matricizations(rng):
    x = random_tensor(rng, (3, 4, 2, 3))
    n2 = x.norm() ** 2
    d = x.ndim
    for bits in range(1, 2**d - 1):
        split = tuple(i for i in range(d) if bits & (1 << i))
        s = svd(matricize(x, split)).singular_values
        np.testing.assert_allclose(np.sum(s**2), n2, rtol=1e-10)


# tall, wide, square, one row, one column, and wide enough for LAPACK's blocked path
QR_SHAPES = [(6, 3), (3, 6), (4, 4), (1, 5), (5, 1), (1, 1), (300, 200), (200, 300)]


@pytest.mark.parametrize("shape", QR_SHAPES)
@pytest.mark.parametrize("mode", ["reduced", "complete", "r"])
def test_qr_equals_numpy_bit_for_bit(rng, shape, mode):
    # C-ordered, F-ordered and strided input; numpy's factors are C-ordered,
    # and the kernel's must be too, since the layout decides later products' bits
    base = rng.standard_normal(shape)
    for a in (base, np.asfortranarray(base), rng.standard_normal(shape[::-1]).T):
        before = a.copy()
        got, want = _qr(a, mode), np.linalg.qr(a, mode=mode)
        if mode == "r":
            got, want = (got,), (want,)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
            assert x.flags.c_contiguous
        assert np.array_equal(a, before)  # the input is left as it was


# (a shape, b shape, axes): each axes pattern that src/ttdlra contracts with
CONTRACTIONS = [
    ((5, 3), (3, 4, 2), (1, 0)),  # an R factor into the next core
    ((5, 3, 2), (2, 4, 6), (2, 0)),  # the train chain in tt_to_dense
    ((3, 4, 2), (2, 2), (2, 0)),  # a carry into the previous core
    ((3, 5), (4, 5, 2), (1, 1)),  # a mode matrix on an environment
    ((3, 4, 2), (5, 2), (2, 1)),
    ((2, 3, 4), (2, 3, 5), ((0, 1), (0, 1))),  # a left environment update
    ((2, 3, 4), (5, 3, 4), ((1, 2), (1, 2))),  # a right environment update
    ((2, 3, 4, 5), (2, 3, 4, 6), ([0, 2], [0, 2])),  # tangent_operator's core contractions
    ((2, 3, 4, 5), (2, 3, 4, 6), ([], [])),
    ((4, 3), (3, 2, 5, 6), 1),
    ((2, 3, 4), (2, 3, 4), 3),  # a full contraction
    ((4, 3), (2, 5, 3), (1, 2)),  # a mode product in _tensordot_modes
]


@pytest.mark.parametrize("sa, sb, axes", CONTRACTIONS)
def test_contract_equals_tensordot_bit_for_bit(rng, sa, sb, axes):
    a, b = rng.standard_normal(sa), rng.standard_normal(sb)
    for x in (a, np.asfortranarray(a)):
        got, want = _contract(x, b, axes), np.tensordot(x, b, axes=axes)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# 1 x 1, a row, a column, tall, wide, square, and a 127 x 6 factor of pe3d_n128
KERNEL_SHAPES = [(1, 1), (1, 4), (4, 1), (6, 3), (3, 6), (5, 5), (127, 6)]


def _layouts(base):
    """``base`` C-ordered, F-ordered and as a strided view."""
    return base, np.asfortranarray(base), np.repeat(base, 2, axis=-1)[..., ::2]


def _assert_same_bits(got, want):
    # the same type, shape, memory order and bytes as numpy's result
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
        return
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if isinstance(want, np.ndarray):
        assert got.flags.c_contiguous == want.flags.c_contiguous


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize(
    "mode, kwargs",
    [("thin", {"full_matrices": False}), ("full", {}), ("values", {"compute_uv": False})],
)
def test_svd_equals_numpy_bit_for_bit(rng, shape, mode, kwargs):
    for a in _layouts(rng.standard_normal(shape)):
        before = a.copy()
        _assert_same_bits(_svd(a, mode), np.linalg.svd(a, **kwargs))
        assert np.array_equal(a, before)  # the input is left as it was


@pytest.mark.parametrize("shape", KERNEL_SHAPES + [(2, 3, 4)])
def test_norms_equal_numpy_bit_for_bit(rng, shape):
    for a in _layouts(rng.standard_normal(shape)):
        before = a.copy()
        _assert_same_bits(_frobenius(a), np.linalg.norm(a))
        _assert_same_bits(_frobenius(a[0]), np.linalg.norm(a[0]))
        if a.ndim == 2:
            _assert_same_bits(_norm2(a), np.linalg.norm(a, 2))
        assert np.array_equal(a, before)


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_square_kernels_equal_numpy_bit_for_bit(rng, n):
    g = rng.standard_normal((n, n))
    stack = rng.standard_normal((3, n, n))  # the preconditioner inverts a stack
    for a, sym, b in zip(_layouts(g), _layouts(g + g.T), _layouts(rng.standard_normal((n, 3)))):
        before = [x.copy() for x in (a, sym, b)]
        _assert_same_bits(_eigh(sym), np.linalg.eigh(sym))
        _assert_same_bits(_eigh(sym, vectors=False), np.linalg.eigvalsh(sym))
        _assert_same_bits(_inv(a), np.linalg.inv(a))
        _assert_same_bits(_solve(a, b), np.linalg.solve(a, b))
        _assert_same_bits(_solve(a, b[:, 0]), np.linalg.solve(a, b[:, 0]))
        assert all(np.array_equal(x, y) for x, y in zip((a, sym, b), before))
    for s in _layouts(stack):
        _assert_same_bits(_inv(s), np.linalg.inv(s))


@pytest.mark.parametrize(
    "source, destination",
    [(0, 1), (3, 0), (-1, 1), (0, -1), ((3, 4, 2), (1, 3, 4)), ([0, -1], [-1, 0]), ((), ())],
)
def test_moveaxis_equals_numpy(rng, source, destination):
    a = rng.standard_normal((2, 3, 4, 5, 6))
    got, want = _moveaxis(a, source, destination), np.moveaxis(a, source, destination)
    assert got.shape == want.shape and got.strides == want.strides  # the same view
    assert np.shares_memory(got, a) and got.tobytes() == want.tobytes()


def test_lapack_failures_are_invalid_argument():
    # numpy raises LinAlgError for each; the kernels raise the package's type
    # and leave numpy's error state as it was
    state = np.geterr()
    nan, zero = np.full((3, 3), np.nan), np.zeros((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(nan)
    for mode in ("thin", "full", "values"):
        with pytest.raises(InvalidArgumentError, match="LAPACK failed"):
            _svd(nan, mode)
    with pytest.raises(InvalidArgumentError, match="LAPACK failed"):
        _norm2(nan)
    with pytest.raises(InvalidArgumentError, match="LAPACK failed"):
        _eigh(nan)
    with pytest.raises(InvalidArgumentError, match="LAPACK failed"):
        _inv(zero)
    with pytest.raises(InvalidArgumentError, match="LAPACK failed"):
        _solve(zero, np.ones(3))
    assert np.geterr() == state
