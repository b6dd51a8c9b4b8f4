import numpy as np
import pytest

from ttdlra.dense import (
    DenseTensor,
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
