import math

import numpy as np
import pytest

from entkit.linalg import hermitian_eigen, is_hermitian, svd
from entkit.sampling import random_unitary


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)







def test_adjoint_hermitian_fixed_point():
    h = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    np.testing.assert_allclose(h.conj().T, h, atol=0)
    assert is_hermitian(h)
    assert not is_hermitian(np.array([[1j]]))


def test_adjoint_product_worked_2x2():
    # Hand-multiplied C*C values for two fixed 2x2 matrices, and their spectra.
    c_parallel = np.array([[1, -2j], [1, -2j]], dtype=complex) / math.sqrt(10)
    expected = np.array([[2, -4j], [4j, 8]], dtype=complex) / 10.0
    np.testing.assert_allclose(c_parallel.conj().T @ c_parallel, expected, atol=1e-15)
    vals, _ = hermitian_eigen(expected)
    np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-15)

    c_mixed = np.array([[1, -2j], [1, 2j]], dtype=complex) / math.sqrt(10)
    np.testing.assert_allclose(c_mixed.conj().T @ c_mixed, np.diag([0.2, 0.8]), atol=1e-15)
    np.testing.assert_allclose(
        svd(c_mixed).singular_values, [math.sqrt(0.8), math.sqrt(0.2)], atol=1e-15
    )


def test_hermitian_eigen_diagonal():
    vals, vecs = hermitian_eigen(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=0)
    np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=0)


def test_hermitian_eigen_quadratic_formula_oracle():
    # Eigenvalues of (1/6)[[5,2],[2,1]] are the roots of x^2 - x + 1/36.
    h = np.array([[5.0, 2.0], [2.0, 1.0]]) / 6.0
    disc = math.sqrt(1.0 - 4.0 / 36.0)
    expected = [(1.0 + disc) / 2.0, (1.0 - disc) / 2.0]
    vals, vecs = hermitian_eigen(h)
    np.testing.assert_allclose(vals, expected, atol=1e-14)
    np.testing.assert_allclose(h @ vecs, vecs * vals, atol=1e-14)


def test_hermitian_eigen_trace_identity():
    rng = np.random.default_rng(3)
    x = random_complex(rng, (4, 4))
    h = (x + x.conj().T) / 2
    vals, _ = hermitian_eigen(h)
    assert abs(np.trace(h).real - np.sum(vals)) <= 1e-10


def test_hermitian_eigen_eigenpair_quality():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 8, 13):
        x = random_complex(rng, (n, n))
        h = (x + x.conj().T) / 2
        vals, vecs = hermitian_eigen(h)
        assert np.all(np.diff(vals) <= 0)
        np.testing.assert_allclose(h @ vecs, vecs * vals, atol=1e-9)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-10)


def test_hermitian_eigen_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        hermitian_eigen(np.ones((2, 3)))
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_of_gram_matrix_is_nonnegative():
    # PSD inputs may round slightly negative, but never past the clamp window.
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        c = random_complex(rng, (m, n))
        c /= np.linalg.norm(c)
        vals, _ = hermitian_eigen(c.conj().T @ c)
        assert np.all(vals >= -1e-12)


def test_svd_diagonal_known_values():
    c = np.diag([math.sqrt(0.99), math.sqrt(0.01)])
    result = svd(c)
    np.testing.assert_allclose(
        result.singular_values, [math.sqrt(0.99), math.sqrt(0.01)], atol=1e-14
    )


def test_svd_moment_sums():
    c = np.array([[1, -2j], [1, 2j]], dtype=complex) / math.sqrt(10)
    sigma = svd(c).singular_values
    assert abs(np.sum(sigma**2) - 1.0) <= 1e-12
    assert abs(np.sum(sigma**4) - 17.0 / 25.0) <= 1e-12


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(6)
    a = random_complex(rng, 4)
    a /= np.linalg.norm(a)
    b = random_complex(rng, 3)
    b /= np.linalg.norm(b)
    sigma = svd(np.outer(a, b)).singular_values
    assert abs(sigma[0] - 1.0) <= 1e-10
    assert np.all(sigma[1:] <= 1e-10)


def test_svd_transpose_has_same_singular_values():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        c = random_complex(rng, (m, n))
        np.testing.assert_allclose(
            svd(c).singular_values, svd(c.T).singular_values, atol=1e-10
        )


def test_svd_reconstruction_and_unitarity_random():
    rng = np.random.default_rng(8)
    for trial in range(1000):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        c = random_complex(rng, (m, n))
        if trial % 3 == 1:  # exercise rank-deficient inputs too
            r = int(rng.integers(1, min(m, n) + 1))
            c = random_complex(rng, (m, r)) @ random_complex(rng, (r, n))
        elif trial % 3 == 2:
            c = c / np.linalg.norm(c)
        result = svd(c)
        sigma = result.singular_values
        assert np.all(sigma >= 0.0)
        assert np.all(np.diff(sigma) <= 0.0)
        scale = max(1.0, float(np.linalg.norm(c)))
        assert np.linalg.norm(result.reconstruct() - c) <= 1e-10 * scale
        u = result.left_vectors
        v = result.right_vectors
        assert np.max(np.abs(u @ u.conj().T - np.eye(m))) <= 1e-10
        assert np.max(np.abs(v @ v.conj().T - np.eye(n))) <= 1e-10
        assert abs(np.sum(sigma**2) - np.linalg.norm(c) ** 2) <= 1e-10 * scale**2


@pytest.mark.parametrize("seed", range(20))
def test_svd_graded_spectrum_accuracy(seed):
    # sigma from 1 down to 1e-20 behind Haar factors: a decomposition through
    # C*C squares the condition number and loses the small values.
    rng = np.random.default_rng(seed)
    sigma = np.logspace(0.0, -20.0, 32)
    c = (random_unitary(rng, 32) * sigma) @ random_unitary(rng, 32)
    result = svd(c)
    assert np.linalg.norm(result.reconstruct() - c) <= 1e-13
    assert np.max(np.abs(result.singular_values - sigma)) <= 1e-14


def test_svd_zero_matrix():
    result = svd(np.zeros((3, 2)))
    np.testing.assert_allclose(result.singular_values, [0.0, 0.0], atol=0)
    np.testing.assert_allclose(result.reconstruct(), np.zeros((3, 2)), atol=0)
    np.testing.assert_allclose(
        result.left_vectors @ result.left_vectors.conj().T, np.eye(3), atol=1e-14
    )


def test_trace_worked_fourth_power():
    # C*C = (1/6)[[5,2],[2,1]] squares to (1/36)[[29,12],[12,5]], so
    # tr(|C|^4) = 17/18, which is also the sum of the squared eigenvalues.
    gram = np.array([[5.0, 2.0], [2.0, 1.0]]) / 6.0
    fourth = np.array([[29.0, 12.0], [12.0, 5.0]]) / 36.0
    np.testing.assert_allclose(gram @ gram, fourth, atol=1e-15)
    assert abs(np.trace(fourth) - 17.0 / 18.0) <= 1e-15
    vals, _ = hermitian_eigen(gram)
    assert abs(np.sum(vals**2) - 17.0 / 18.0) <= 1e-14
