"""Finite differences, log-determinants, and spectral norms."""
import numpy as np
import pytest
import scipy.linalg

from noisetilt.linalg import (SingularMatrixError, jacobian_fd, logdet_and_trace,
                              spectral_norm)


def test_jacobian_fd_linear_map_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    jac = jacobian_fd(lambda x: a @ x, rng.standard_normal(3))
    np.testing.assert_allclose(jac, a, rtol=1e-9, atol=1e-9)


def test_jacobian_fd_nonlinear():
    x = np.array([0.3, -0.7])
    jac = jacobian_fd(lambda v: np.array([np.sin(v[0]) * v[1], v[0] ** 2]), x)
    expected = np.array([[np.cos(0.3) * -0.7, np.sin(0.3)], [0.6, 0.0]])
    np.testing.assert_allclose(jac, expected, rtol=1e-8, atol=1e-8)


def test_jacobian_fd_nonfinite_names_coordinate():
    def f(v):
        with np.errstate(divide="ignore"):
            return np.array([1.0 / v[1]])
    with pytest.raises(ValueError, match="coordinate 1"):
        jacobian_fd(f, np.array([1.0, 1e-5]), eps=1e-5)


def test_jacobian_fd_rejects_bad_eps():
    with pytest.raises(ValueError):
        jacobian_fd(lambda v: v, np.zeros(2), eps=0.0)


def test_logdet_and_trace_matches_slogdet():
    # reference: log|det| from the diagonal of scipy's pivoted LU, a route
    # independent of the np.linalg.slogdet the implementation calls
    rng = np.random.default_rng(1)
    for _ in range(10):
        j = 0.3 * rng.standard_normal((6, 6))
        tr, ld = logdet_and_trace(j)
        lu, _ = scipy.linalg.lu_factor(np.eye(6) + j)
        assert tr == pytest.approx(np.trace(j))
        assert ld == pytest.approx(np.sum(np.log(np.abs(np.diag(lu)))), rel=1e-10)


def test_logdet_singular_raises():
    with pytest.raises(SingularMatrixError):
        logdet_and_trace(-np.eye(3))


def test_logdet_rejects_bad_input():
    with pytest.raises(ValueError):
        logdet_and_trace(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        logdet_and_trace(np.full((2, 2), np.nan))


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    for shape in [(5, 5), (3, 7), (8, 2)]:
        m = rng.standard_normal(shape)
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0],
                                                 rel=1e-14)


def test_spectral_norm_lower_bound_and_zero():
    assert spectral_norm(np.diag([3.0, 1.0])) <= 3.0 + 1e-12
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_is_an_upper_bound():
    # 100 steps of power iteration from a fixed start read 1.3% low on this
    # matrix; the norm must bound |M v| / |v| for the top singular vector too
    m = np.random.default_rng(1571).standard_normal((10, 4))
    top = np.linalg.svd(m)[2][0]
    assert spectral_norm(m) >= np.linalg.norm(m @ top) * (1 - 1e-12)
