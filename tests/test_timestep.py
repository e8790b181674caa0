import numpy as np
import pytest
import scipy.sparse as sp

import graphrbm as g
from graphrbm.errors import SolverError
from graphrbm.timestep import (
    CRANK_NICOLSON,
    IMPLICIT_EULER,
    SEMI_IMPLICIT,
    SchemeKind,
    SingularSystem,
    StepWorkspace,
    factor_nnz,
    step,
    theta_method,
)


def scalar(value):
    return sp.csr_matrix(np.array([[value]]))


ZERO1 = np.zeros(1)


def test_scalar_implicit_euler():
    # u' = -u, dt = 0.1: u1 = 1 / 1.1
    u1 = step(IMPLICIT_EULER, scalar(1.0), scalar(1.0), ZERO1, ZERO1, np.ones(1), 0.1)
    assert np.isclose(u1[0], 1.0 / 1.1, rtol=1e-15)


def test_scalar_crank_nicolson():
    u1 = step(CRANK_NICOLSON, scalar(1.0), scalar(1.0), ZERO1, ZERO1, np.ones(1), 0.1)
    assert np.isclose(u1[0], 0.95 / 1.05, rtol=1e-15)


def test_scalar_theta_three_quarters():
    u1 = step(theta_method(0.75), scalar(1.0), scalar(1.0), ZERO1, ZERO1, np.ones(1), 0.1)
    assert np.isclose(u1[0], 0.975 / 1.075, rtol=1e-15)


def test_scalar_semi_implicit_split():
    # implicit part 0.7, explicit part 0.3: u1 = (1 - 0.03) / (1 + 0.07)
    u1 = step(
        SEMI_IMPLICIT, scalar(1.0), (scalar(0.7), scalar(0.3)), ZERO1, ZERO1, np.ones(1), 0.1
    )
    assert np.isclose(u1[0], 0.97 / 1.07, rtol=1e-15)


def test_semi_implicit_needs_split():
    with pytest.raises(SolverError):
        step(SEMI_IMPLICIT, scalar(1.0), scalar(1.0), ZERO1, ZERO1, np.ones(1), 0.1)


def _random_system(rng, n=20):
    mass = sp.random(n, n, density=0.2, random_state=42).toarray()
    mass = sp.csr_matrix(mass @ mass.T + n * np.eye(n))
    spatial = sp.csr_matrix(sp.random(n, n, density=0.3, random_state=43).toarray())
    u = rng.standard_normal(n)
    f0 = rng.standard_normal(n)
    f1 = rng.standard_normal(n)
    return mass, spatial, u, f0, f1


def test_theta_one_is_implicit_euler(rng):
    mass, spatial, u, f0, f1 = _random_system(rng)
    a = step(theta_method(1.0), mass, spatial, f0, f1, u, 0.05)
    b = step(IMPLICIT_EULER, mass, spatial, f0, f1, u, 0.05)
    assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())


def test_theta_half_is_crank_nicolson(rng):
    mass, spatial, u, f0, f1 = _random_system(rng)
    a = step(theta_method(0.5), mass, spatial, f0, f1, u, 0.05)
    b = step(CRANK_NICOLSON, mass, spatial, f0, f1, u, 0.05)
    assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())


def factor(A):
    """A fresh workspace's factorization of A; the first use runs the factor check."""
    return StepWorkspace().factorization("A", lambda: A)


def test_solve_identity():
    b = np.arange(5.0)
    assert np.array_equal(factor(sp.identity(5, format="csc")).solve(b), b)


def test_solve_poisson_inverse_column():
    # tridiag(-1, 2, -1), rhs e_1: closed-form inverse column (n+1-i)/(n+1)
    n = 5
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsc()
    x = factor(A).solve(np.eye(n)[:, 0])
    expected = np.array([(n - i) / (n + 1) for i in range(n)])
    assert np.allclose(x, expected, rtol=1e-13)


def test_solve_random_spd_residual(rng):
    n = 50
    raw = rng.standard_normal((n, n))
    A = sp.csc_matrix(raw @ raw.T + n * np.eye(n))
    b = rng.standard_normal(n)
    x = factor(A).solve(b)
    assert np.abs(A @ x - b).max() <= 1e-10 * (1 + np.abs(b).max())


def test_solve_singular_raises():
    with pytest.raises(SingularSystem):
        factor(sp.csc_matrix((3, 3)))


def test_factor_check_rejects_wilkinson_growth():
    # ones on the diagonal and in the last column, -1 below the diagonal: splu factors
    # it, but the element growth 2^(n-1) leaves A x = A 1 with a residual near 92
    n = 200
    dense = np.eye(n) - np.tril(np.ones((n, n)), -1)
    dense[:, -1] = 1.0
    with pytest.raises(SingularSystem, match="residual"):
        factor(sp.csc_matrix(dense))


def test_step_workspace_keys_on_the_system():
    # IE, dt = 0.1, M = 1: S = 3 gives 1 / 1.3 also after a step on S = 1 in the same workspace
    ws = StepWorkspace()
    step(IMPLICIT_EULER, scalar(1.0), scalar(1.0), ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    u1 = step(IMPLICIT_EULER, scalar(1.0), scalar(3.0), ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    assert np.isclose(u1[0], 1.0 / 1.3, rtol=1e-15) and len(ws) == 2


def test_workspace_caches_by_key():
    ws = StepWorkspace()
    builds = []

    def build():
        builds.append(1)
        return sp.identity(4, format="csc")

    lu1 = ws.factorization("k", build)
    lu2 = ws.factorization("k", build)
    assert lu1 is lu2 and len(builds) == 1
    ws.factorization("other", build)
    assert len(builds) == 2 and len(ws) == 2


def test_factor_nnz_positive():
    ws = StepWorkspace()
    lu = ws.factorization("x", lambda: sp.identity(7, format="csc"))
    assert factor_nnz(lu) >= 7


def test_scheme_labels_and_parse():
    assert IMPLICIT_EULER.label == "ie"
    assert CRANK_NICOLSON.theta_value == 0.5
    assert theta_method(0.75).label == "theta:0.75"
    assert SchemeKind.parse("theta:0.25") == theta_method(0.25)
    assert SchemeKind.parse("siem") == SEMI_IMPLICIT
    with pytest.raises(SolverError):
        SchemeKind.parse("rk4")
    with pytest.raises(SolverError, match="theta must be a number"):
        SchemeKind.parse("theta:abc")
    with pytest.raises(SolverError):
        SchemeKind("theta", 1.5)
    with pytest.raises(SolverError):
        SchemeKind("ie", 0.3)


def test_step_rejects_bad_dt():
    with pytest.raises(SolverError):
        step(IMPLICIT_EULER, scalar(1.0), scalar(1.0), ZERO1, ZERO1, np.ones(1), 0.0)


@pytest.mark.parametrize(
    "scheme,expected_order",
    [
        (IMPLICIT_EULER, 1),
        (theta_method(0.75), 1),
        (CRANK_NICOLSON, 2),
    ],
)
def test_global_order_scalar_decay(scheme, expected_order):
    # integrate u' = -u to T = 1 and compare with exp(-1)
    # the same matrix objects on every step, so each dt factors once
    mass, spatial = scalar(1.0), scalar(1.0)
    errors = []
    dts = [1e-2, 1e-3, 1e-4]
    for dt in dts:
        u = np.ones(1)
        ws = StepWorkspace()
        for _ in range(round(1.0 / dt)):
            u = step(scheme, mass, spatial, ZERO1, ZERO1, u, dt, workspace=ws)
        assert len(ws) == 1
        errors.append(abs(u[0] - np.exp(-1.0)))
    slope, _ = g.fit_slope(dts, errors)
    assert abs(slope - expected_order) <= 0.1
