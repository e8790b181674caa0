import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import wilkinson_growth
from test_manufactured import binary_tree

import graphrbm as g
from graphrbm.errors import SolverError
from graphrbm.timestep import (
    CRANK_NICOLSON,
    IMPLICIT_EULER,
    SEMI_IMPLICIT,
    FactoredStep,
    SchemeKind,
    SingularSystem,
    StepWorkspace,
    factor_nnz,
    imex_theta,
    theta_method,
)


def scalar(value):
    return sp.csr_matrix(np.array([[value]]))


def advance(scheme, mass, stiffness, u, dt, n_steps=1, lower=None, f0=0.0, f1=0.0):
    """``n_steps`` steps of M u' + (stiffness + lower) u = F as a runtime takes them.

    ``imex_theta``'s (lhs, rhs) is factored once by a workspace, and each
    step is entry.solve(entry.rhs @ u + dt (theta F1 + (1 - theta) F0)),
    with the loads F0, F1 the same on every step.  ``lower`` defaults to
    the zero matrix.
    """
    if lower is None:
        lower = sp.csr_matrix(stiffness.shape)
    theta = scheme.theta_value
    entry = StepWorkspace().factorization((scheme, dt), lambda: imex_theta(scheme, mass, stiffness, lower, dt))
    load = dt * (theta * f1 + (1.0 - theta) * f0)
    for _ in range(n_steps):
        u = entry.solve(entry.rhs @ u + load)
    return u


def test_scalar_implicit_euler():
    # u' = -u, dt = 0.1: u1 = 1 / 1.1
    u1 = advance(IMPLICIT_EULER, scalar(1.0), scalar(1.0), np.ones(1), 0.1)
    assert np.isclose(u1[0], 1.0 / 1.1, rtol=1e-15)


def test_scalar_crank_nicolson():
    u1 = advance(CRANK_NICOLSON, scalar(1.0), scalar(1.0), np.ones(1), 0.1)
    assert np.isclose(u1[0], 0.95 / 1.05, rtol=1e-15)


def test_scalar_theta_three_quarters():
    u1 = advance(theta_method(0.75), scalar(1.0), scalar(1.0), np.ones(1), 0.1)
    assert np.isclose(u1[0], 0.975 / 1.075, rtol=1e-15)


def test_scalar_semi_implicit_split():
    # implicit part 0.7, explicit part 0.3: u1 = (1 - 0.03) / (1 + 0.07)
    u1 = advance(SEMI_IMPLICIT, scalar(1.0), scalar(0.7), np.ones(1), 0.1, lower=scalar(0.3))
    assert np.isclose(u1[0], 0.97 / 1.07, rtol=1e-15)


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
    a = advance(theta_method(1.0), mass, spatial, u, 0.05, f0=f0, f1=f1)
    b = advance(IMPLICIT_EULER, mass, spatial, u, 0.05, f0=f0, f1=f1)
    assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())


def test_theta_half_is_crank_nicolson(rng):
    mass, spatial, u, f0, f1 = _random_system(rng)
    a = advance(theta_method(0.5), mass, spatial, u, 0.05, f0=f0, f1=f1)
    b = advance(CRANK_NICOLSON, mass, spatial, u, 0.05, f0=f0, f1=f1)
    assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())


def factor(A):
    """A fresh workspace's entry for lhs A; the first use runs the factor check."""
    return StepWorkspace().factorization("A", lambda: (A, None))


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
    # splu factors it, but the element growth 2^(n-1) leaves A x = A 1 with a residual
    # near 92; the check runs on the first solve, so that solve raises, not the factorization
    A = wilkinson_growth(200)
    entry = factor(A)
    with pytest.raises(SingularSystem, match="residual"):
        entry.solve(A @ np.ones(200))


def test_factor_check_of_a_zero_right_side_solves_a_times_one():
    # x = 0 solves A x = 0 whatever the factor, so the check falls back to A x = A 1
    entry = factor(wilkinson_growth(200))
    with pytest.raises(SingularSystem, match="residual"):
        entry.solve(np.zeros(200))
    # a sound factor passes the fallback and returns the zero solution
    sound = factor(2.0 * sp.identity(4, format="csc"))
    assert np.array_equal(sound.solve(np.zeros(4)), np.zeros(4)) and sound.lhs is None


def test_failed_factor_stays_and_fails_again():
    ws = StepWorkspace()
    builds = []

    def build():
        builds.append(1)
        return wilkinson_growth(200), None

    entry = ws.factorization("k", build)
    assert ws["k"] is entry
    b = entry.lhs @ np.ones(200)
    with pytest.raises(SingularSystem, match="residual"):
        entry.solve(b)
    # the failed entry stays under its key, is never used unchecked, and is what the next lookup returns
    for _ in range(2):
        assert ws["k"] is entry and entry.lhs is not None
        with pytest.raises(SingularSystem, match="residual"):
            entry.solve(b)
    assert ws.factorization("k", build) is entry and len(builds) == 1


def test_workspace_caches_by_key():
    ws = StepWorkspace()
    builds = []
    rhs = sp.identity(4, format="csr")

    def build():
        builds.append(1)
        return sp.identity(4, format="csc"), rhs

    entry1 = ws.factorization("k", build)
    entry2 = ws.factorization("k", build)
    assert entry1 is entry2 and len(builds) == 1 and entry1.rhs is rhs
    ws.factorization("other", build)
    assert len(builds) == 2 and len(ws) == 2


def test_cached_entry_does_not_keep_lhs():
    ws = StepWorkspace()
    lhs_refs = []

    def build():
        lhs = 2.0 * sp.identity(4, format="csc")
        lhs_refs.append(weakref.ref(lhs))
        return lhs, None

    entry = ws.factorization("k", build)
    # lhs stays for the check on the first solve, and goes once that check has passed
    assert lhs_refs[0]() is not None
    assert np.array_equal(entry.solve(np.full(4, 2.0)), np.ones(4))
    gc.collect()
    assert lhs_refs[0]() is None and entry.lhs is None
    assert np.array_equal(entry.solve(np.full(4, 4.0)), np.full(4, 2.0))


def test_factor_nnz_positive():
    ws = StepWorkspace()
    entry = ws.factorization("x", lambda: (sp.identity(7, format="csc"), None))
    assert factor_nnz(entry) >= 7


def tree_runtime(rng):
    """A 30-edge binary tree cut into three parts, with their singleton batches and the full batch."""
    tree = binary_tree(4)
    alpha, beta = rng.uniform(-5.0, 5.0, size=(2, tree.n_edges))
    partition = g.SubgraphPartition(tree, [set(range(k, tree.n_edges, 3)) for k in range(3)])
    family = g.batch_family([{0}, {1}, {2}, {0, 1, 2}], [0.25] * 4, 3)
    return g.engine.RbmRuntime(tree, partition, family, g.Mesh(20), g.derive_data(g.build_solution(tree, alpha, beta)))


@pytest.mark.parametrize("name", ["demo", "tree"])
def test_step_factor_is_the_default_splu_factor(name, demo, partition, option2, problem, rng):
    """Every batch step's factor has the nnz of a default ``splu`` and solves as it does.

    The panel width changes no pattern, so ``nnz`` (and the memory proxy)
    match exactly.  It may reorder the sums of supernode updates into a
    column, so on the tree the solves agree to rounding; on the README
    demo's systems they are bitwise equal, so its study CSV keeps its error
    columns.
    """
    if name == "demo":
        runtime, dt = g.engine.RbmRuntime(demo, partition, option2, g.Mesh(100), problem), 0.002
    else:
        runtime, dt = tree_runtime(rng), 1e-3
    for scheme in (IMPLICIT_EULER, CRANK_NICOLSON, SEMI_IMPLICIT):
        for j in range(runtime.family.n_batches):
            lhs, rhs = runtime.step_matrices(runtime.system(j), scheme, dt)
            entry, default = FactoredStep(lhs, rhs), spla.splu(lhs)
            assert entry.nnz == default.nnz and entry.rhs is rhs, (scheme.label, j)
            b = rhs @ rng.standard_normal(rhs.shape[1])
            got, want = entry.solve(b), default.solve(b)
            if name == "demo":
                assert got.tobytes() == want.tobytes(), (scheme.label, j)
            else:
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (scheme.label, j)


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
    # a bare theta takes the default weight 0.75; nothing else starting with theta parses
    assert SchemeKind.parse("theta") == theta_method(0.75)
    assert SchemeKind.parse(" Theta:0.6 ") == theta_method(0.6)
    with pytest.raises(SolverError, match="theta must be a number"):
        SchemeKind.parse("theta:")
    for text in ("thetafoo", "theta0.3", "ie:0.5"):
        with pytest.raises(SolverError, match="unknown scheme"):
            SchemeKind.parse(text)
    with pytest.raises(SolverError):
        SchemeKind("theta", 1.5)
    with pytest.raises(SolverError):
        SchemeKind("ie", 0.3)


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
    errors = []
    dts = [1e-2, 1e-3, 1e-4]
    for dt in dts:
        u = advance(scheme, scalar(1.0), scalar(1.0), np.ones(1), dt, n_steps=round(1.0 / dt))
        errors.append(abs(u[0] - np.exp(-1.0)))
    slope, _ = g.fit_slope(dts, errors)
    assert abs(slope - expected_order) <= 0.1
