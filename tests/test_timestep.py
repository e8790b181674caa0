import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from test_manufactured import binary_tree

import graphrbm as g
from graphrbm import timestep
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
    first, second = (scalar(1.0), scalar(1.0)), (scalar(1.0), scalar(3.0))
    step(IMPLICIT_EULER, *first, ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    u1 = step(IMPLICIT_EULER, *second, ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    assert np.isclose(u1[0], 1.0 / 1.3, rtol=1e-15) and len(ws) == 1


def test_step_workspace_keys_on_the_scheme_not_its_label():
    # both schemes print as theta:0.6; a step under the second must not reuse the first's factor
    first, second = theta_method(0.6), theta_method(0.6000001)
    assert first.label == second.label
    mass, spatial = scalar(1.0), scalar(3.0)
    ws = StepWorkspace()
    step(first, mass, spatial, ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    shared = step(second, mass, spatial, ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    fresh = step(second, mass, spatial, ZERO1, ZERO1, np.ones(1), 0.1, workspace=StepWorkspace())
    assert shared.tobytes() == fresh.tobytes() and len(ws) == 1


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
    gc.collect()
    assert lhs_refs[0]() is None
    assert np.array_equal(entry.solve(np.full(4, 2.0)), np.ones(4))


def test_step_after_first_system_is_deleted():
    # the entry of S = 1 pins its operands, so no new matrix takes over their ids while it lives;
    # the next system's miss drops it, and with it the operands, and S = 3 is factored anew
    # CN, dt = 0.1, M = 1: u1 = (1 - 0.05 S) / (1 + 0.05 S); its rhs is a new matrix, not M
    ws = StepWorkspace()
    mass, spatial = scalar(1.0), scalar(1.0)
    step(CRANK_NICOLSON, mass, spatial, ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    refs = [weakref.ref(mass), weakref.ref(spatial)]
    del mass, spatial
    gc.collect()
    assert all(ref() is not None for ref in refs) and len(ws) == 1
    u1 = step(CRANK_NICOLSON, scalar(1.0), scalar(3.0), ZERO1, ZERO1, np.ones(1), 0.1, workspace=ws)
    gc.collect()
    assert all(ref() is None for ref in refs) and len(ws) == 1
    assert np.isclose(u1[0], 0.85 / 1.15, rtol=1e-15)


def test_fresh_matrices_every_step_keep_one_entry():
    # u' = -u with ie: each step builds its own M and S, and only the last step's entry is kept
    ws = StepWorkspace()
    u = np.ones(1)
    for _ in range(50):
        mass, spatial = scalar(1.0), scalar(1.0)
        u = step(IMPLICIT_EULER, mass, spatial, ZERO1, ZERO1, u, 0.1, workspace=ws)
        assert len(ws) == 1
    assert np.isclose(u[0], 1.1**-50, rtol=1e-13)


def test_repeated_steps_keep_no_earlier_factor(monkeypatch):
    # 50 CN steps on one M and S (rhs = M - 0.05 S is a new matrix): without a workspace every
    # step's factor and rhs are freed after it; with one, the one entry is built once and kept
    factor_step, built = timestep._factor_step, []

    def recording(lhs, rhs, *operands):
        entry = factor_step(lhs, rhs, *operands)
        built.append((weakref.ref(entry), weakref.ref(rhs)))
        return entry

    monkeypatch.setattr(timestep, "_factor_step", recording)
    mass, spatial = scalar(1.0), scalar(1.0)
    for ws in (None, StepWorkspace()):
        built.clear()
        u = np.ones(1)
        for _ in range(50):
            u = step(CRANK_NICOLSON, mass, spatial, ZERO1, ZERO1, u, 0.1, workspace=ws)
        gc.collect()
        assert np.isclose(u[0], (0.95 / 1.05) ** 50, rtol=1e-13)
        alive = [entry() is not None or rhs() is not None for entry, rhs in built]
        assert alive == ([False] * 50 if ws is None else [True])


def test_long_lived_mass_keeps_one_entry():
    # a fresh S per step beside one M: each step replaces the entry of the step before
    ws = StepWorkspace()
    mass, u = scalar(1.0), np.ones(1)
    for _ in range(50):
        spatial = scalar(1.0)
        u = step(CRANK_NICOLSON, mass, spatial, ZERO1, ZERO1, u, 0.1, workspace=ws)
        assert len(ws) == 1
    assert np.isclose(u[0], (0.95 / 1.05) ** 50, rtol=1e-13)


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
            lhs, rhs = runtime.step_matrices(j, scheme, dt)
            entry, default = timestep._factor_step(lhs, rhs), spla.splu(lhs)
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
    with pytest.raises(SolverError):
        SchemeKind("theta", 1.5)
    with pytest.raises(SolverError):
        SchemeKind("ie", 0.3)


def test_step_rejects_bad_dt():
    # a NaN or infinite dt is an input error, not a singular factor
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(SolverError, match="dt must be a positive finite number"):
            step(IMPLICIT_EULER, scalar(1.0), scalar(1.0), ZERO1, ZERO1, np.ones(1), dt)


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
