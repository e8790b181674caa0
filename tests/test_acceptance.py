"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured quantities;
run with ``pytest -s tests/test_acceptance.py`` to watch them as they
complete.  All randomized criteria pin their master seed, so the error
columns are bitwise reproducible.
"""

import time

import numpy as np
from conftest import mass_matrix

import graphrbm as g
from graphrbm.decomposition import sample_interior_points
from graphrbm.engine import RbmConfig, RbmRuntime
from graphrbm.manufactured import lambda_profile
from graphrbm.timestep import StepWorkspace, imex_theta


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


ALL_SCHEMES = (g.IMPLICIT_EULER, g.CRANK_NICOLSON, g.theta_method(0.75), g.SEMI_IMPLICIT)


def test_criterion_01_forced_equivalence(demo, partition, single_batch, problem):
    t0 = time.perf_counter()
    mesh = g.Mesh(100)
    worst = 0.0
    for scheme in ALL_SCHEMES:
        full = g.run_full(demo, mesh, problem, scheme, dt=0.005, t_final=0.5)
        config = RbmConfig(h=0.01, dt=0.005, t_final=0.5, scheme=scheme, seed=17)
        rbm = g.run_rbm(demo, partition, single_batch, mesh, problem, config)
        for k, t in enumerate(rbm.times):
            worst = max(worst, float(np.abs(rbm.states[k] - full.state_at(t)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 60.0
    report(1, ok, f"single-batch run matches full solve, max per-dof diff "
                  f"{worst:.2e} (tol 1e-12) over four schemes in {elapsed:.1f}s")


def test_criterion_02_unbiasedness(demo, partition, option1, option2, problem):
    points = sample_interior_points(demo, 100, seed=1234)
    psis = (
        ("1", lambda e, x: np.ones_like(x)),
        ("a", problem.a),
        ("b", problem.b),
        ("p", problem.p),
    )
    worst = 0.0
    for family in (option1, option2):
        for _, psi in psis:
            worst = max(worst, g.verify_unbiased(partition, family, psi, points))
    ok = worst <= 1e-14
    report(2, ok, f"probability-weighted batch weights reproduce psi in "
                  f"{{1,a,b,p}} at 100 interior points, max deviation {worst:.2e} (tol 1e-14)")


def test_criterion_03_coverage_validator(demo, partition, option1, option2):
    r1 = g.check_assumption_A1(partition, option1.batches)
    r2 = g.check_assumption_A1(partition, option2.batches)
    r_bad = g.check_assumption_A1(partition, [{0}, {1}, {2}, {3}])
    violations = {demo.vertex_name(v) for v in r_bad.violations}
    ok = r1.holds and r2.holds and not r_bad.holds and violations == {"v4", "v7"}
    report(3, ok, f"coverage check passes both batch options and flags "
                  f"singleton-only batches with violations {sorted(violations)}")


def test_criterion_04_window_convergence(demo, partition, option2, solution, problem):
    t0 = time.perf_counter()
    mesh = g.Mesh(100)
    dt = 1e-3
    t_final = 0.996  # divisible by every window length in the sweep
    master = 0
    realizations = 20
    runtime = RbmRuntime(demo, partition, option2, mesh, problem)
    error1 = {}
    for h in (1e-3, 2e-3, 3e-3, 4e-3, 6e-3):
        runs = [
            g.run_rbm(
                demo, partition, option2, mesh, problem,
                RbmConfig(h=h, dt=dt, t_final=t_final, scheme=g.IMPLICIT_EULER,
                          seed=master ^ r),
                runtime=runtime,
            )
            for r in range(realizations)
        ]
        error1[h] = g.estimate_errors(runs, solution=solution).error1
    slope, _ = g.fit_slope([1e-3, 2e-3, 3e-3, 6e-3],
                           [error1[h] for h in (1e-3, 2e-3, 3e-3, 6e-3)])
    monotone = error1[2e-3] < error1[4e-3] < error1[6e-3]
    magnitude = 1e-2 <= error1[2e-3] <= 1e0
    elapsed = time.perf_counter() - t0
    ok = 0.7 <= slope <= 1.3 and monotone and magnitude and elapsed <= 900.0
    report(4, ok, f"window-size convergence: slope {slope:.3f} in [0.7, 1.3], "
                  f"errors increase over h=2,4,6e-3 ({error1[2e-3]:.3e} < "
                  f"{error1[4e-3]:.3e} < {error1[6e-3]:.3e}), error1(h=2e-3) in "
                  f"[1e-2, 1], 20 realizations in {elapsed:.0f}s")


def test_criterion_05_reference_sweep_slope():
    pairs = [
        (3.333e-4, 5.530e-2),
        (6.667e-4, 1.675e-1),
        (1.667e-3, 2.502e-1),
        (4.667e-3, 7.118e-1),
        (1.167e-2, 2.150e0),
        (2.833e-2, 4.826e0),
    ]
    slope, _ = g.fit_slope([h for h, _ in pairs], [e for _, e in pairs])
    ok = abs(slope - 1.0) <= 0.3
    report(5, ok, f"published sweep data fits slope {slope:.3f} (target 1.0 +- 0.3)")


def test_criterion_06_scheme_orders():
    import scipy.sparse as sp

    # u' = -u with no load: each step is the runtime's entry.solve(entry.rhs @ u)
    one, zero = sp.csr_matrix(np.array([[1.0]])), sp.csr_matrix((1, 1))
    cases = (
        ("ie", g.IMPLICIT_EULER, sp.csr_matrix(np.array([[1.0]])), zero, 1.0),
        ("theta(3/4)", g.theta_method(0.75), sp.csr_matrix(np.array([[1.0]])), zero, 1.0),
        ("siem", g.SEMI_IMPLICIT,
         sp.csr_matrix(np.array([[0.7]])), sp.csr_matrix(np.array([[0.3]])), 1.0),
        ("cn", g.CRANK_NICOLSON, sp.csr_matrix(np.array([[1.0]])), zero, 2.0),
    )
    results = []
    ok = True
    for name, scheme, stiffness, lower, target in cases:
        errors = []
        dts = [1e-2, 1e-3, 1e-4]
        for dt in dts:
            u = np.ones(1)
            entry = StepWorkspace().factorization(
                (scheme, dt), lambda: imex_theta(scheme, one, stiffness, lower, dt)
            )
            for _ in range(round(1.0 / dt)):
                u = entry.solve(entry.rhs @ u)
            errors.append(abs(u[0] - np.exp(-1.0)))
        slope, _ = g.fit_slope(dts, errors)
        results.append(f"{name}={slope:.3f}")
        ok = ok and abs(slope - target) <= 0.1
    report(6, ok, "scalar decay orders: " + ", ".join(results) +
                  " (targets 1, 1, 1, 2, tol 0.1)")


def test_criterion_07_spatial_accuracy(demo, solution, problem):
    t0 = time.perf_counter()
    errors = []
    meshes = (25, 50, 100, 200)
    for ne in meshes:
        traj = g.run_full(demo, g.Mesh(ne), problem, g.CRANK_NICOLSON,
                          dt=5e-4, t_final=1.0, snapshot_stride=4)
        summary = g.estimate_errors([traj], solution=solution)
        errors.append(float(np.sqrt(summary.error1)))
    slope, _ = g.fit_slope([1.0 / (ne + 1) for ne in meshes], errors)
    elapsed = time.perf_counter() - t0
    ok = slope >= 1.7 and elapsed <= 300.0
    report(7, ok, f"spatial accuracy: L2-error slope {slope:.3f} over mesh "
                  f"widths 1/26..1/201 (target >= 1.7) in {elapsed:.0f}s")


def test_criterion_08_dissipativity(demo, rng):
    values = rng.standard_normal(demo.n_edges * 7)

    def y0(e, x):
        profile = np.interp(x, np.linspace(0, 1, 7), values[7 * e : 7 * e + 7])
        return profile * x * (1.0 - x)

    coeffs = g.CoefficientSet(
        a=lambda e, x: np.full_like(np.asarray(x, dtype=float), 1.0),
        b=lambda e, x: np.zeros_like(np.asarray(x, dtype=float)),
        p=lambda e, x: np.sin(np.pi * np.asarray(x, dtype=float)),
        y0=y0,
    )
    mesh = g.Mesh(100)
    ok = True
    details = []
    for scheme in (g.IMPLICIT_EULER, g.CRANK_NICOLSON):
        for dt in (1e-2, 1e-1):
            traj = g.run_full(demo, mesh, coeffs, scheme, dt=dt, t_final=1.0)
            mass = mass_matrix(demo, mesh, traj.dofmap)
            energy = np.array([s @ (mass @ s) for s in traj.states])
            nonincreasing = bool(np.all(np.diff(energy) <= 1e-12 * energy[0]))
            ok = ok and nonincreasing
            details.append(f"{scheme.label}@dt={dt:g}:{'ok' if nonincreasing else 'BAD'}")
    report(8, ok, "discrete energy nonincreasing with zero data: " + ", ".join(details))


def test_criterion_09_cost_direction(demo, partition, option2, problem):
    mesh = g.Mesh(100)
    runtime = RbmRuntime(demo, partition, option2, mesh, problem)
    dofmap = runtime.dofmap
    max_part_dofs = max(runtime.system(j).n_active for j in range(4))
    counts_ok = max_part_dofs == 304 and dofmap.n_dofs == 1010

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    full_wall = min(
        timed(lambda: g.run_full(demo, mesh, problem, g.IMPLICIT_EULER, dt=2e-3, t_final=1.0))
        for _ in range(3)
    )
    warm = RbmConfig(h=2e-3, dt=2e-3, t_final=1.0, scheme=g.IMPLICIT_EULER, seed=900)
    g.run_rbm(demo, partition, option2, mesh, problem, warm, runtime=runtime)
    walls = []
    for r in range(5):
        config = RbmConfig(h=2e-3, dt=2e-3, t_final=1.0, scheme=g.IMPLICIT_EULER, seed=901 + r)
        walls.append(
            timed(lambda config=config: g.run_rbm(
                demo, partition, option2, mesh, problem, config, runtime=runtime))
        )
    rbm_avg = float(np.mean(walls))
    time_ok = rbm_avg <= 1.1 * full_wall
    ok = counts_ok and time_ok
    report(9, ok, f"cost direction: randomized avg wall {rbm_avg:.3f}s <= "
                  f"1.1 x full {full_wall:.3f}s; largest single-part window uses "
                  f"{max_part_dofs} of {dofmap.n_dofs} dofs (expected 304 of 1010)")


def test_criterion_10_variance_functional(demo, partition, option2, single_batch, solution, problem):
    grid_fine = np.linspace(0.0, 1.0, 2001)
    trivial = lambda_profile(solution, problem, partition, single_batch, grid_fine)
    option2_fine = lambda_profile(solution, problem, partition, option2, grid_fine)
    option2_coarse = lambda_profile(
        solution, problem, partition, option2, np.linspace(0.0, 1.0, 1001)
    )
    grid_stable = abs(option2_coarse.l1 - option2_fine.l1) <= 0.01 * option2_fine.l1
    ok = (
        np.abs(trivial.values).max() == 0.0
        and np.all(option2_fine.values >= 0.0)
        and np.isfinite(option2_fine.l1)
        and option2_fine.l1 > 0.0
        and grid_stable
    )
    report(10, ok, f"variance functional: single batch gives 0, batch option 2 "
                   f"gives nonnegative profile with L1 {option2_fine.l1:.4e}, "
                   f"grid-stable to 1%")
