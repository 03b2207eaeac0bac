import functools
import gc
import pathlib
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

from cavityrb import (
    GreedyConfig,
    bench,
    collect_snapshots,
    greedy,
    greedy_extend,
    pod_basis,
)
from cavityrb.config import load_config
from cavityrb.errors import ConfigError, NumericalError
from cavityrb.eigensolve import solve_dense_gevp
from cavityrb.gauge import mass_factor
from cavityrb.greedy import (
    RESIDUAL_FORMS,
    _enrichment_vectors,
    estimate,
    relative_gaps,
)
from cavityrb.problem import GAUGES

from conftest import (
    SweepOracle,
    clusters_loop,
    estimate_at,
    make_problem,
    pod_clamped,
    solve_gevp,
    sweep,
)

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


def gap(lambdas_red, i, delta_mult=1e-6):
    """Per-mode oracle of relative_gaps: the relative distance from
    eigenvalue i of an ascending spectrum to its nearest neighbor outside
    its cluster, searched over every index (the lower index wins a tie);
    nan when the whole spectrum is one cluster."""
    lam = np.asarray(lambdas_red, dtype=float)
    cluster = next(c for c in clusters_loop(lam, delta_mult) if i in c)
    outside = [j for j in range(lam.size) if j not in cluster]
    if not outside:
        return np.nan
    j = min(outside, key=lambda jj: abs(lam[jj] - lam[i]))
    return abs((lam[j] - lam[i]) / lam[j])


def test_gap_two_simple_eigenvalues():
    assert relative_gaps(np.array([1.0, 2.0]))[0] == 0.5


def test_gap_excludes_cluster_mates():
    d = relative_gaps(np.array([1.0, 1.0 + 1e-9, 3.0]), 1e-6)
    np.testing.assert_allclose(d, [2.0 / 3.0, 2.0 / 3.0, 2.0])


def test_gap_nearest_neighbor():
    np.testing.assert_allclose(relative_gaps(np.array([2.0, 4.0, 5.0]))[1], 0.2)
    # 2 lies 1 from both neighbors: the lower one sets the gap, 1/1 not 1/3
    assert relative_gaps(np.array([1.0, 2.0, 3.0]))[1] == 1.0


def test_gap_undefined_in_single_cluster():
    assert np.isnan(relative_gaps(np.array([1.0, 1.0 + 1e-12]), 1e-6)).all()


@given(
    gaps=st.lists(
        st.sampled_from([0.0, 1e-12, 5e-7, 1e-6, 2e-6, 0.25, 0.5, 1.0]),
        min_size=0, max_size=12,
    ),
    start=st.sampled_from([0.5, 1.0, 2.0, 7.25]),
    delta=st.sampled_from([1e-6, 1e-3]),
)
def test_one_pass_gaps_match_per_mode_oracle(gaps, start, delta):
    # chained clusters (consecutive gaps below delta), exact ties (0.0),
    # equal distances to both sides (repeated dyadic gaps) and a spectrum
    # that is one cluster (gaps all tiny)
    lam = start + np.cumsum([0.0] + gaps)
    got = relative_gaps(lam, delta)
    expected = np.array([gap(lam, i, delta) for i in range(lam.size)])
    np.testing.assert_array_equal(got, expected)


@given(
    rows=st.lists(
        st.lists(
            st.sampled_from([0.0, 1e-12, 5e-7, 1e-6, 2e-6, 0.25, 0.5, 1.0]),
            min_size=0, max_size=8,
        ),
        min_size=1, max_size=4,
    ),
    m=st.integers(1, 9),
    start=st.sampled_from([0.5, 1.0, 2.0, 7.25]),
    delta=st.sampled_from([1e-6, 1e-3]),
)
def test_row_wise_gaps_match_per_mode_oracle(rows, m, start, delta):
    # a (T, m) stack of spectra, row by row: clustered rows, rows that are
    # one cluster (nan) and rows of a single eigenvalue
    stack = np.array([start + np.cumsum(([0.0] + g + [1e-12] * m)[:m]) for g in rows])
    got = relative_gaps(stack, delta)
    expected = [[gap(lam, i, delta) for i in range(m)] for lam in stack]
    np.testing.assert_array_equal(got, expected)


@given(
    family=st.sampled_from(["affine", "bump"]),
    gauge=st.sampled_from(["none", "tree-cotree"]),
    form=st.sampled_from(RESIDUAL_FORMS),
    ts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=5),
    m=st.integers(1, 4),
    one_cluster=st.integers(-1, 4),
)
def test_stacked_estimate_matches_per_parameter_oracle(
    family, gauge, form, ts, m, one_cluster
):
    # T >= 3 parameters scored from one stacked pencil against the
    # per-parameter oracle; m < K leaves modes unscored, and so does a row
    # whose spectrum is one cluster
    problem, Z = _estimator_basis(family, gauge)
    K = 3
    systems = [problem.system(t) for t in ts]
    pairs = [problem.reduced_pencil(Z, t) for t in ts]
    U = np.stack([p[2] for p in pairs])
    lambdas, vectors = [], []
    for i, (A_red, B_red, _) in enumerate(pairs):
        lam, V = solve_dense_gevp(A_red, B_red)
        if i == one_cluster:
            lam = lam[0] * (1.0 + 1e-9 * np.arange(lam.size))
        lambdas.append(lam[:m])
        vectors.append(V[:, :m])
    A = sp.block_diag([s.A for s in systems], format="csr")
    B = sp.block_diag([s.B for s in systems], format="csr")
    inverse = form == "mass-inverse"
    got = estimate(
        A, B, U, np.stack(lambdas), np.stack(vectors), K, 1e-6,
        mass_factor(B) if inverse else None,
    )
    want = np.stack([
        estimate_at(
            s, U[i], lambdas[i], vectors[i], K, 1e-6,
            problem.mass_factor(t) if inverse else None,
        )
        for i, (s, t) in enumerate(zip(systems, ts))
    ])
    _assert_tables_agree(got, want)
    assert np.isinf(got[:, m:]).all()


def test_estimate_components_recombine(quiet_warnings, rng):
    problem = make_problem(n=4, family="affine", gauge="none")
    s = problem.system(0.3)
    snaps = collect_snapshots(problem, [0.0, 1.0], 3)
    Z = pod_clamped(snaps.Y, problem.b_ref, 5).Z
    A_red, B_red, U = problem.reduced_pencil(Z, 0.3, space="edge")
    lam, V = solve_dense_gevp(A_red, B_red)
    etas = estimate(s.A, s.B, U[None], lam[None], V[None], 2)[0]
    u = (U @ V[:, :2])[:, 1]
    r = s.A @ u - lam[1] * (s.B @ u)
    np.testing.assert_allclose(
        etas[1], (r @ (s.B @ r)) / (gap(lam, 1) * lam[1]), rtol=1e-14
    )


def test_estimate_exact_containment_is_tiny(quiet_warnings):
    problem = make_problem(n=4, family="identity", gauge="none")
    s = problem.system(0.0)
    sol = solve_gevp(s.A, s.B, 4)
    Z = sol.vectors
    A_red, B_red, U = problem.reduced_pencil(Z, 0.0, space="edge")
    lam, V = solve_dense_gevp(A_red, B_red)
    etas = estimate(s.A, s.B, U[None], lam[None], V[None], 1)[0]
    assert etas[0] <= 1e-15 * sol.lambdas[0]


def test_estimate_singular_mass_matrix_is_numerical_error():
    # the mass-inverse estimator's factorization of B(t) comes from here
    s = make_problem(n=4, family="affine", gauge="none").system(0.3)
    with pytest.raises(NumericalError, match="mass-matrix factorization failed"):
        mass_factor(0.0 * s.B)


def test_estimate_scores_missing_and_gapless_modes_inf(rng):
    s = make_problem(n=4, family="affine", gauge="none").system(0.3)
    U = rng.standard_normal((s.n_curl, 2))
    # one multiplicity cluster: no gap is defined; K = 3 exceeds the spectrum
    etas = estimate(
        s.A, s.B, U[None], np.array([[1.0, 1.0 + 1e-12]]), np.eye(2)[None], 3
    )
    assert etas.shape == (1, 3) and np.isinf(etas).all()


@functools.cache
def _estimator_basis(family, gauge):
    problem = make_problem(n=4, family=family, gauge=gauge)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        snaps = collect_snapshots(problem, np.linspace(0, 1, 3), 3)
        basis = pod_clamped(
            snaps.Y, problem.basis_metric, 6, space=problem.basis_space
        )
    return problem, basis.Z


@given(
    st.sampled_from(["affine", "bump"]),
    st.sampled_from(["none", "tree-cotree"]),
    st.sampled_from(RESIDUAL_FORMS),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_block_estimate_matches_per_column_recomputation(family, gauge, form, t):
    # the one block residual against r = A u - lam B u mode by mode, on
    # edge ("none") and cotree ("tree-cotree") bases
    problem, Z = _estimator_basis(family, gauge)
    K, tau = 3, 1
    s = problem.system(t)
    b_factor = problem.mass_factor(t) if form == "mass-inverse" else None
    A_red, B_red, U = problem.reduced_pencil(Z, t)
    lam, V = solve_dense_gevp(A_red, B_red)
    lam = lam[: K + tau]
    etas = estimate(s.A, s.B, U[None], lam[None], V[None], K, 1e-6, b_factor)[0]
    assert etas.shape == (K,)
    for i in range(K):
        d_i = gap(lam, i, 1e-6)
        if np.isnan(d_i):
            assert etas[i] == np.inf
            continue
        u = U @ V[:, i]
        r = s.A @ u - lam[i] * (s.B @ u)
        quad = r @ (s.B @ r) if b_factor is None else r @ b_factor.solve(r)
        ref = quad / (d_i * lam[i])
        assert abs(etas[i] - ref) <= 1e-8 * abs(ref) + 1e-20


def _small_setup(gauge="tree-cotree", family="affine", n=4, K=3, n_pod=4):
    problem = make_problem(n=n, family=family, gauge=gauge)
    snaps = collect_snapshots(problem, np.linspace(0, 1, n_pod), K)
    basis = pod_clamped(
        snaps.Y,
        problem.basis_metric,
        min(8, snaps.Y.shape[1]),
        gauge=gauge,
        space=problem.basis_space,
    )
    return problem, basis


@functools.cache
def _cleaned_basis(family, gauge):
    """n = 4 problem and a POD basis of three modes at three parameters,
    cleaned as the offline build cleans it."""
    problem = make_problem(n=4, family=family, gauge=gauge)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        snaps = collect_snapshots(problem, np.linspace(0, 1, 3), 3)
        Z = pod_clamped(snaps.Y, problem.basis_metric, 8, space=problem.basis_space).Z
        Z, _ = problem.clean_basis(Z)
        if gauge == "projection":
            Z, _ = problem.orthonormalize(Z)
    return problem, Z


# Estimator values of pairs the basis holds exactly (at the snapshot
# parameters) are rounding noise of the explicit residual, with no
# relative accuracy: up to 4e-20 on these n = 4 problems (the mass-inverse
# form on cotree bases), the two sweeps 2e-20 apart. The floor lies 1e4
# above that noise and 1e8 below the smallest greedy tolerance of configs/.
ETA_FLOOR = 1e-16


def _assert_tables_agree(got, want):
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-8, atol=ETA_FLOOR)


@given(
    family=st.sampled_from(["affine", "bump"]),
    gauge=st.sampled_from(GAUGES),
    form=st.sampled_from(RESIDUAL_FORMS),
    xi_train=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_kept_sweep_matches_the_from_scratch_oracle(family, gauge, form, xi_train, data):
    # the kept sweep (one stacked factor, only appended columns expanded and
    # reduced) against re-factoring and re-expanding everything per sweep,
    # on a basis appended in one to three steps
    problem, Z = _cleaned_basis(family, gauge)
    N = Z.shape[1]
    n0 = data.draw(st.integers(1, N - 1), label="initial size")
    cuts = data.draw(st.sets(st.integers(n0 + 1, N), max_size=2), label="cuts")
    sizes = [n0, *sorted(cuts - {N}), N]
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=xi_train, tol=1e-6, N_max=N, residual_form=form,
    )
    with problem.transient_systems():
        training = greedy._TrainingSet(problem, Z[:, :n0], cfg)
        for lo, hi in zip(sizes, sizes[1:]):
            _assert_tables_agree(training.sweep(), sweep(problem, Z[:, :lo], cfg))
            training.append(Z[:, lo:hi])
        _assert_tables_agree(training.sweep(), sweep(problem, Z, cfg))


@pytest.mark.parametrize("name", ["sinebump_n12", "affine_n16", "bench_n24"])
def test_kept_sweep_keeps_the_greedy_log_and_basis(name, monkeypatch, quiet_warnings):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    gcfg = cfg.greedy_config()
    problem = bench.build_problem(cfg)
    basis0, _ = bench.initial_basis(problem, cfg)
    basis, log = greedy_extend(basis0, gcfg, problem)
    monkeypatch.setattr(greedy, "_TrainingSet", SweepOracle)
    ref, ref_log = greedy_extend(basis0, gcfg, problem)
    assert log.status == ref_log.status
    assert len(log.records) == len(ref_log.records)
    for r, q in zip(log.records, ref_log.records):
        assert (r.iteration, r.t_star, r.mode_star, r.basis_size) == (
            q.iteration, q.t_star, q.mode_star, q.basis_size
        )
        assert abs(r.max_eta - q.max_eta) <= 1e-6 * q.max_eta + 1e-4 * gcfg.tol
    assert basis.Z.tobytes() == ref.Z.tobytes()


def _factor_sizes(monkeypatch):
    """Orders of the matrices every sparse LU factors from now on."""
    sizes = []
    splu = scipy.sparse.linalg.splu

    def recorded(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    return sizes


@pytest.mark.parametrize("gauge", ["tree-cotree", "none"])
@pytest.mark.parametrize("form", RESIDUAL_FORMS)
def test_greedy_converged_on_its_first_sweep_factors_only_mass_matrices(
    gauge, form, monkeypatch, quiet_warnings
):
    problem, basis = _small_setup(gauge=gauge)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 5), tol=np.inf, N_max=20,
        residual_form=form,
    )
    sizes = _factor_sizes(monkeypatch)
    _, log = greedy_extend(basis, cfg, problem)
    assert len(log.records) == 1
    assert max(sizes, default=0) <= problem.n_curl


@pytest.mark.parametrize(
    "gauge, form, stacked",
    [
        ("tree-cotree", "mass", 1),
        ("tree-cotree", "mass-inverse", 1),
        ("none", "mass-inverse", 1),
        ("none", "mass", 0),  # edge bases need no factor to expand or weight
    ],
)
def test_enriching_greedy_factors_the_stacked_mass_matrix_once(
    gauge, form, stacked, monkeypatch, quiet_warnings
):
    problem, basis = _small_setup(gauge=gauge, family="bump", n=4, K=3, n_pod=3)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 8), tol=1e-7, N_max=25,
        residual_form=form,
    )
    sizes = _factor_sizes(monkeypatch)
    _, log = greedy_extend(basis, cfg, problem)
    # at least one enrichment that a later sweep scored (the edge-space
    # greedy stagnates on its second: ROADMAP item 8)
    assert len(log.records) >= 2 and log.records[0].appended
    assert sizes.count(8 * problem.n_curl) == stacked


def test_greedy_keeps_nothing_after_it_returns(monkeypatch, quiet_warnings):
    problem, basis = _small_setup(family="bump", n=4, K=3, n_pod=3)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0.05, 0.95, 8), tol=1e-7, N_max=25,
        residual_form="mass-inverse",
    )
    refs = []

    class Watched(greedy._TrainingSet):
        def sweep(self):
            refs[:] = [weakref.ref(self), weakref.ref(self.U)]
            return super().sweep()

    monkeypatch.setattr(greedy, "_TrainingSet", Watched)
    before = dict(problem.__dict__)
    systems = dict(problem._systems)
    gc.disable()
    try:
        _, log = greedy_extend(basis, cfg, problem)
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    assert len(log.records) > 2
    assert problem.__dict__ == before
    assert problem._systems == systems


def test_greedy_infinite_tolerance_is_noop(quiet_warnings):
    problem, basis = _small_setup()
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 5),
        tol=np.inf, N_max=20,
    )
    out, log = greedy_extend(basis, cfg, problem)
    assert out.size == basis.size
    assert log.status == "converged"
    assert len(log.records) == 1


def _five_column_basis():
    """POD basis of the five lowest modes of the n = 4 affine problem at t = 0.25."""
    problem = make_problem(n=4, family="affine", gauge="tree-cotree")
    snaps = collect_snapshots(problem, [0.25], 5)
    basis = pod_basis(
        snaps.Y, problem.basis_metric, 5, gauge="tree-cotree",
        space=problem.basis_space,
    )
    return problem, basis


def test_greedy_single_parameter_terminates_immediately(quiet_warnings):
    problem, basis = _five_column_basis()
    cfg = GreedyConfig(
        K=3, tau=2, xi_train=np.array([0.25]), tol=1e-8, N_max=20,
    )
    out, log = greedy_extend(basis, cfg, problem)
    assert log.status == "converged"
    assert len(log.records) <= 2
    assert log.records[-1].max_eta < 1e-8


def test_greedy_monotone_growth_and_orthonormality(quiet_warnings):
    problem, basis = _small_setup(family="bump", n=4, K=3, n_pod=3)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 8),
        tol=1e-7, N_max=25,
    )
    out, log = greedy_extend(basis, cfg, problem)
    sizes = [r.basis_size for r in log.records if r.appended]
    assert sizes
    assert all(b > a for a, b in zip([basis.size] + sizes, sizes))
    assert sizes[-1] == out.size
    M = problem.basis_metric
    gram = out.Z.T @ (M @ out.Z)
    np.testing.assert_allclose(gram, np.eye(out.size), atol=1e-9)


def test_greedy_estimator_decreases(quiet_warnings):
    problem, basis = _small_setup(family="bump", n=4, K=3, n_pod=3)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 8),
        tol=1e-8, N_max=25,
    )
    _, log = greedy_extend(basis, cfg, problem)
    etas = [r.max_eta for r in log.records]
    assert log.status in ("converged", "nmax-reached")
    assert min(etas) == etas[-1] or etas[-1] < 1e-8
    assert etas[-1] < etas[0]


def test_greedy_appends_degenerate_clusters_whole(quiet_warnings):
    problem = make_problem(n=8, family="identity", gauge="tree-cotree")
    snaps = collect_snapshots(problem, [0.0], 3)
    basis = pod_basis(
        snaps.Y, problem.basis_metric, 3, gauge="tree-cotree",
        space=problem.basis_space,
    )
    cfg = GreedyConfig(
        K=5, tau=2, xi_train=np.linspace(0, 1, 3), tol=1e-9, N_max=15,
    )
    out, log = greedy_extend(basis, cfg, problem)
    assert log.status == "converged"
    # the missing double pair enters as one two-dimensional eigenspace
    appended = [r.appended for r in log.records if r.appended]
    assert 2 in appended


def test_greedy_warns_on_small_initial_size():
    problem, basis = _five_column_basis()
    cfg = GreedyConfig(K=5, tau=2, xi_train=np.linspace(0, 1, 3), tol=np.inf, N_max=10)
    with pytest.warns(UserWarning, match="below the recommended") as record:
        greedy_extend(basis, cfg, problem)
    assert [str(w.message) for w in record] == [
        "N_init=5 is below the recommended 11 = ceil(1.5 (K + tau)); "
        "estimator reliability may suffer"
    ]
    # the warning names the line that called the greedy
    assert [w.filename for w in record] == [__file__]


def test_greedy_rejects_nmax_below_initial_size():
    problem, basis = _five_column_basis()
    cfg = GreedyConfig(K=2, tau=1, xi_train=np.linspace(0, 1, 3), tol=1e-6, N_max=4)
    with pytest.raises(ValueError, match="N_max=4 is below the initial basis size 5"):
        greedy_extend(basis, cfg, problem)


@pytest.mark.parametrize(
    "change, key",
    [
        ({"K": 0}, "K"),
        ({"tau": -1}, "tau"),
        ({"tol": 0.0}, "tol"),
        ({"tol": np.nan}, "tol"),
        ({"delta_mult": np.nan}, "delta_mult"),
        ({"delta_mult": -1.0}, "delta_mult"),
        ({"delta_mult": np.inf}, "delta_mult"),
        ({"xi_train": []}, "xi_train"),
        ({"xi_train": [0.0, np.nan]}, "xi_train"),
        ({"residual_form": "bogus"}, "residual_form"),
    ],
)
def test_greedy_config_rejects(change, key):
    args = dict(K=3, tau=1, xi_train=np.linspace(0, 1, 3), tol=1e-6, N_max=10)
    with pytest.raises(ConfigError) as err:
        GreedyConfig(**{**args, **change})
    assert err.value.key == key
    assert str(err.value).startswith(f"{key} ")


def test_enrichment_widens_the_window_until_the_cluster_ends():
    # a cluster of seven eigenvalues at the worst mode reaches past the
    # first window of K + tau + 2 = 5 pairs: the solve repeats with twice
    # the count, and the whole cluster is returned
    calls = []

    class Stub:
        size = 40

        def snapshot_solve(self, t, k):
            calls.append(k)
            lams = np.concatenate([np.ones(7), 2.0 + np.arange(k)])[:k]
            return lams, np.tile(np.arange(k, dtype=float), (3, 1))

    cfg = GreedyConfig(
        K=2, tau=1, xi_train=[0.5], tol=1e-6, N_max=10,
    )
    solves = {}
    V = _enrichment_vectors(Stub(), 0.5, 1, cfg, solves)
    assert calls == [5, 10]
    np.testing.assert_array_equal(V, np.tile(np.arange(7.0), (3, 1)))
    # a second pick at t = 0.5 inside the kept window of 10 solves nothing
    V = _enrichment_vectors(Stub(), 0.5, 8, cfg, solves)
    assert calls == [5, 10]
    np.testing.assert_array_equal(V, np.full((3, 1), 8.0))
    # a cluster at the kept window's edge solves once, with twice the count
    V = _enrichment_vectors(Stub(), 0.5, 9, cfg, solves)
    assert calls == [5, 10, 20]
    np.testing.assert_array_equal(V, np.full((3, 1), 9.0))


def test_greedy_solves_each_enrichment_parameter_once(monkeypatch, quiet_warnings):
    # every solve at a parameter the greedy picked before widens the kept
    # window: twice its count, and only because the cluster reached its edge
    problem, basis = _small_setup(family="bump", n=4, K=3, n_pod=3)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 8), tol=1e-7, N_max=25,
    )
    calls = []
    snapshot_solve = problem.snapshot_solve

    def recorded(t, k):
        calls.append((t, k))
        return snapshot_solve(t, k)

    monkeypatch.setattr(problem, "snapshot_solve", recorded)
    _, log = greedy_extend(basis, cfg, problem)
    picks = [r.t_star for r in log.records if r.appended or r.skipped]
    assert len(set(picks)) < len(picks)  # some parameter is picked again
    widenings = [
        (t, k) for i, (t, k) in enumerate(calls)
        if any(u == t and q < k for u, q in calls[:i])
    ]
    for t, k in widenings:
        previous = max(q for u, q in calls if u == t and q < k)
        assert k == min(2 * previous, problem.size)
    assert len(calls) == len(set(picks)) + len(widenings)


def test_greedy_nmax_cap(quiet_warnings):
    problem, basis = _small_setup(family="bump", n=4, K=3, n_pod=3)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 8),
        tol=1e-30, N_max=basis.size + 2,
    )
    out, log = greedy_extend(basis, cfg, problem)
    assert log.status in ("nmax-reached", "stagnated")
    assert out.size <= basis.size + 4  # cap plus at most one cluster overshoot


def test_mass_inverse_residual_form(quiet_warnings):
    problem, basis = _small_setup(family="bump", n=4, K=3, n_pod=3)
    cfg = GreedyConfig(
        K=3, tau=1, xi_train=np.linspace(0, 1, 5),
        tol=1e-6, N_max=20, residual_form="mass-inverse",
    )
    out, log = greedy_extend(basis, cfg, problem)
    assert log.status in ("converged", "nmax-reached")
