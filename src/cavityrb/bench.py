"""Run orchestration: basis construction, error studies, timing benchmarks.

Timing convention for the benchmark: raw matrix assembly and offline basis
construction are excluded (warm caches), everything t-dependent downstream
is included. The two high-fidelity variants solve the full pencil for its
physical modes (the cotree variant is the same computation, timed once and
reported with the cotree dimension), and the reduced variants evaluate the
pencil interpolants of their bases, the online layer of every gauge.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
from statistics import mean, median

import numpy as np

from .config import RunConfig, config_to_dict
from .errors import CavityError, RankDeficiencyError
from .eigensolve import null_mask, solve_dense_gevp
from .geometry import affine_stretch, build_reference_mesh, sine_bump
from .greedy import greedy_extend
from .online import pencil_interpolant
from .pod import ReducedBasis, collect_snapshots, pod_basis
from .problem import CavityProblem
from .tracking import analytic_rectangle_table, classify_endpoint, track


def build_problem(cfg: RunConfig, gauge: str | None = None, mesh=None) -> CavityProblem:
    if mesh is None:
        mesh = build_reference_mesh(cfg.mesh_n)
    if cfg.family == "affine-stretch":
        family = affine_stretch(cfg.stretch_a1)
    else:
        family = sine_bump(cfg.bump_beta)
    return CavityProblem(mesh=mesh, family=family, gauge=gauge or cfg.gauge)


def initial_basis(problem: CavityProblem, cfg: RunConfig):
    """Snapshots, POD, and the strategy's spurious-mode cleanup.

    When the snapshot set has less numerical rank than the requested
    initial size, the basis degrades to the achievable size with a warning
    (strongly correlated snapshot families hit the POD rank floor).
    """
    ts = np.linspace(0.0, 1.0, cfg.N_pod)
    snapshots = collect_snapshots(problem, ts, cfg.K)
    n_init = cfg.resolved_n_init()
    pod = partial(
        pod_basis, snapshots.Y, problem.basis_metric,
        t_ref=problem.t_ref, gauge=problem.gauge, space=problem.basis_space,
    )
    try:
        basis = pod(n_init)
    except RankDeficiencyError as exc:
        warnings.warn(
            f"snapshot rank supports only {exc.achievable} POD modes, "
            f"requested {n_init}; continuing with the achievable size",
            stacklevel=2,
        )
        basis = pod(exc.achievable)
    Z_clean, dropped = problem.clean_basis(basis.Z)
    if problem.gauge == "projection":
        Z_clean, kept = problem.orthonormalize(Z_clean)
        dropped = [j for j in range(basis.size) if j not in kept]
    if dropped:
        warnings.warn(
            f"spurious-mode cleanup dropped {len(dropped)} initial basis columns",
            stacklevel=2,
        )
    provenance = [p for j, p in enumerate(basis.provenance) if j not in set(dropped)]
    basis = ReducedBasis(
        Z=Z_clean, t_ref=basis.t_ref, gauge=basis.gauge, provenance=provenance,
        space=basis.space,
    )
    return basis, snapshots


def extend_basis(problem: CavityProblem, cfg: RunConfig, basis0):
    """Greedy extension of an initial basis; returns (basis, log).

    The returned basis carries the interpolant of its reduced pencil.
    """
    basis, log = greedy_extend(basis0, cfg.greedy_config(), problem)
    interpolant = pencil_interpolant(problem, basis.Z)
    return replace(basis, interpolant=interpolant), log


def build_basis(problem: CavityProblem, cfg: RunConfig):
    """Full offline phase: POD initialization plus greedy extension.

    Returns (basis, log, snapshots).
    """
    basis0, snapshots = initial_basis(problem, cfg)
    basis, log = extend_basis(problem, cfg, basis0)
    return basis, log, snapshots


# --------------------------------------------------------------------- study


@dataclass
class ErrorStudy:
    """Signed average and max-absolute eigenvalue errors over a test set.

    rows hold (basis_size, mode, avg signed, max abs, null leak), sizes
    ascending, one row per mode and scored size.
    """

    problem: CavityProblem
    cfg: RunConfig
    ts_test: np.ndarray
    rows: list

    @classmethod
    def run(cls, problem: CavityProblem, cfg: RunConfig, Z: np.ndarray, sizes):
        """Score the leading ``sizes`` columns of the basis Z.

        The reduced pencil of a leading block of columns is the leading
        block of Z's reduced pencil, so each test parameter costs one truth
        solve and one ``reduced_pencil``. Its system leaves the problem's
        cache before the next parameter is assembled.
        """
        K = cfg.K
        ts_test = np.random.default_rng(cfg.seed).uniform(0.0, 1.0, cfg.N_test)
        signed = np.zeros((len(sizes), K))
        max_abs = np.zeros((len(sizes), K))
        leak = [0] * len(sizes)
        for t in ts_test.tolist():
            with problem.transient_systems():
                truth = problem.solve(t, K)[1]
                A_red, B_red, _ = problem.reduced_pencil(Z, t)
            for s, N in enumerate(sizes):
                lam, _ = solve_dense_gevp(A_red[:N, :N], B_red[:N, :N])
                leak[s] = max(leak[s], int(null_mask(lam, cfg.null_tol).sum()))
                take = min(K, lam.size)
                rel = (lam[:take] - truth[:take]) / truth[:take]
                signed[s, :take] += rel
                max_abs[s, :take] = np.maximum(max_abs[s, :take], np.abs(rel))
        signed /= len(ts_test)
        rows = [
            (N, i, signed[s, i], max_abs[s, i], leak[s])
            for s, N in enumerate(sizes) for i in range(K)
        ]
        return cls(problem=problem, cfg=cfg, ts_test=ts_test, rows=rows)

    def final_errors(self):
        """(avg signed, max abs) per mode at the largest recorded size."""
        if not self.rows:
            raise CavityError("error study has no evaluations")
        last = max(r[0] for r in self.rows)
        sel = [r for r in self.rows if r[0] == last]
        return (
            np.array([r[2] for r in sel]),
            np.array([r[3] for r in sel]),
        )


def run_error_study(cfg: RunConfig):
    """Offline build, then per-size test errors of the initial POD basis
    and of every greedy extension.

    Returns (study, basis, log).
    """
    problem = build_problem(cfg)
    basis0, _ = initial_basis(problem, cfg)
    basis, log = extend_basis(problem, cfg, basis0)
    study = ErrorStudy.run(problem, cfg, basis.Z, log.sizes(basis0.size))
    return study, basis, log


def classify_run(cfg: RunConfig, trace):
    """Endpoint labels of a complete trace against the analytic rectangle
    modes, or None when the family has no analytic table."""
    if cfg.family != "affine-stretch":
        return None
    return classify_endpoint(
        trace, analytic_rectangle_table(cfg.stretch_a1, cfg.K + 12)
    )


# --------------------------------------------------------------------- bench


# Least wall time the timed runs of one callable take together: a reduced
# track of a few ms is repeated until its median no longer rests on three
# samples.
MIN_TIMED_S = 0.25


def _time_callable(fn, repetitions: int):
    """(median, mean, runs) of the seconds per run after one warm-up: the
    callable runs at least ``repetitions`` times and until the timed runs
    add up to MIN_TIMED_S."""
    fn()  # warm-up, also fills raw assembly caches
    times = []
    while len(times) < repetitions or sum(times) < MIN_TIMED_S:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times), mean(times), len(times)


BENCH_GAUGES = ("tree-cotree", "gram-schmidt")


@dataclass
class BenchVariant:
    label: str
    dof_count: int
    evp_median: float = float("nan")
    evp_mean: float = float("nan")
    track_median: float = float("nan")
    track_mean: float = float("nan")
    evp_runs: int = 0
    track_runs: int = 0
    status: str = "ok"


def run_bench(cfg: RunConfig, prebuilt: dict | None = None):
    """Time one eigensolve and one full tracking per system variant.

    Variants: the full pencil's physical modes, timed once and reported
    with the edge dimension (high-fidelity) and with the cotree dimension
    (high-fidelity-cotree), and the reduced bases cleaned by tree-cotree
    and by fixed-parameter orthogonalization, both built with identical
    budgets. Returns a report dict with per-variant rows and the timing
    protocol.
    """
    prebuilt = dict(prebuilt or {})
    mesh = build_reference_mesh(cfg.mesh_n)
    # each reduced basis is tracked on a problem of its own gauge
    problems = {g: build_problem(cfg, gauge=g, mesh=mesh) for g in BENCH_GAUGES}
    problem = problems["tree-cotree"]
    bases = {
        g: prebuilt[g] if g in prebuilt else build_basis(p, cfg)[0]
        for g, p in problems.items()
    }

    t_evp = 0.5
    k = cfg.K

    def make_track(system, basis=None, track_problem=problem):
        tcfg = cfg.tracking_config(system)

        def _run():
            trace = track(tcfg, track_problem, basis=basis)
            if not trace.complete:
                raise CavityError(f"benchmark tracking aborted: {trace.status}")

        return _run

    plan = [
        (
            "high-fidelity", problem.n_curl, partial(problem.solve, t_evp, k),
            make_track("high-fidelity"),
        ),
    ] + [
        (
            f"rb-{gauge}",
            bases[gauge].size,
            partial(bases[gauge].interpolant.solve, t_evp, k),
            make_track("reduced", bases[gauge], problems[gauge]),
        )
        for gauge in problems
    ]

    rows = []
    for label, dof, evp_fn, track_fn in plan:
        variant = BenchVariant(label=label, dof_count=dof)
        # one enclosing block keeps what the warm-up assembles (a march
        # alone drops it) until the timed runs are over
        with problem.transient_systems():
            try:
                variant.evp_median, variant.evp_mean, variant.evp_runs = (
                    _time_callable(evp_fn, cfg.repetitions)
                )
                variant.track_median, variant.track_mean, variant.track_runs = (
                    _time_callable(track_fn, cfg.repetitions)
                )
            except CavityError as exc:
                variant.status = f"failed: {exc}"
        rows.append(variant)
    # the high-fidelity timings, reported with the cotree dimension
    rows.insert(1, replace(
        rows[0], label="high-fidelity-cotree", dof_count=problem.size,
    ))

    ref = rows[0]
    report_rows = []
    for variant in rows:
        report_rows.append(
            {
                "label": variant.label,
                "dof_count": variant.dof_count,
                "evp_time_median": variant.evp_median,
                "evp_time_mean": variant.evp_mean,
                "evp_runs": variant.evp_runs,
                "evp_speedup": ref.evp_median / variant.evp_median
                if variant.status == "ok"
                else float("nan"),
                "tracking_time_median": variant.track_median,
                "tracking_time_mean": variant.track_mean,
                "tracking_runs": variant.track_runs,
                "tracking_speedup": ref.track_median / variant.track_median
                if variant.status == "ok"
                else float("nan"),
                "status": variant.status,
            }
        )
    return {
        "rows": report_rows,
        "protocol": {
            "repetitions": cfg.repetitions,
            "min_timed_s": MIN_TIMED_S,
            "aggregation": "median (mean reported alongside) of at least "
            "`repetitions` runs lasting at least `min_timed_s` together; "
            "each row reports its run counts",
            "warmup_runs_discarded": 1,
            "excluded": "raw matrix assembly and offline basis construction",
            "included": "per-parameter condensation, reduced-pencil evaluation "
            "and all solves",
        },
    }


# ------------------------------------------------------------------ pipeline


def run_pipeline(cfg: RunConfig, with_bench: bool = True):
    """Offline-online pipeline; returns (manifest, artifacts).

    Stages: snapshots and POD, cleanup, greedy, basis serialization data,
    tracking, endpoint classification, error study (its truth solves, then
    the test errors of every basis the greedy went through), benchmark. A
    stage failure is recorded and the remaining stages are skipped. The
    Python warnings a stage raises are recorded in the manifest, prefixed
    with the stage name, instead of reaching stderr. Nothing in the manifest
    depends on wall clock, so a reproduced run yields a byte-identical
    manifest.
    """
    manifest = {
        "schema": 1,
        "config": config_to_dict(cfg),
        "stages": [],
        "warnings": [],
    }
    artifacts = {}
    if cfg.gauge == "none":
        manifest["warnings"].append(
            "gauge=none: snapshots may contain spurious gradient content"
        )

    state = {"failed": False}

    def run_stage(name, fn):
        record = {"name": name, "status": "skipped", "error": None}
        manifest["stages"].append(record)
        if state["failed"]:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                fn()
                record["status"] = "ok"
            except CavityError as exc:
                record["status"] = "failed"
                record["error"] = str(exc)
                state["failed"] = True
        manifest["warnings"].extend(f"{name}: {w.message}" for w in caught)

    def _build_initial():
        state["problem"] = build_problem(cfg)
        state["basis0"], _ = initial_basis(state["problem"], cfg)

    def _greedy():
        basis, log = extend_basis(state["problem"], cfg, state["basis0"])
        artifacts["greedy_log"] = log
        artifacts["basis"] = basis
        manifest["stages"][-1]["detail"] = (
            f"status={log.status}, basis_size={basis.size}"
        )
        manifest["interpolant"] = {
            "m": basis.interpolant.m,
            "coefficient_tail": basis.interpolant.tail,
        }

    def _serialize():
        artifacts["tree_cotree"] = state["problem"].tree_cotree

    def _track():
        basis = artifacts.get("basis") if cfg.track_system == "reduced" else None
        trace = track(
            cfg.tracking_config(cfg.track_system), state["problem"], basis=basis
        )
        if not trace.complete:
            raise CavityError(f"tracking aborted: {trace.status}")
        artifacts["trace"] = trace
        iterations = [s.derivative_iterations for s in trace.steps]
        manifest["stages"][-1]["derivatives"] = {
            "iterations_max": max(iterations),
            "iterations_total": sum(iterations),
            "fallback_steps": sum("derivative-fallback" in s.flags for s in trace.steps),
        }

    def _classify():
        labels = classify_run(cfg, artifacts["trace"])
        if labels is None:
            manifest["warnings"].append(
                "classification skipped: no analytic endpoint table for this family"
            )
        else:
            artifacts["labels"] = labels

    def _study():
        sizes = artifacts["greedy_log"].sizes(state["basis0"].size)
        artifacts["error_study"] = ErrorStudy.run(
            state["problem"], cfg, artifacts["basis"].Z, sizes
        )

    def _bench():
        prebuilt = {}
        if cfg.gauge in BENCH_GAUGES and "basis" in artifacts:
            prebuilt[cfg.gauge] = artifacts["basis"]
        artifacts["bench"] = run_bench(cfg, prebuilt=prebuilt)

    run_stage("snapshots-pod-cleanup", _build_initial)
    run_stage("greedy", _greedy)
    run_stage("serialize", _serialize)
    run_stage("track", _track)
    run_stage("classify", _classify)
    run_stage("error-study", _study)
    if with_bench:
        run_stage("bench", _bench)

    return manifest, artifacts
