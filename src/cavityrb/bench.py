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
from dataclasses import dataclass, field, replace
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
    return CavityProblem(
        mesh=mesh,
        family=family,
        gauge=gauge or cfg.gauge,
        null_tol=cfg.null_tol,
    )


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


def extend_basis(problem: CavityProblem, cfg: RunConfig, basis0, study=None):
    """Greedy extension of an initial basis; returns (basis, log).

    A given ErrorStudy evaluates the initial basis and every extension. The
    returned basis carries the interpolant of its reduced pencil.
    """
    if study is not None:
        study.evaluate(basis0.Z)
    basis, log = greedy_extend(
        basis0, cfg.greedy_config(), problem,
        callback=None if study is None else lambda iteration, Z: study.evaluate(Z),
    )
    interpolant = pencil_interpolant(problem, basis.Z)
    return replace(basis, interpolant=interpolant), log


def build_basis(problem: CavityProblem, cfg: RunConfig, study=None):
    """Full offline phase: POD initialization plus greedy extension.

    Returns (basis, log, snapshots).
    """
    basis0, snapshots = initial_basis(problem, cfg)
    basis, log = extend_basis(problem, cfg, basis0, study)
    return basis, log, snapshots


# --------------------------------------------------------------------- study


@dataclass
class ErrorStudy:
    """Signed average and max-absolute eigenvalue errors over a test set.

    truth[j, i] holds the i-th high-fidelity eigenvalue at test parameter j;
    rows accumulate (basis_size, mode, avg signed, max abs, null leak).
    """

    problem: CavityProblem
    cfg: RunConfig
    ts_test: np.ndarray
    truth: np.ndarray
    rows: list = field(default_factory=list)

    @classmethod
    def prepare(cls, problem: CavityProblem, cfg: RunConfig):
        rng = np.random.default_rng(cfg.seed)
        ts_test = rng.uniform(0.0, 1.0, cfg.N_test)
        truth = np.empty((cfg.N_test, cfg.K))
        for j, t in enumerate(ts_test):
            truth[j] = problem.solve(float(t), cfg.K)[1]
        return cls(problem=problem, cfg=cfg, ts_test=ts_test, truth=truth)

    def evaluate(self, Z: np.ndarray):
        K = self.cfg.K
        signed = np.zeros(K)
        max_abs = np.zeros(K)
        leak = 0
        for j, t in enumerate(self.ts_test):
            A_red, B_red, _ = self.problem.reduced_pencil(Z, float(t))
            lam, _ = solve_dense_gevp(A_red, B_red)
            leak = max(leak, int(null_mask(lam, self.cfg.null_tol).sum()))
            take = min(K, lam.size)
            rel = (lam[:take] - self.truth[j, :take]) / self.truth[j, :take]
            signed[:take] += rel
            max_abs[:take] = np.maximum(max_abs[:take], np.abs(rel))
        signed /= len(self.ts_test)
        size = Z.shape[1]
        for i in range(K):
            self.rows.append((size, i, signed[i], max_abs[i], leak))

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
    """Offline build instrumented with per-size test errors.

    Returns (study, basis, log). The study rows include the initial POD
    basis and every greedy extension.
    """
    problem = build_problem(cfg)
    study = ErrorStudy.prepare(problem, cfg)
    basis, log, _ = build_basis(problem, cfg, study)
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


def _time_callable(fn, repetitions: int):
    """Median/mean seconds over ``repetitions`` runs after one warm-up."""
    fn()  # warm-up, also fills raw assembly caches
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times), mean(times)


BENCH_GAUGES = ("tree-cotree", "gram-schmidt")


@dataclass
class BenchVariant:
    label: str
    dof_count: int
    evp_median: float = float("nan")
    evp_mean: float = float("nan")
    track_median: float = float("nan")
    track_mean: float = float("nan")
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
                variant.evp_median, variant.evp_mean = _time_callable(
                    evp_fn, cfg.repetitions
                )
                variant.track_median, variant.track_mean = _time_callable(
                    track_fn, cfg.repetitions
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
                "evp_speedup": ref.evp_median / variant.evp_median
                if variant.status == "ok"
                else float("nan"),
                "tracking_time_median": variant.track_median,
                "tracking_time_mean": variant.track_mean,
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
            "aggregation": "median (mean reported alongside)",
            "warmup_runs_discarded": 1,
            "excluded": "raw matrix assembly and offline basis construction",
            "included": "per-parameter condensation, reduced-pencil evaluation "
            "and all solves",
        },
    }


# ------------------------------------------------------------------ pipeline


def run_pipeline(cfg: RunConfig, with_bench: bool = True):
    """Offline-online pipeline; returns (manifest, artifacts).

    Stages: snapshots and POD, cleanup, greedy (instrumented with the error
    study), basis serialization data, tracking, endpoint classification,
    error study rows, benchmark. A stage failure is recorded and the
    remaining stages are skipped. The Python warnings a stage raises are
    recorded in the manifest, prefixed with the stage name, instead of
    reaching stderr. Nothing in the manifest depends on wall clock, so a
    reproduced run yields a byte-identical manifest.
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
        state["study"] = ErrorStudy.prepare(state["problem"], cfg)
        state["basis0"], _ = initial_basis(state["problem"], cfg)

    def _greedy():
        basis, log = extend_basis(
            state["problem"], cfg, state["basis0"], state["study"]
        )
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

    def _study_rows():
        artifacts["error_study"] = state["study"]

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
    run_stage("error-study", _study_rows)
    if with_bench:
        run_stage("bench", _bench)

    return manifest, artifacts
