"""The three benchmark workloads: set-up, one op, and the oracle check.

Each workload reads a generated config (an existing file of ``configs/``
with the run's seed and the workload's overrides applied). The mesh is
built once in set-up; every op runs on a fresh ``CavityProblem`` sharing
that mesh, so per-parameter assembly is paid the way a CLI run pays it.
The program is called through module attributes (``bench.build_basis``,
``tracking.track``, ...) so that the traced run's wrappers see the calls.

Oracles are computed once per run, lazily at check time, after the timed
loop has ended.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.linalg

from cavityrb import bench, geometry, serialize, tracking
from cavityrb.errors import CavityError

# offline-bump compares reduced eigenvalues against the condensed
# high-fidelity solve at one seeded random parameter in each of this many
# equal sub-intervals of [0, 1]. Stratifying keeps the maximum error close
# to its supremum over t whatever the seed (spread 0.3% over ten seeds
# with 64 strata, against 27% for eight plain random parameters).
ORACLE_PARAMETERS = 32

# A reported max_rel_err below this reads as this value. Two LAPACK
# drivers disagree by 3e-12 on the n=24 eigenvalues, so smaller errors are
# round-off of the oracle, which any change of summation order moves.
ERR_RESOLUTION = 1e-10


def tracking_config(cfg, system):
    """The tracking settings ``cavityrb track`` derives from a run config."""
    return tracking.TrackingConfig(
        K=cfg.K, h=cfg.track_h, system=system, rho_min=cfg.rho_min,
        max_halvings=cfg.max_halvings, overtrack=cfg.tau,
        delta_mult=cfg.delta_mult,
    )


def rectangle_modes(a1, K, h, max_index=12):
    """Labels, endpoint eigenvalues, crossing parameters and (m, n) of the
    K tracked modes.

    On the a(t) x 1 rectangle, a(t) = 1 + (a1 - 1) t, mode (m, n) has
    lambda = pi^2 (m^2 / a^2 + n^2). At t = 0 modes are ordered by m^2 + n^2;
    inside a degenerate cluster the member that is lower just after t = 0
    (at the seeding probe t = min(h / 4, 0.25)) comes first. Two tracked
    modes cross where a^2 = (m_i^2 - m_j^2) / (n_j^2 - n_i^2), if that lies
    in (0, 1].
    """
    a_probe = 1.0 + (a1 - 1.0) * min(h / 4.0, 0.25)
    modes = [(m, n) for m in range(max_index + 1) for n in range(max_index + 1)
             if m or n]
    modes.sort(key=lambda mn: (mn[0] ** 2 + mn[1] ** 2,
                               mn[0] ** 2 / a_probe**2 + mn[1] ** 2, mn))
    tracked = modes[:K]
    crossings = []
    for i, (mi, ni) in enumerate(tracked):
        for mj, nj in tracked[i + 1:]:
            if nj * nj == ni * ni:
                continue
            a_sq = (mi * mi - mj * mj) / (nj * nj - ni * ni)
            if a_sq > 0:
                t = (math.sqrt(a_sq) - 1.0) / (a1 - 1.0)
                if 1e-9 < t <= 1.0:
                    crossings.append(t)
    labels = [f"({m},{n})" for m, n in tracked]
    values = [math.pi**2 * (m * m / a1**2 + n * n) for m, n in tracked]
    return labels, values, sorted(crossings), tracked


class Workload:
    """One workload: ``setup`` once, then ``op`` in a closed loop."""

    name = ""
    # The calibration.KERNELS entries the op and the set-up are scaled by.
    op_kernel = "dense"
    setup_kernel = "interpreter"

    def __init__(self, cfg, workdir, seed, count=None):
        self.cfg = cfg
        self.workdir = workdir
        self.seed = seed
        self.count = count or (lambda name, value=1: None)
        self.mesh = None
        self._oracle = None

    def setup(self):
        self.mesh = geometry.build_reference_mesh(self.cfg.mesh_n)

    def op(self):
        raise NotImplementedError

    def check(self, output):
        """(list of failed checks, max relative error of this output)."""
        raise NotImplementedError

    def oracle(self):
        if self._oracle is None:
            self._oracle = self.make_oracle()
        return self._oracle

    def make_oracle(self):
        raise NotImplementedError


class OfflineBump(Workload):
    name = "offline-bump"

    def op(self):
        problem = bench.build_problem(self.cfg, mesh=self.mesh)
        basis, log, _ = bench.build_basis(problem, self.cfg)
        return basis, log

    def make_oracle(self):
        problem = bench.build_problem(self.cfg, mesh=self.mesh)
        jitter = np.random.default_rng(self.seed).uniform(0.0, 1.0, ORACLE_PARAMETERS)
        ts = (np.arange(ORACLE_PARAMETERS) + jitter) / ORACLE_PARAMETERS
        truth = [problem.solve_condensed(float(t), self.cfg.K).lambdas for t in ts]
        return problem, ts, truth

    def check(self, output):
        basis, log = output
        failed = [] if log.status == "converged" else [f"greedy {log.status}"]
        problem, ts, truth = self.oracle()
        err = 0.0
        for t, lam_hf in zip(ts, truth):
            A_red, B_red, _ = problem.reduced_pencil(basis.Z, float(t), space=basis.space)
            lam = scipy.linalg.eigh(A_red, B_red, eigvals_only=True)[: lam_hf.size]
            err = max(err, float(np.max(np.abs(lam - lam_hf) / lam_hf)))
        return failed, err


class _Tracking(Workload):
    system = ""

    def make_oracle(self):
        return rectangle_modes(self.cfg.stretch_a1, self.cfg.K, self.cfg.track_h)

    def check_trace(self, trace):
        if not trace.complete:
            return [f"tracking {trace.status}"]
        labels, _, crossings, _ = self.oracle()
        failed = []
        flagged = [mid for _, _, mid in trace.crossings()]
        if len(flagged) != len(crossings) or any(
            abs(f - c) > self.cfg.track_h for f, c in zip(flagged, crossings)
        ):
            failed.append(f"crossings at {flagged}, expected near {crossings}")
        table = tracking.analytic_rectangle_table(self.cfg.stretch_a1, self.cfg.K + 12)
        got = tracking.classify_endpoint(trace, table)
        if got != labels:
            failed.append(f"endpoint labels {got}, expected {labels}")
        return failed

    def op(self):
        problem = bench.build_problem(self.cfg, mesh=self.mesh)
        return tracking.track(
            tracking_config(self.cfg, self.system), problem, basis=self.basis
        )


class OnlineAffine(_Tracking):
    name = "online-affine"
    system = "reduced"
    op_kernel = "interpreter"
    setup_kernel = "dense"

    def setup(self):
        super().setup()
        problem = bench.build_problem(self.cfg, mesh=self.mesh)
        basis, log, _ = bench.build_basis(problem, self.cfg)
        if log.status != "converged":
            raise CavityError(f"set-up greedy ended with status {log.status}")
        path = os.path.join(self.workdir, f"basis-{os.getpid()}.txt")
        serialize.save_basis(path, basis)
        self.count("serialize.basis_bytes", os.path.getsize(path))
        self.basis = serialize.load_basis(path)
        os.remove(path)
        self._hf = {}

    def _hf_eigenvalues(self, t):
        """Dense high-fidelity eigenvalues at t around the tracked modes.

        The window spans half the lowest to twice the highest analytic
        eigenvalue of the tracked modes at t, which keeps the gradient null
        space out of it without a threshold.
        """
        if not self._hf:
            self._hf_problem = bench.build_problem(self.cfg, mesh=self.mesh)
        if t not in self._hf:
            a = 1.0 + (self.cfg.stretch_a1 - 1.0) * t
            _, _, _, modes = self.oracle()
            exact = [math.pi**2 * (m * m / a**2 + n * n) for m, n in modes]
            system = self._hf_problem.system(t)
            self._hf[t] = scipy.linalg.eigh(
                system.A.toarray(), system.B.toarray(), eigvals_only=True,
                subset_by_value=(0.5 * min(exact), 2.0 * max(exact)),
            )
        return self._hf[t]

    def check(self, trace):
        failed = self.check_trace(trace)
        err = 0.0
        for step in trace.steps:
            hf = self._hf_eigenvalues(step.t)
            nearest = hf[np.abs(hf[None, :] - step.lambdas[:, None]).argmin(axis=1)]
            err = max(err, float(np.max(np.abs(step.lambdas - nearest) / nearest)))
        return failed, err


class HfTrack(_Tracking):
    name = "hf-track"
    system = "high-fidelity"
    basis = None

    def check(self, trace):
        failed = self.check_trace(trace)
        if not trace.complete:
            return failed, math.nan
        _, values, _, _ = self.oracle()
        lam = trace.endpoint_lambdas()
        return failed, float(np.max(np.abs(lam - values) / np.array(values)))


WORKLOADS = {w.name: w for w in (OfflineBump, OnlineAffine, HfTrack)}
