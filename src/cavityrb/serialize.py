"""Text serialization: coordinate triplets, CSV artifacts, basis files.

All floating-point output uses 17 significant digits so that artifacts are
bit-faithful round trips of the underlying doubles.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .online import PencilInterpolant, lobatto_nodes
from .pod import ReducedBasis

BASIS_MAGIC = "cavityrb-basis"
BASIS_VERSION = 2
# Header keys in file order; version 1 has the first five only, and a
# version-2 basis without an interpolant writes ``m 0`` and no fingerprint.
BASIS_KEYS = (
    "n", "N", "t_ref", "gauge", "space", "mesh_n", "n_curl", "family", "m", "tail",
)


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_matrix_triplets(path, M):
    """One 'row col value' line per stored entry, row-major sorted.

    The leading '#' line carries the shape so an independent reader can
    reconstruct dimensions; triplet parsers may skip it.
    """
    C = sp.coo_matrix(M)
    order = np.lexsort((C.col, C.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# shape {C.shape[0]} {C.shape[1]} nnz {C.nnz}\n")
        for i in order:
            fh.write(f"{C.row[i]} {C.col[i]} {fmt(C.data[i])}\n")


def read_matrix_triplets(path):
    rows, cols, vals = [], [], []
    shape = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                shape = (int(parts[2]), int(parts[3]))
                continue
            r, c, v = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
    if shape is None:
        shape = (max(rows) + 1 if rows else 0, max(cols) + 1 if cols else 0)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def write_mesh(path, mesh):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vertices {mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{fmt(x)} {fmt(y)}\n")
        fh.write(f"edges {mesh.num_edges}\n")
        for a, b in mesh.edges:
            fh.write(f"{a} {b}\n")
        fh.write(f"triangles {mesh.num_triangles}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")


def write_csv(path, header, rows):
    """Schema-stable CSV: fixed header, floats at 17 significant digits;
    cells holding a comma (endpoint labels such as ``(1,0)``) are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [fmt(c) if isinstance(c, (float, np.floating)) else c for c in row]
            for row in rows
        )


def save_basis(path, basis: ReducedBasis):
    """Binary-free basis artifact: header, provenance, column-major values,
    then the interpolant's node values (the upper triangles of A_N and B_N,
    row-major, per node).

    The header fingerprints the problem the interpolant was built on:
    mesh_n, n_curl, the family kind and its parameter, beside the basis's
    gauge, space and t_ref.
    """
    Z = np.asarray(basis.Z, dtype=float)
    interp = basis.interpolant
    header = [
        f"{BASIS_MAGIC} {BASIS_VERSION}", f"n {Z.shape[0]}", f"N {Z.shape[1]}",
        f"t_ref {fmt(basis.t_ref)}", f"gauge {basis.gauge}", f"space {basis.space}",
    ]
    values = [Z.T.ravel()]
    if interp is None:
        header.append("m 0")
    else:
        mesh_n, n_curl, kind, parameter = interp.fingerprint
        header += [
            f"mesh_n {mesh_n}", f"n_curl {n_curl}", f"family {kind} {fmt(parameter)}",
            f"m {interp.m}", f"tail {fmt(interp.tail)}",
        ]
        values.append(interp.values.ravel())
    for j in range(Z.shape[1]):
        tag = basis.provenance[j] if j < len(basis.provenance) else "unknown"
        header.append(f"column {j} {tag}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for v in np.concatenate(values):
            fh.write(fmt(v) + "\n")


def load_basis(path) -> ReducedBasis:
    """Read a basis artifact of version 1 or 2; a malformed file is a
    ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        head = lines[0].split()
        if head[0] != BASIS_MAGIC or int(head[1]) not in (1, BASIS_VERSION):
            raise ConfigError(f"not a basis artifact: {path}")
        fields = {}
        row = 1
        while lines[row].split(maxsplit=1)[0] in BASIS_KEYS:
            key, value = lines[row].split(maxsplit=1)
            fields[key] = value
            row += 1
        if fields["space"] not in ("edge", "cotree"):
            raise ValueError(f"space {fields['space']!r} is neither edge nor cotree")
        n, N, m = int(fields["n"]), int(fields["N"]), int(fields.get("m", 0))
        t_ref = float(fields["t_ref"])
        provenance = []
        for j in range(N):
            parts = lines[row + j].split(maxsplit=2)
            provenance.append(parts[2] if len(parts) > 2 else "unknown")
        row += N
        count = n * N + (m + 1) * N * (N + 1) if m else n * N
        if len(lines) - row != count:
            raise ConfigError(
                f"basis artifact {path} holds {len(lines) - row} values, "
                f"its header declares {count}"
            )
        data = np.array([float(x) for x in lines[row:]])
        if not (np.isfinite(data).all() and np.isfinite(t_ref)):
            raise ConfigError(f"basis artifact {path} holds non-finite values")
        Z = data[: n * N].reshape(N, n).T.copy()
        interp = None
        if m:
            kind, parameter = fields["family"].split()
            interp = PencilInterpolant(
                nodes=lobatto_nodes(m),
                values=data[n * N :].reshape(m + 1, 2, -1),
                size=N,
                tail=float(fields["tail"]),
                fingerprint=(
                    int(fields["mesh_n"]), int(fields["n_curl"]), kind, float(parameter)
                ),
            )
    except ConfigError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise ConfigError(f"malformed basis artifact {path}: {exc}") from exc
    return ReducedBasis(
        Z=Z, t_ref=t_ref, gauge=fields["gauge"], provenance=provenance,
        space=fields["space"], interpolant=interp,
    )


def write_tree_cotree(path, tc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tree " + " ".join(str(i) for i in tc.tree) + "\n")
        fh.write("cotree " + " ".join(str(i) for i in tc.cotree) + "\n")


def write_manifest(path, manifest: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


TRACE_HEADER = (
    "step", "t", "tracked_index", "mode_label", "lambda", "freq",
    "rho", "perm_index", "flags",
)


def trace_rows(trace):
    """One row per (step, tracked mode), deterministic order."""
    rows = []
    labels = trace.labels or [str(k) for k in range(len(trace.steps[0].lambdas))]
    for s_idx, step in enumerate(trace.steps):
        for k in range(len(step.lambdas)):
            lam = step.lambdas[k]
            rows.append(
                (
                    s_idx,
                    step.t,
                    k,
                    labels[k],
                    lam,
                    np.sqrt(max(lam, 0.0)) / (2.0 * np.pi),
                    step.rhos[k],
                    int(step.ranks[k]),
                    ";".join(step.flags) if step.flags else "-",
                )
            )
    return rows


GREEDY_HEADER = ("iteration", "t_star", "mode_star", "max_eta", "basis_size")

ERROR_STUDY_HEADER = (
    "basis_size", "mode", "avg_signed_error", "max_abs_error", "null_leak",
)

BENCH_HEADER = (
    "label", "dof_count", "evp_time_median", "evp_time_mean", "evp_speedup",
    "tracking_time_median", "tracking_time_mean", "tracking_speedup",
)
