import numpy as np
import pytest
import scipy.sparse as sp

from cavityrb import build_reference_mesh
from cavityrb.errors import ConfigError
from cavityrb.pod import ReducedBasis
from cavityrb.serialize import (
    fmt,
    load_basis,
    save_basis,
    write_csv,
    write_matrix_triplets,
    write_mesh,
    write_tree_cotree,
)
from cavityrb.gauge import build_tree_cotree

from conftest import read_matrix_triplets


def test_fmt_17_significant_digits():
    x = 1.0 / 3.0
    assert float(fmt(x)) == x
    assert fmt(1.0) == "1"


def test_matrix_triplet_roundtrip(tmp_path, rng):
    M = sp.random(7, 5, density=0.4, random_state=np.random.RandomState(0))
    path = tmp_path / "m.txt"
    write_matrix_triplets(path, M)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# shape 7 5")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert all(len(ln.split()) == 3 for ln in body)
    back = read_matrix_triplets(path)
    np.testing.assert_allclose(back.toarray(), M.toarray(), rtol=0, atol=0)


def test_basis_roundtrip(tmp_path, rng):
    Z = rng.standard_normal((9, 3))
    basis = ReducedBasis(
        Z=Z, t_ref=0.0, gauge="tree-cotree",
        provenance=["pod:0", "pod:1", "greedy:1:t=0.5:mode=2"],
        space="cotree",
    )
    path = tmp_path / "basis.txt"
    save_basis(path, basis)
    back = load_basis(path)
    np.testing.assert_array_equal(back.Z, Z)
    assert back.t_ref == 0.0
    assert back.gauge == "tree-cotree"
    assert back.space == "cotree"
    assert back.provenance == basis.provenance


def test_basis_roundtrip_with_interpolant(tmp_path):
    from cavityrb.online import pencil_interpolant
    from cavityrb.serialize import BASIS_VERSION

    from conftest import make_problem

    problem = make_problem(n=4, family="bump")
    Z = problem.snapshot_solve(0.0, 4)[1]
    interp = pencil_interpolant(problem, Z)
    basis = ReducedBasis(
        Z=Z, t_ref=0.0, gauge="tree-cotree", space="cotree", interpolant=interp,
        provenance=[f"pod:{j}" for j in range(4)],
    )
    path = tmp_path / "basis.txt"
    save_basis(path, basis)
    header = path.read_text().splitlines()[:12]
    assert header[0] == f"cavityrb-basis {BASIS_VERSION}" and BASIS_VERSION == 2
    assert "mesh_n 4" in header and "family sine-bump 0.29999999999999999" in header
    assert f"m {interp.m}" in header
    back = load_basis(path)
    np.testing.assert_array_equal(back.Z, Z)
    np.testing.assert_array_equal(back.interpolant.nodes, interp.nodes)
    np.testing.assert_array_equal(back.interpolant.values, interp.values)
    assert back.interpolant.tail == interp.tail
    assert back.interpolant.fingerprint == problem.fingerprint
    for t in (0.0, 0.37, 1.0):
        np.testing.assert_array_equal(back.interpolant.pencil(t), interp.pencil(t))


@pytest.mark.parametrize("edit", ["halve-m", "extra-line", "missing-line"])
def test_basis_value_count_must_match_the_header(tmp_path, edit):
    # a header whose m was halved leaves value lines past its count: read
    # as they stand, they were node values of the wrong nodes
    from cavityrb.online import pencil_interpolant

    from conftest import make_problem

    problem = make_problem(n=4, family="affine")
    Z = problem.snapshot_solve(0.0, 3)[1]
    interp = pencil_interpolant(problem, Z)
    path = tmp_path / "basis.txt"
    save_basis(path, ReducedBasis(
        Z=Z, t_ref=0.0, gauge="tree-cotree", space="cotree", interpolant=interp,
    ))
    lines = path.read_text().splitlines()
    values = len(lines) - lines.index("column 2 unknown") - 1
    declared = values
    if edit == "halve-m":
        lines[lines.index(f"m {interp.m}")] = f"m {interp.m // 2}"
        declared -= (interp.m // 2) * 3 * 4
    elif edit == "extra-line":
        lines.append("1")
        values += 1
    else:
        lines.pop()
        values -= 1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as exc:
        load_basis(path)
    assert str(exc.value) == (
        f"basis artifact {path} holds {values} values, its header declares {declared}"
    )


def test_csv_writer_stable(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


def test_mesh_and_partition_export(tmp_path):
    m = build_reference_mesh(2)
    write_mesh(tmp_path / "mesh.txt", m)
    text = (tmp_path / "mesh.txt").read_text()
    assert text.startswith("vertices 9")
    assert "triangles 8" in text
    tc = build_tree_cotree(m)
    write_tree_cotree(tmp_path / "tc.txt", tc)
    lines = (tmp_path / "tc.txt").read_text().splitlines()
    assert lines[0].startswith("tree ")
    assert lines[1].startswith("cotree ")
    assert len(lines[1].split()) == 1 + 7
