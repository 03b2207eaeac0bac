import csv
import json
import warnings

import numpy as np
import pytest

from cavityrb import bench, build_reference_mesh
from cavityrb.cli import main
from cavityrb.serialize import BENCH_HEADER

from conftest import RUN_CONFIG_REJECTS

BASE = """
schema = 1
mesh_n = 4
family = affine-stretch
gauge = tree-cotree
K = 3
tau = 1
N_init = 6
N_pod = 4
N_train = 8
N_test = 10
tol = 1e-6
N_max = 20
track_h = 0.25
track_system = reduced
repetitions = 3
seed = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE)
    return str(path)


def test_check_command(cfg_path, capsys):
    assert main(["check", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_check_export(cfg_path, tmp_path, capsys):
    exp = tmp_path / "exported"
    assert main(["check", "--config", cfg_path, "--export", str(exp)]) == 0
    for name in ("mesh.txt", "A.txt", "B.txt", "C.txt", "G.txt", "tree_cotree.txt"):
        assert (exp / name).exists()


def test_solve_command(cfg_path, tmp_path, capsys):
    out = tmp_path / "sol"
    assert main(["solve", "--config", cfg_path, "--t", "0.5", "--out", str(out)]) == 0
    text = (out / "spectrum.csv").read_text().splitlines()
    assert text[0] == "mode,t,lambda,freq"
    assert len(text) == 4


@pytest.mark.parametrize(
    "args, needle",
    [
        (["solve", "--k", "0"], "--k"),
        (["solve", "--k", "-2", "--gauge", "none"], "--k"),
        (["solve", "--k", "-2"], "--k"),
        (["solve", "--k", "100000"], "--k"),
        (["solve", "--t", "nan"], "--t"),
        (["solve", "--t", "7"], "--t"),
        (["check", "--export", "EXPORT", "--t", "nan"], "--t"),
        (["check", "--export", "EXPORT", "--t", "7"], "--t"),
    ],
    ids=[
        "solve-k-zero", "solve-k-negative-ungauged", "solve-k-negative-cotree",
        "solve-k-above-physical",
        "solve-t-nan", "solve-t-outside", "export-t-nan", "export-t-outside",
    ],
)
def test_bad_k_or_t_exits_2(cfg_path, tmp_path, capsys, args, needle):
    args = [str(tmp_path / "exp") if a == "EXPORT" else a for a in args]
    assert main(args + ["--config", cfg_path]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and needle in err[0], err
    assert "lambda" not in captured.out
    assert not (tmp_path / "exp").exists()


def test_missing_config_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schema = 1\nmesh_n = 0\n")
    assert main(["check", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "name, content",
    [
        ("run.json", "{not json"),
        ("run.json", '{"schema": 1}'),
        ("run.json", '{"config": {"schema": 1, "mesh_n": "abc"}}'),
        ("run.cfg", None),  # a directory
    ],
    ids=["invalid-json", "no-config-key", "mistyped-value", "directory"],
)
def test_malformed_config_input_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err


@pytest.mark.parametrize("command", ["bench", "pipeline"])
def test_too_few_repetitions_exits_2(tmp_path, capsys, command):
    path = tmp_path / "short.cfg"
    path.write_text(BASE.replace("repetitions = 3", "repetitions = 2"))
    args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: repetitions must be at least 3"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", RUN_CONFIG_REJECTS)
def test_rejected_config_value_exits_2(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"schema = 1\n{key} = {value}\n")
    args = ["build-rb", "--config", str(path), "--out", str(tmp_path / "rb")]
    assert main(args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {key} "), err
    assert not (tmp_path / "rb").exists()


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("schema = 1\nmesh_nn = 4\n")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unknown configuration key 'mesh_nn'" in err[0]


def test_build_rb_and_track_roundtrip(cfg_path, tmp_path, quiet_warnings):
    rb_dir = tmp_path / "rb"
    assert main(["build-rb", "--config", cfg_path, "--out", str(rb_dir)]) == 0
    assert (rb_dir / "basis.txt").exists()
    log = (rb_dir / "greedy_log.csv").read_text().splitlines()
    assert log[0] == "iteration,t_star,mode_star,max_eta,basis_size"

    tr_dir = tmp_path / "tr"
    assert (
        main(
            [
                "track", "--config", cfg_path, "--out", str(tr_dir),
                "--basis", str(rb_dir / "basis.txt"),
            ]
        )
        == 0
    )
    trace = (tr_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,t,tracked_index,mode_label,lambda,freq,rho,perm_index,flags"
    assert len(trace) == 1 + 5 * 3  # 5 steps, K=3
    labels = (tr_dir / "classification.csv").read_text().splitlines()
    assert labels[0] == "tracked_index,label,lambda_end"
    assert len(labels) == 1 + 3


def test_initial_size_above_snapshot_rank_degrades(tmp_path):
    path = tmp_path / "rank.cfg"
    path.write_text(
        BASE.replace("N_init = 6", "N_init = 20")
        .replace("N_pod = 4", "N_pod = 2")
        .replace("N_train = 8", "N_train = 4")
    )
    out = tmp_path / "rank-out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["build-rb", "--config", str(path), "--out", str(out)]) == 0
    rank = [str(w.message) for w in caught if "POD modes" in str(w.message)]
    assert len(rank) == 1 and "supports only 4 POD modes" in rank[0], rank
    assert (out / "basis.txt").exists()


def test_gauge_override(cfg_path, tmp_path, capsys, quiet_warnings):
    rb_dir = tmp_path / "rb2"
    assert (
        main(
            [
                "build-rb", "--config", cfg_path, "--out", str(rb_dir),
                "--gauge", "gram-schmidt",
            ]
        )
        == 0
    )
    text = (rb_dir / "basis.txt").read_text()
    assert "gauge gram-schmidt" in text
    assert "space edge" in text
    # an override is checked like the config it replaces
    bad = ["build-rb", "--config", cfg_path, "--out", str(tmp_path / "rb3")]
    assert main(bad + ["--gauge", "magic"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: gauge "), err
    assert not (tmp_path / "rb3").exists()


def test_pipeline_and_determinism(cfg_path, tmp_path, quiet_warnings):
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    for out in (out1, out2):
        assert (
            main(["pipeline", "--config", cfg_path, "--out", str(out), "--no-bench"])
            == 0
        )
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert [s["status"] for s in manifest["stages"]] == ["ok"] * len(manifest["stages"])
    for name in (
        "manifest.json", "basis.txt", "greedy_log.csv", "trace.csv",
        "classification.csv", "error_study.csv", "tree_cotree.txt",
    ):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_writes_bench_csv(cfg_path, tmp_path, monkeypatch, quiet_warnings):
    # the timing run itself is criterion 10's; here only the files matter
    row = dict.fromkeys(BENCH_HEADER, 1.0)
    monkeypatch.setattr(
        bench, "run_bench", lambda cfg, prebuilt: {"rows": [row], "protocol": {}}
    )
    out = tmp_path / "pb"
    assert main(["pipeline", "--config", cfg_path, "--out", str(out)]) == 0
    assert json.loads((out / "bench.json").read_text())["rows"] == [row]
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0].split(",") == list(row) and len(lines) == 2


def test_pipeline_rerun_from_manifest(cfg_path, tmp_path, quiet_warnings):
    out1 = tmp_path / "m1"
    assert main(["pipeline", "--config", cfg_path, "--out", str(out1), "--no-bench"]) == 0
    out2 = tmp_path / "m2"
    assert (
        main(
            [
                "pipeline", "--config", str(out1 / "manifest.json"),
                "--out", str(out2), "--no-bench",
            ]
        )
        == 0
    )
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_pipeline_records_stage_warnings(tmp_path, capsys):
    path = tmp_path / "small.cfg"
    path.write_text(BASE.replace("N_init = 6", "N_init = 4"))
    out = tmp_path / "small-out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pipeline", "--config", str(path), "--out", str(out), "--no-bench"]) == 0
    assert not [str(w.message) for w in caught if "N_init" in str(w.message)]
    manifest = json.loads((out / "manifest.json").read_text())
    small = [w for w in manifest["warnings"] if "N_init=4 is below" in w]
    assert len(small) == 1 and small[0].startswith("greedy: "), manifest["warnings"]
    assert capsys.readouterr().out.count("N_init=4 is below") == 1


def test_pipeline_warns_without_gauge(tmp_path, quiet_warnings):
    path = tmp_path / "none.cfg"
    path.write_text(BASE.replace("gauge = tree-cotree", "gauge = none"))
    out = tmp_path / "none-out"
    code = main(["pipeline", "--config", str(path), "--out", str(out), "--no-bench"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("spurious" in w for w in manifest["warnings"])
    assert code in (0, 3)  # contaminated runs may abort a later stage


def test_track_high_fidelity_system(tmp_path, quiet_warnings):
    path = tmp_path / "hf.cfg"
    path.write_text(BASE.replace("track_system = reduced", "track_system = high-fidelity"))
    out = tmp_path / "hf-out"
    assert main(["track", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 3


def test_track_csv_rows_match_their_header(cfg_path, tmp_path, capsys, quiet_warnings):
    # endpoint labels such as "(1,0)" contain a comma
    out = tmp_path / "tr"
    assert main(["track", "--config", cfg_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    tables = {}
    for name in ("trace.csv", "classification.csv"):
        with open(out / name, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(len(row) == len(header) for row in rows), name
        tables[name] = [dict(zip(header, row)) for row in rows]
    labels = [row["label"] for row in tables["classification.csv"]]
    assert any("," in label for label in labels)
    assert f"endpoint labels: {', '.join(labels)}" in printed
    for row in tables["trace.csv"]:
        assert row["mode_label"] == labels[int(row["tracked_index"])]


def test_error_study_csv(cfg_path, tmp_path, quiet_warnings):
    out = tmp_path / "study"
    assert main(["error-study", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "error_study.csv").read_text().splitlines()
    assert lines[0] == "basis_size,mode,avg_signed_error,max_abs_error,null_leak"
    assert len(lines) > 3



def _basis_text(mesh_n, space):
    from cavityrb.pod import ReducedBasis
    from cavityrb.serialize import save_basis

    m = build_reference_mesh(mesh_n)
    rows = m.n_curl - m.n_grad if space == "cotree" else m.n_curl
    Z = np.random.default_rng(0).standard_normal((rows, 2))

    def write(path):
        save_basis(path, ReducedBasis(Z=Z, t_ref=0.0, gauge="tree-cotree", space=space))

    return write


def _basis_with_value(value):
    write_valid = _basis_text(4, "cotree")

    def write(path):
        write_valid(path)
        lines = path.read_text().splitlines()
        lines[-1] = value
        path.write_text("\n".join(lines) + "\n")

    return write


@pytest.mark.parametrize(
    "write, needle",
    [
        # a cotree basis of the mesh_n=6 problem on the mesh_n=4 config
        (_basis_text(6, "cotree"), "rows"),
        (_basis_text(4, "vertex"), "'vertex'"),
        (lambda path: path.write_text(""), "malformed basis artifact"),
        (lambda path: path.write_text("cavityrb-basis x\n"), "malformed basis artifact"),
        (_basis_with_value("nan"), "non-finite"),
        (_basis_with_value("inf"), "non-finite"),
        # one value line past the declared count
        (_basis_with_value("0\n1"), "its header declares"),
        # whole lines: the loader's own errors pass through unwrapped
        (
            lambda path: path.write_text("some-other-format 2\n"),
            "configuration error: not a basis artifact: {path}",
        ),
        (
            _basis_with_value("nan"),
            "configuration error: basis artifact {path} holds non-finite values",
        ),
    ],
    ids=[
        "other-mesh", "unknown-space", "empty-file", "bad-header", "nan-value",
        "inf-value", "extra-value", "wrong-magic-exact", "nan-value-exact",
    ],
)
def test_track_bad_basis_exits_2(cfg_path, tmp_path, capsys, write, needle):
    basis = tmp_path / "basis.txt"
    write(basis)
    args = ["track", "--config", cfg_path, "--out", str(tmp_path / "tr")]
    assert main(args + ["--basis", str(basis)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    needle = needle.format(path=basis)
    if needle.startswith("configuration error: "):
        assert err == [needle]
    else:
        assert len(err) == 1 and needle in err[0], err


@pytest.fixture
def built_basis(cfg_path, tmp_path, capsys, quiet_warnings):
    """basis.txt of a build-rb run on the base config."""
    rb_dir = tmp_path / "rb"
    assert main(["build-rb", "--config", cfg_path, "--out", str(rb_dir)]) == 0
    assert "pencil interpolant m=" in capsys.readouterr().out
    return rb_dir / "basis.txt"


@pytest.mark.parametrize(
    "change, needle",
    [
        ("stretch_a1 = 3.0", "parameter 2.5 (problem: 3.0)"),
        ("family = sine-bump", "family affine-stretch (problem: sine-bump)"),
        ("gauge = gram-schmidt", "gauge tree-cotree (problem: gram-schmidt)"),
    ],
    ids=["stretch", "family", "gauge"],
)
def test_track_basis_fingerprint_mismatch_exits_2(
    built_basis, tmp_path, capsys, change, needle
):
    # a stored pencil belongs to one problem: tracking it on another would
    # silently use the wrong pencil
    key = change.split()[0]
    lines = [ln for ln in BASE.splitlines() if not ln.startswith(key + " ")]
    other = tmp_path / "other.cfg"
    other.write_text("\n".join(lines + [change]) + "\n")
    args = ["track", "--config", str(other), "--out", str(tmp_path / "tr")]
    assert main(args + ["--basis", str(built_basis)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "fingerprint" in err[0] and needle in err[0], err


def _version_1(path, out, replace=None):
    """Write the version-2 basis file ``path`` as a version-1 file ``out``
    (the first five header keys, no interpolant), with the header line of
    the key of ``replace`` swapped for it."""
    lines = path.read_text().splitlines()
    header = dict(ln.split(maxsplit=1) for ln in lines[1:11])
    n, N, m = int(header["n"]), int(header["N"]), int(header["m"])
    v1 = ["cavityrb-basis 1"] + lines[1:6] + lines[11 : 11 + N + n * N]
    assert len(lines) == 11 + N + n * N + (m + 1) * N * (N + 1)
    if replace is not None:
        v1 = [replace if ln.split()[0] == replace.split()[0] else ln for ln in v1]
    out.write_text("\n".join(v1) + "\n")
    return out


def test_track_version_1_basis_rebuilds_interpolant(cfg_path, built_basis, tmp_path):
    # a version-1 file has no fingerprint and no interpolant; tracking
    # rebuilds the interpolant from the problem, to the same trace
    old = _version_1(built_basis, tmp_path / "basis_v1.txt")
    traces = []
    for path in (built_basis, old):
        out = tmp_path / path.stem
        args = ["track", "--config", cfg_path, "--out", str(out), "--basis", str(path)]
        assert main(args) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize(
    "replace, needle",
    [
        ("gauge magic", "gauge magic (problem: tree-cotree)"),
        ("t_ref 0.5", "t_ref 0.5 (problem: 0.0)"),
    ],
    ids=["gauge", "t_ref"],
)
def test_track_version_1_basis_of_another_problem_exits_2(
    cfg_path, built_basis, tmp_path, capsys, replace, needle
):
    # a version-1 file carries no fingerprint, but its gauge, space, t_ref
    # and row count must still fit the problem
    old = _version_1(built_basis, tmp_path / "basis_v1.txt", replace)
    args = ["track", "--config", cfg_path, "--out", str(tmp_path / "tr")]
    assert main(args + ["--basis", str(old)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "fingerprint" in err[0] and needle in err[0], err


def test_track_version_1_gram_schmidt_basis_on_tree_cotree_exits_2(
    cfg_path, tmp_path, capsys, quiet_warnings
):
    # a gram-schmidt basis lives in the edge space: a tree-cotree problem
    # would read its columns as cotree coordinates
    rb_dir = tmp_path / "rb"
    args = ["build-rb", "--config", cfg_path, "--out", str(rb_dir)]
    assert main(args + ["--gauge", "gram-schmidt"]) == 0
    old = _version_1(rb_dir / "basis.txt", tmp_path / "basis_v1.txt")
    capsys.readouterr()
    args = ["track", "--config", cfg_path, "--out", str(tmp_path / "tr")]
    assert main(args + ["--basis", str(old)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    for needle in ("gauge gram-schmidt (problem: tree-cotree)", "space edge (problem: cotree)"):
        assert needle in err[0], err


def test_nmax_below_initial_size_exits_2(tmp_path, capsys):
    path = tmp_path / "small.cfg"
    path.write_text(
        BASE.replace("K = 3", "K = 2").replace("N_init = 6", "N_init = 0")
        .replace("N_max = 20", "N_max = 1")
    )
    args = ["build-rb", "--config", str(path), "--out", str(tmp_path / "rb")]
    assert main(args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: N_max is below the initial basis size 5"]
    assert not (tmp_path / "rb").exists()


def test_bench_command_writes_csv_and_prints_table(
    cfg_path, tmp_path, capsys, quiet_warnings
):
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg_path, "--out", str(out)]) == 0
    labels = ["high-fidelity", "high-fidelity-cotree", "rb-tree-cotree", "rb-gram-schmidt"]
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == BENCH_HEADER
    assert [r[0] for r in rows[1:]] == labels
    assert json.loads((out / "bench.json").read_text())["protocol"]["repetitions"] == 3
    table = capsys.readouterr().out.splitlines()
    assert table[0].split()[:2] == ["variant", "dofs"]
    assert [ln.split()[0] for ln in table[1:]] == labels


def test_pipeline_manifest_records_interpolant(cfg_path, tmp_path, quiet_warnings):
    out = tmp_path / "p"
    args = ["pipeline", "--config", cfg_path, "--out", str(out), "--no-bench"]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["interpolant"]["m"] in (8, 16, 32, 64, 128)
    assert 0.0 < manifest["interpolant"]["coefficient_tail"] <= 1e-13


def test_pipeline_manifest_records_derivative_counts(tmp_path, quiet_warnings):
    # high-fidelity tracking runs the complement solve at every step, and
    # the degenerate pairs at t = 0 fall back to zero order; the counts
    # repeat exactly
    path = tmp_path / "hf.cfg"
    path.write_text(BASE.replace("track_system = reduced", "track_system = high-fidelity"))
    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pipeline", "--config", str(path), "--out", str(out), "--no-bench"]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    stage = next(s for s in json.loads(manifests[0])["stages"] if s["name"] == "track")
    counts = stage["derivatives"]
    assert 0 < counts["iterations_max"] <= counts["iterations_total"]
    assert counts["fallback_steps"] >= 1
