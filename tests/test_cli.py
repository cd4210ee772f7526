import errno
import gc
import io
import itertools
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import weakref

import numpy as np
import pytest

import tangent_plane_llg.cli as cli
import tangent_plane_llg.precond as precond_mod
import tangent_plane_llg.scheme as scheme_mod
from tangent_plane_llg import generate_structured_cube, save_mesh
from tangent_plane_llg.cli import (_apply_overrides, _point_config, _sweep_points,
                                   main, print_config_schema)
from tangent_plane_llg.mesh import MeshError
from tangent_plane_llg.scheme import TN_MODES, SimulationConfig
from tangent_plane_llg.tangent import reduced_pattern

from conftest import UNIT_BOUNDS, step_states

REPO = pathlib.Path(__file__).resolve().parent.parent
BUNDLED_CONFIGS = sorted(REPO.glob("configs/*.json")) + sorted(REPO.glob("bench/configs/*.json"))


def academic_sweep_doc(n_levels=(2, 3), preconds=("stationary", "none")):
    return {
        "scheme": "tps1", "alpha": 0.5, "ell_ex2": 10.0, "T": 0.02, "k": 0.01,
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [2, 2, 2]},
        "field": {"pi": {"kind": "zero"}, "applied": {"kind": "academic"},
                  "m0": {"kind": "constant", "value": [1, 0, 0]}},
        "precond": {"kind": "stationary", "alpha_p": 1.0},
        "frame": {"tn": "t3-"},
        "sweep": {
            "mesh": [{"kind": "cube", "bounds": UNIT_BOUNDS, "n": [n, n, n]}
                     for n in n_levels],
            "precond": list(preconds),
        },
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_summary(out_dir):
    lines = (out_dir / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_schema_lists_all_preconditioners_and_round_trips(capsys):
    buf = io.StringIO()
    print_config_schema(buf)
    doc = json.loads(buf.getvalue())
    for kind in ("theoretical", "stationary", "practical", "jacobi", "none"):
        assert kind in doc["enums"]["precond.kind"]
    assert doc["defaults"]["solver"]["tol"] == 1e-14
    assert doc["defaults"]["solver"]["restart"] == 200
    assert doc["defaults"]["precond"]["alpha_p"] == 1.0
    assert doc["defaults"]["frame"]["tn"] == "adaptive"
    assert doc["defaults"]["frame"]["strategy"] == "householder"
    cfg = SimulationConfig.from_dict(doc["defaults"])
    assert cfg.scheme == "tps1"


def test_schema_subcommand_exit_code():
    assert main(["schema"]) == 0


def test_run_sweep_summary_rows(tmp_path):
    doc = academic_sweep_doc(n_levels=(2, 3), preconds=("stationary", "jacobi", "none"))
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out)]) == 0
    header, rows = read_summary(out)
    assert header == ["h", "k", "precond", "alpha", "alpha_p", "tn_mode",
                      "avg_iterations", "max_iterations", "steps", "wall_time_s"]
    assert len(rows) == 6  # 2 mesh levels x 3 preconditioners
    assert {r["precond"] for r in rows} == {"stationary", "jacobi", "none"}
    # per-step CSVs exist for every sweep point
    step_files = sorted(p for p in os.listdir(out) if p.startswith("steps_")
                        and p.endswith(".csv") and "residual" not in p)
    assert len(step_files) == 6


def test_empty_sweep_axis_is_config_error(tmp_path):
    doc = academic_sweep_doc()
    doc["sweep"]["precond"] = []
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2


def test_unparseable_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_key_is_config_error(tmp_path):
    doc = academic_sweep_doc()
    doc["schem"] = "typo"
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2


def test_solver_failure_exit_code_and_partial_outputs(tmp_path):
    doc = academic_sweep_doc(n_levels=(2,), preconds=("none",))
    doc["solver"] = {"tol": 1e-14, "restart": 5, "maxit": 2}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 3
    assert (out / "summary.csv").exists()


def test_determinism_byte_identical(tmp_path):
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary", "practical"))
    cfg_path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg_path, "--out", str(out1)]) == 0
    assert main(["run", cfg_path, "--out", str(out2)]) == 0
    names = sorted(p for p in os.listdir(out1) if p.startswith("steps_"))
    assert names == sorted(p for p in os.listdir(out2) if p.startswith("steps_"))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # summary identical apart from the wall-time column
    def strip_wall(path):
        lines = path.read_text().strip().splitlines()
        return [",".join(l.split(",")[:-1]) for l in lines]
    assert strip_wall(out1 / "summary.csv") == strip_wall(out2 / "summary.csv")


def test_cli_overrides(tmp_path):
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary",))
    del doc["sweep"]
    out = tmp_path / "out"
    code = main(["run", write_config(tmp_path, doc), "--out", str(out),
                 "--precond", "jacobi", "--tn", "t3-",
                 "--alpha-p", "2.0", "--restart", "100", "--tol", "1e-12",
                 "--maxit", "5000", "--precond-rebuild-every", "2",
                 "--no-projection"])
    assert code == 0
    header, rows = read_summary(out)
    assert rows[0]["precond"] == "jacobi"
    assert float(rows[0]["alpha_p"]) == 2.0


def rows_at(lines, start, count):
    """count lines from start, as rows of numbers."""
    return np.array([[float(v) for v in line.split()] for line in lines[start:start + count]])


def test_vtk_snapshot_output(tmp_path):
    """Two steps on the 27-node cube, each leaving a VTK snapshot and a
    residual CSV: the snapshot holds the mesh and the field of the run, and
    the CSV the residual history of the step's solve."""
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary",))
    doc["output"] = {"snapshot_every": 1, "residual_csv": True}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
    # the same point, stepped again in process, without output
    config = SimulationConfig.from_dict(doc)
    mesh = config.build_mesh()
    base = "steps_000_stationary_ap1_t3m"
    for step, state in enumerate(step_states(config)[1:]):
        lines = (out / f"{base}_m_{step + 1:06d}.vtk").read_text().splitlines()
        assert lines[:4] == ["# vtk DataFile Version 3.0", "magnetization snapshot",
                             "ASCII", "DATASET UNSTRUCTURED_GRID"]
        at = {line.split()[0]: i for i, line in enumerate(lines) if line[:1].isalpha()}
        assert lines[at["POINTS"]] == f"POINTS {mesh.N} double"
        assert lines[at["CELLS"]] == f"CELLS {mesh.elem_count} {5 * mesh.elem_count}"
        assert lines[at["CELL_TYPES"]] == f"CELL_TYPES {mesh.elem_count}"
        assert lines[at["POINT_DATA"]:at["POINT_DATA"] + 2] == [f"POINT_DATA {mesh.N}",
                                                                 "VECTORS m double"]
        assert len(lines) == at["POINT_DATA"] + 2 + mesh.N
        assert np.array_equal(rows_at(lines, at["POINTS"] + 1, mesh.N), mesh.nodes)
        assert np.array_equal(rows_at(lines, at["CELLS"] + 1, mesh.elem_count),
                              np.column_stack([np.full(mesh.elem_count, 4), mesh.tets]))
        assert np.array_equal(rows_at(lines, at["POINT_DATA"] + 2, mesh.N), state.m_n)

        rows = (out / f"{base}_residuals_step{step:06d}.csv").read_text().splitlines()
        history = state.last_stats.residual_history
        assert rows[0] == "iteration,residual" and len(rows) == len(history) + 1
        for i, (row, residual) in enumerate(zip(rows[1:], history)):
            assert row.split(",") == [str(i), repr(float(residual))]
    assert sorted(p for p in os.listdir(out) if p.endswith(".vtk")) == [
        f"{base}_m_000001.vtk", f"{base}_m_000002.vtk"]


def test_check_subcommand_is_rejected(capsys):
    """The diagnostics live with the tests (tests/oracles.py): `check` is an
    invalid choice, which argparse reports as a usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'check'" in err
    assert "Traceback" not in err


def test_help_lists_run_and_schema(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{run,schema}" in capsys.readouterr().out


def test_missing_mesh_file_is_config_error(tmp_path):
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary",))
    del doc["sweep"]
    doc["mesh"] = {"kind": "file", "path": str(tmp_path / "nope.json")}
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2


def test_bad_m0_kind_is_config_error(tmp_path):
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary",))
    del doc["sweep"]
    doc["field"]["m0"] = {"kind": "vortex"}
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2


# One row per malformed input: the dotted key set on configs/academic_lite.json
# (sweep removed, T = k), its value, the exit code and a fragment of the message.
EXIT_CODE_ROWS = [
    ("field.pi.kind", "demag", 2, "field.pi.kind"),
    ("field.applied.kind", "bogus", 2, "field.applied.kind"),
    ("solver.restrat", 5, 2, "solver.restrat"),
    ("precond.alpah_p", 1.0, 2, "precond.alpah_p"),
    ("solver.tol", -1, 2, "solver.tol"),
    ("solver.restart", 0, 2, "solver.restart"),
    ("k", "0.01", 2, "k must be a finite number"),
    ("field.pi", {"kind": "uniaxial", "strength": 0.5}, 2, "field.pi.axis"),
    ("output.snapshot_every", "x", 2, "output.snapshot_every"),
    ("field.applied", {"kind": "constant", "value": [math.inf, 0, 0]}, 2,
     "field.applied.value"),
    # finite input whose right-hand side overflows: GMRES fails in step 0
    ("field.applied", {"kind": "constant", "value": [1e308, 1e308, 0]}, 3, "step 0"),
    # cube boxes the mesh generator rejects, caught before any mesh is built
    ("mesh.n", [4, 0, 4], 2, "mesh.n must be three integers >= 1"),
    ("mesh.bounds", [[0, 1], [0, 1], [1, 0]], 2, "mesh.bounds"),
    # the Arnoldi step always orthogonalizes twice; the old switch is unknown
    ("solver.reorthogonalize", True, 2, "solver.reorthogonalize"),
    # mesh files (MESH_FILES, paths under the test's directory) that cannot
    # be read, do not parse or fail the mesh checks: caught before any output
    ("mesh", {"kind": "file", "path": "no/such/mesh.json"}, 2, "mesh.path"),
    ("mesh", {"kind": "file", "path": "unparsable.json"}, 2, "mesh JSON parse error"),
    ("mesh", {"kind": "file", "path": "nonconforming.json"}, 2,
     "shared by more than two elements"),
    ("mesh", {"kind": "file", "path": "object_nodes.json"}, 2, "float() argument"),
    # a restart longer than the system is valid: a cycle stops at 2N vectors
    ("solver.restart", 10**9, 0, ""),
    # finite m0 whose norm would overflow or underflow is normalized after
    # scaling; a spiral whose phase overflows is a config error
    ("field.m0", {"kind": "constant", "value": [1e308, 1e308, 0]}, 0, ""),
    ("field.m0", {"kind": "constant", "value": [1e-200, 1e-200, 0]}, 0, ""),
    ("field.m0", {"kind": "spiral", "turns": 1e308}, 2, "field.m0.turns"),
    # a finite 2 pi turns whose phase stays finite on the unit cube but
    # overflows on a long box; a tuple of keys sets each of its values
    ("field.m0", {"kind": "spiral", "turns": 1e305}, 0, ""),
    (("mesh", "field.m0"), ({"kind": "cube", "bounds": [[0, 1e4], [0, 1], [0, 1]],
                             "n": [2, 2, 2]}, {"kind": "spiral", "turns": 1e305}),
     2, "field.m0.turns"),
    # restarts that no longer lower the residual (2.048e-14 against tol =
    # 1e-14) end the solve as stagnated instead of running to maxit
    (("k", "T", "mesh.n", "precond.kind"), (0.1, 0.1, [8, 8, 8], "jacobi"), 3, "stagnated"),
    # a cube box whose elements fail the mesh's degeneracy check, volume at
    # most 1e-14 max(|bound|, 1)^3, is a config error before any output
    ("mesh.bounds", [[0, 1e10], [0, 1], [0, 1]], 2, "degenerate"),
    # a spiral whose phase overflows on a mesh file (the long box of
    # MESH_FILES): checked once the file is read, before any output
    (("mesh", "field.m0"), ({"kind": "file", "path": "long_box.json"},
                            {"kind": "spiral", "turns": 1e305}), 2, "field.m0.turns"),
    # a field 2e-9 to 1e-7 off -e3 under a fixed tn, above the pole guard,
    # keeps the Householder columns tangent over three steps
    *[(("T", "field.m0", "frame.tn"),
       (0.03, {"kind": "constant", "value": [delta, 0, -1]}, "t3-"), 0, "")
      for delta in (1.5e-8, 2e-8, 5e-8, 1e-7, 2e-9, 5e-9, 9e-9)],
    # a box whose element volume overflows is named as such, and so is a
    # mesh file whose element volume overflows (MESH_FILES)
    ("mesh.bounds", [[0, 1e200]] * 3, 2, "element volume overflows"),
    ("mesh", {"kind": "file", "path": "overflowing_volume.json"}, 2,
     "element 0 volume overflows"),
    # a node index that is not an integer, and a node in no element (the
    # step matrices would be singular there), are mesh errors (MESH_FILES)
    ("mesh", {"kind": "file", "path": "real_index.json"}, 2,
     "node index 3.5 at tets[0, 3] is not an int64 integer"),
    ("mesh", {"kind": "file", "path": "unused_node.json"}, 2, "node 4 belongs to no element"),
    # a uniaxial axis whose norm would overflow is measured after scaling
    ("field.pi", {"kind": "uniaxial", "axis": [1e300, 1e300, 0], "strength": 0.5}, 2,
     "anisotropy axis must be unit length"),
    # alpha in (0, 1] so small that the tps2 weights W_k / alpha overflow
    (("scheme", "alpha"), ("tps2", 1e-320), 3, "step 0: non-finite W_k weights"),
    # range rules of SimulationConfig.validate, each stated there once
    # (test_scheme.py::TestCoefficients::test_validation has the others)
    (("scheme", "k", "T"), ("tps2", 1.0, 1.0), 2,
     "second-order variant needs k in (0, 1): |log k| degenerates"),
    ("precond.alpha_p", 0.0, 2, "precond.alpha_p must be positive"),
    ("precond.rebuild_every", 0, 2, "precond.rebuild_every must be >= 1"),
    # a negative snapshot interval would write no snapshots
    ("output.snapshot_every", -3, 2, "output.snapshot_every must be >= 0, got -3"),
    # mesh-file entries that numpy would read as numbers, or overflow on,
    # and a file nested too deep for the parser (MESH_FILES)
    ("mesh", {"kind": "file", "path": "string_index.json"}, 2,
     '"0" at tets[0, 0] is not a number'),
    ("mesh", {"kind": "file", "path": "string_coordinate.json"}, 2,
     '"0" at nodes[3, 0] is not a number'),
    ("mesh", {"kind": "file", "path": "boolean_index.json"}, 2,
     "false at tets[0, 0] is not a number"),
    ("mesh", {"kind": "file", "path": "huge_index.json"}, 2,
     f"integer {10**30} at tets[0, 3] is outside int64"),
    ("mesh", {"kind": "file", "path": "deep.json"}, 2,
     "mesh JSON parse error: maximum recursion depth exceeded"),
    # a step count T/k that overflows to inf, through a huge T or a
    # subnormal k
    (("T", "k"), (1e308, 0.01), 2, "T/k = inf is not a finite step count"),
    (("T", "k"), (0.03, 1e-320), 2, "T/k = inf is not a finite step count"),
    # the Householder reflection is the one frame
    ("frame.strategy", "signflip", 2, "frame.strategy: unknown value 'signflip'"),
    # alpha so small that W_k / alpha underflows to 0 where lambda < 0, as
    # the exchange term of a spiral makes it
    (("scheme", "alpha", "field.m0"), ("tps2", 1e-200, {"kind": "spiral"}), 3,
     "step 0: zero W_k weights"),
]

_CUBE1 = generate_structured_cube(UNIT_BOUNDS, (1, 1, 1))
MESH_FILES = {
    "unparsable.json": "not a mesh",
    # the first tet twice: its faces are shared by three elements
    "nonconforming.json": json.dumps({"nodes": _CUBE1.nodes.tolist(),
                                      "tets": _CUBE1.tets[[0, *range(6)]].tolist()}),
    "object_nodes.json": json.dumps({"nodes": {"x": 0}, "tets": []}),
    "long_box.json": save_mesh(generate_structured_cube([[0, 1e4], [0, 1], [0, 1]],
                                                        (2, 2, 2))).decode(),
    # one tet with its nodes at +-1e308 on every axis: its edges overflow
    "overflowing_volume.json": json.dumps({
        "nodes": [[-1e308, -1e308, -1e308], [1e308, -1e308, -1e308],
                  [-1e308, 1e308, -1e308], [-1e308, -1e308, 1e308]],
        "tets": [[0, 1, 2, 3]]}),
    # the unit tetrahedron, with index 3 given as 3.5, and with a fifth node
    "real_index.json": json.dumps({"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   "tets": [[0, 1, 2, 3.5]]}),
    "unused_node.json": json.dumps({"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                                              [1, 1, 1]],
                                    "tets": [[0, 1, 2, 3]]}),
    # the unit tetrahedron with a string index, a string coordinate, two
    # boolean indices and an index past int64
    "string_index.json": json.dumps({"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                     "tets": [["0", "1", "2", "3"]]}),
    "string_coordinate.json": json.dumps({"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                                    ["0", "0", "1e0"]],
                                          "tets": [[0, 1, 2, 3]]}),
    "boolean_index.json": json.dumps({"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      "tets": [[False, True, 2, 3]]}),
    "huge_index.json": json.dumps({"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   "tets": [[0, 1, 2, 10**30]]}),
    "deep.json": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize("key, value, code, fragment", EXIT_CODE_ROWS)
def test_exit_code_contract(tmp_path, capsys, key, value, code, fragment):
    doc = json.loads((REPO / "configs" / "academic_lite.json").read_text())
    del doc["sweep"]
    doc["T"] = doc["k"]
    overrides = dict(zip(key, value)) if isinstance(key, tuple) else {key: value}
    mesh = overrides.get("mesh")
    if mesh is not None and mesh["kind"] == "file":
        for name, text in MESH_FILES.items():
            (tmp_path / name).write_text(text)
        overrides["mesh"] = {**mesh, "path": str(tmp_path / mesh["path"])}
    doc = _apply_overrides(doc, overrides)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert fragment in err
    # a failure prints one line, and no warning before it
    assert err.count("\n") == (1 if code else 0)
    if code == 2:
        # before any output is written
        assert err.startswith("config error: ")
        assert not out.exists()
    else:
        # the point keeps its outputs (partial ones if it failed)
        assert (out / "summary.csv").exists()
        assert any(p.startswith("steps_") for p in os.listdir(out))


@pytest.mark.parametrize("text", [b'{"k": "\xff"}', b"[" * 100000 + b"]" * 100000,
                                  b'{"k": ' + b"1" * 5000 + b"}"],
                         ids=["invalid-utf8", "nested-too-deep", "integer-too-long"])
def test_config_file_the_parser_cannot_read_is_config_error(tmp_path, capsys, text):
    (tmp_path / "config.json").write_bytes(text)
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("path", BUNDLED_CONFIGS,
                         ids=lambda p: p.relative_to(REPO).as_posix())
def test_bundled_configs_resolve(path, monkeypatch):
    """Every shipped config passes validation, which builds no mesh."""
    def no_mesh(cfg):
        raise AssertionError("validation built a mesh")

    monkeypatch.setattr(SimulationConfig, "build_mesh", no_mesh)
    doc = json.loads(path.read_text())
    configs = [_point_config(doc, *point) for point in _sweep_points(doc)]
    assert configs and all(cfg.k == doc["k"] for cfg in configs)


def test_bad_box_in_a_later_sweep_point_exits_before_point_0(tmp_path, capsys):
    doc = json.loads((REPO / "configs" / "academic_lite.json").read_text())
    doc["T"] = doc["k"]
    flat = {"kind": "cube", "bounds": [[0, 1], [1, 1], [0, 1]], "n": [4, 4, 4]}
    doc["sweep"] = {"mesh": [doc["mesh"], flat]}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mesh.bounds") and err.count("\n") == 1
    assert not out.exists()


def test_bad_mesh_file_in_a_later_sweep_point_exits_before_point_0(tmp_path, capsys):
    doc = json.loads((REPO / "configs" / "academic_lite.json").read_text())
    doc["T"] = doc["k"]
    (tmp_path / "bad.json").write_text("not a mesh")
    doc["sweep"] = {"mesh": [{"kind": "cube", "n": [2, 2, 2]},
                             {"kind": "file", "path": str(tmp_path / "bad.json")}]}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out),
                 "--precond", "jacobi"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mesh.path") and err.count("\n") == 1
    assert "mesh JSON parse error" in err
    assert not out.exists()


def test_output_directory_below_a_file_is_config_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary",))
    out = tmp_path / "afile" / "sub"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Not a directory" in err


def _limit_address_space():
    limit = 2 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_sweep_point_out_of_memory_exits_3_and_the_next_point_runs(tmp_path):
    """The node grid of a cube of n = 1000 takes 8 GiB per coordinate: with
    the address space of the run (a child process) limited to 2 GiB its
    point fails with one line, the next point still runs, and the run
    exits 3.  The limit is set before the child starts; without it the
    child would not run."""
    doc = json.loads((REPO / "configs" / "academic_lite.json").read_text())
    doc["T"] = doc["k"]
    doc["sweep"] = {"mesh": [{"kind": "cube", "n": [1000, 1000, 1000]},
                             {"kind": "cube", "n": [2, 2, 2]}]}
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "tangent_plane_llg.cli", "run",
                           write_config(tmp_path, doc), "--out", str(out)],
                          env=env, preexec_fn=_limit_address_space, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("out of memory on sweep point 0 (stationary): ")
    assert proc.stderr.count("\n") == 1
    _, rows = read_summary(out)
    assert len(rows) == 1 and rows[0]["steps"] == "1"
    assert sorted(p for p in os.listdir(out) if p.startswith("steps_")) == [
        "steps_001_stationary_ap1_t3m.csv"]


def test_precondition_failure_at_set_up_exits_3_and_the_next_point_runs(tmp_path, monkeypatch,
                                                                         capsys):
    """A factorization that fails while point 0 sets up (before its first
    step) ends that point with one line; the jacobi point after it, which
    factors nothing, still runs."""
    def failing(matrix, mesh, what):
        raise precond_mod.PreconditionerError(f"{what} factorization failed (SPD lost?)")

    monkeypatch.setattr(precond_mod, "_factor_spd", failing)
    doc = academic_sweep_doc(n_levels=(2,), preconds=("practical", "jacobi"))
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("solver failure on sweep point 0 (practical): "
                   "scalar operator factorization failed (SPD lost?)\n")
    _, rows = read_summary(out)
    assert [row["precond"] for row in rows] == ["jacobi"]
    assert sorted(p for p in os.listdir(out) if p.startswith("steps_")) == [
        "steps_001_jacobi_ap1_t3m.csv"]


def fail_nth_write(monkeypatch, module, name, n):
    """module's open() gives the file named name a write that raises ENOSPC
    on its nth call, as a full disk would; the other writes go through."""
    def opening(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.path.basename(path) == name:
            calls, write = [], fh.write

            def failing(text):
                calls.append(text)
                if len(calls) == n:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
                return write(text)
            fh.write = failing
        return fh

    monkeypatch.setattr(module, "open", opening, raising=False)


def fail_second_call(monkeypatch, module, name, exc):
    """module.name raises exc on its second call: in sweep point 1."""
    fn, calls = getattr(module, name), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise exc
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


POINT_FAILURES = {
    # the first row of its steps_*.csv, after the header
    "steps-write": (lambda mp: fail_nth_write(mp, scheme_mod,
                                              "steps_001_practical_ap1_t3m.csv", 2),
                    "I/O error", True),
    # the mesh file, read by the pre-flight, no longer parses when point 1 reads it
    "mesh-changed": (lambda mp: fail_second_call(mp, scheme_mod, "load_mesh",
                                                 MeshError("mesh JSON parse error")),
                     "mesh error", False),
    # its row of summary.csv, after the header and point 0's row
    "summary-write": (lambda mp: fail_nth_write(mp, cli, "summary.csv", 3), "I/O error", True),
    # point 1's run, as the subprocess test above does for real
    "out-of-memory": (lambda mp: fail_second_call(mp, cli, "run_simulation",
                                                  MemoryError("no room")),
                      "out of memory", False),
}


@pytest.mark.parametrize("failure", POINT_FAILURES)
def test_a_point_that_fails_after_the_pre_flight_exits_3_and_the_next_point_runs(
        tmp_path, monkeypatch, capsys, failure):
    """Whatever ends sweep point 1 of 3 once the pre-flight has passed ends
    it the same way: one line naming it on stderr and no traceback, point
    0's outputs kept, point 2 run, exit 3."""
    inject, what, point_1_steps = POINT_FAILURES[failure]
    (tmp_path / "cube.json").write_bytes(save_mesh(generate_structured_cube(UNIT_BOUNDS,
                                                                            (2, 2, 2))))
    doc = academic_sweep_doc(preconds=("stationary", "practical", "jacobi"))
    doc["sweep"]["mesh"] = [{"kind": "file", "path": str(tmp_path / "cube.json")}]
    inject(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{what} on sweep point 1 (practical): ")
    assert err.count("\n") == 1 and "Traceback" not in err
    _, rows = read_summary(out)
    assert [row["precond"] for row in rows] == ["stationary", "jacobi"]
    steps = ["steps_000_stationary_ap1_t3m.csv", "steps_002_jacobi_ap1_t3m.csv"]
    if point_1_steps:
        steps.insert(1, "steps_001_practical_ap1_t3m.csv")
    assert sorted(p for p in os.listdir(out) if p.startswith("steps_")) == steps
    assert len((out / steps[0]).read_text().splitlines()) == 3  # header and two steps


@pytest.mark.parametrize("k, pkind, in_step", [(1e308, "stationary", False),
                                               (1e300, "jacobi", True)])
def test_floating_point_overflow_exits_3_with_one_line(tmp_path, capsys, k, pkind, in_step):
    """tps1 with k = 1e308 overflows beta_k = ell_ex2 theta k while K is
    formed at set-up; with k = 1e300 the update m + k v of step 0
    overflows.  Either ends the point with one line and no numpy warning."""
    doc = academic_sweep_doc(n_levels=(2,), preconds=(pkind,))
    doc["k"] = doc["T"] = k
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"solver failure on sweep point 0 ({pkind}): ")
    assert err.count("\n") == 1 and ("step 0: " in err) == in_step


def test_a_point_releases_its_mesh_before_the_next_point_runs(tmp_path, monkeypatch):
    """Nothing of a finished point (its mesh, the caches on it, such as the
    index structure its steps' reduced matrices shared, its result) is
    reachable once the next point has built its mesh."""
    refs, alive = [], []
    run_simulation = cli.run_simulation

    def tracking(cfg, mesh=None, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        result = run_simulation(cfg, mesh=mesh, **kwargs)
        indptr, indices, _ = reduced_pattern(mesh)  # cached on the mesh by its steps
        refs.extend(weakref.ref(obj) for obj in (mesh, indptr, indices))
        return result

    monkeypatch.setattr(cli, "run_simulation", tracking)
    doc = academic_sweep_doc(n_levels=(2, 3), preconds=("practical",))
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
    assert alive == [[], [False, False, False]]


def test_build_mesh_once_per_point(tmp_path, monkeypatch):
    built = []
    build_mesh = SimulationConfig.build_mesh

    def counting(cfg):
        built.append(cfg.mesh["n"])
        return build_mesh(cfg)

    monkeypatch.setattr(SimulationConfig, "build_mesh", counting)
    doc = academic_sweep_doc(n_levels=(2, 3), preconds=("stationary",))
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
    assert built == [(2, 2, 2), (3, 3, 3)]


def test_points_on_the_same_cube_share_one_mesh(tmp_path, monkeypatch):
    """build_mesh runs once per point; consecutive points on one cube get
    the same Mesh, another cube a new one, and a file mesh is read anew."""
    meshes = []
    build_mesh = SimulationConfig.build_mesh
    monkeypatch.setattr(SimulationConfig, "build_mesh",
                        lambda cfg: meshes.append(build_mesh(cfg)) or meshes[-1])
    doc = academic_sweep_doc(n_levels=(2, 2, 3, 3), preconds=("stationary", "jacobi"))
    doc["T"] = doc["k"]
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
    assert [mesh.N for mesh in meshes] == [27] * 4 + [64] * 4
    assert len({id(mesh) for mesh in meshes}) == 2
    path = tmp_path / "cube.json"
    path.write_bytes(save_mesh(meshes[0]))
    cfg = SimulationConfig.from_dict({"mesh": {"kind": "file", "path": str(path)}})
    assert cfg.build_mesh() is not cfg.build_mesh()


def track_factorizations(monkeypatch):
    """Weak references to the scalar factorizations built from here on, and
    for each build, which of the earlier ones were still alive as it began."""
    refs, alive = [], []
    factorization = precond_mod.ScalarFactorization

    def tracking(scalar, mesh):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        built = factorization(scalar, mesh)
        refs.append(weakref.ref(built))
        return built

    monkeypatch.setattr(precond_mod, "ScalarFactorization", tracking)
    return refs, alive


def k_sharing_doc():
    """stationary and practical at alpha_P 1 and 0.5 on cube n = 3: two
    distinct K."""
    doc = academic_sweep_doc(n_levels=(3,), preconds=("stationary", "practical"))
    doc["sweep"]["alpha_p"] = [1.0, 0.5]
    return doc


def test_points_with_equal_k_share_one_factorization(tmp_path, monkeypatch):
    """The four points of stationary and practical at two alpha_P on one
    cube factor K twice, once per alpha_P."""
    refs, _ = track_factorizations(monkeypatch)
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, k_sharing_doc()), "--out", str(out)]) == 0
    _, rows = read_summary(out)
    assert [(row["precond"], row["alpha_p"]) for row in rows] == [
        ("stationary", "1.0"), ("stationary", "0.5"), ("practical", "1.0"), ("practical", "0.5")]
    assert len(refs) == 2


def test_the_axis_modes_of_one_k_share_one_factorization(tmp_path, monkeypatch):
    refs, _ = track_factorizations(monkeypatch)
    doc = academic_sweep_doc(n_levels=(3,), preconds=("stationary",))
    doc["sweep"]["tn"] = [mode for mode in TN_MODES if mode != "adaptive"]
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert len(read_summary(out)[1]) == 6
    assert len(refs) == 1


def test_a_mesh_releases_its_factorizations_before_the_next_mesh_factors(tmp_path,
                                                                          monkeypatch):
    """Two cubes make one factorization each, and the first cube's is dead
    when the second cube's is built."""
    refs, alive = track_factorizations(monkeypatch)
    doc = academic_sweep_doc(n_levels=(2, 3), preconds=("stationary", "practical"))
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
    assert alive == [[], [False]]


def test_each_run_factors_anew(tmp_path, monkeypatch):
    refs, _ = track_factorizations(monkeypatch)
    path = write_config(tmp_path, academic_sweep_doc(n_levels=(2,),
                                                     preconds=("stationary", "practical")))
    for out in ("a", "b"):
        assert main(["run", path, "--out", str(tmp_path / out)]) == 0
    assert len(refs) == 2


@pytest.mark.parametrize("path", ["dense", "band", "superlu"])
def test_a_sharing_sweep_writes_the_steps_of_its_points_run_alone(tmp_path, monkeypatch, path):
    """Each steps_*.csv of a sweep whose points share K is byte-identical
    to that of its point run alone, on each path of the _factor_spd rule
    (forced by the caps; cube n = 3 is inverted by default)."""
    if path != "dense":
        monkeypatch.setattr(precond_mod, "DENSE_INVERSE_BYTES", 0)
    if path == "superlu":
        monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
    taken = []
    spd_inverse, dpbtrf, splu = (precond_mod._spd_inverse, precond_mod.lapack.dpbtrf,
                                 precond_mod.splu)
    monkeypatch.setattr(precond_mod, "_spd_inverse",
                        lambda a, what: taken.append("dense") or spd_inverse(a, what))
    monkeypatch.setattr(precond_mod.lapack, "dpbtrf",
                        lambda band, **options: taken.append("band") or dpbtrf(band, **options))
    monkeypatch.setattr(precond_mod, "splu",
                        lambda a, **options: taken.append("superlu") or splu(a, **options))
    config = write_config(tmp_path, k_sharing_doc())
    assert main(["run", config, "--out", str(tmp_path / "sweep")]) == 0
    assert taken == [path] * 2
    shared = sorted((tmp_path / "sweep").glob("steps_*.csv"))
    points = itertools.product(("stationary", "practical"), ("1", "0.5"))
    for idx, (pkind, alpha_p) in enumerate(points):
        out = tmp_path / f"alone{idx}"
        assert main(["run", config, "--out", str(out),
                     "--precond", pkind, "--alpha-p", alpha_p]) == 0
        (alone,) = out.glob("steps_*.csv")
        assert alone.read_bytes() == shared[idx].read_bytes()
    assert taken == [path] * 6


def test_precond_flag_pins_the_swept_axis(tmp_path):
    doc = json.loads((REPO / "configs" / "academic_lite.json").read_text())
    doc["T"] = doc["k"]
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out),
                 "--precond", "jacobi"]) == 0
    _, rows = read_summary(out)
    assert [row["precond"] for row in rows] == ["jacobi"] * len(doc["sweep"]["mesh"])


@pytest.mark.parametrize("flag, value, axis, values, column, written", [
    ("--alpha-p", "2", "alpha_p", [1.0, 0.5], "alpha_p", "2.0"),
    ("--tn", "t1+", "tn", ["t3-", "adaptive"], "tn_mode", "t1+"),
])
def test_run_flags_pin_their_sweep_axis(tmp_path, flag, value, axis, values, column,
                                        written):
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary",))
    doc["T"] = doc["k"]
    doc["sweep"][axis] = values
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out), flag, value]) == 0
    _, rows = read_summary(out)
    assert [row[column] for row in rows] == [written]
