import io
import json
import math
import os
import pathlib

import pytest

from tangent_plane_llg import generate_structured_cube, save_mesh
from tangent_plane_llg.cli import (_apply_overrides, _point_config, _sweep_points,
                                   main, print_config_schema, run_checks)
from tangent_plane_llg.scheme import SimulationConfig

from conftest import UNIT_BOUNDS

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
                 "--precond", "jacobi", "--tn", "t3-", "--frame", "signflip",
                 "--alpha-p", "2.0", "--restart", "100", "--tol", "1e-12",
                 "--maxit", "5000", "--precond-rebuild-every", "2",
                 "--no-projection"])
    assert code == 0
    header, rows = read_summary(out)
    assert rows[0]["precond"] == "jacobi"
    assert float(rows[0]["alpha_p"]) == 2.0


def test_vtk_snapshot_output(tmp_path):
    doc = academic_sweep_doc(n_levels=(2,), preconds=("stationary",))
    doc["output"] = {"snapshot_every": 1, "residual_csv": True}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
    vtks = sorted(p for p in os.listdir(out) if p.endswith(".vtk"))
    assert len(vtks) == 2  # one per step
    text = (out / vtks[0]).read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "ASCII" in text[2]
    assert any(l.startswith("POINT_DATA 27") for l in text)
    assert any(l.startswith("VECTORS m double") for l in text)
    residuals = [p for p in os.listdir(out) if "residuals" in p]
    assert len(residuals) == 2


def test_check_subcommand_passes(capsys):
    assert run_checks() == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
               if line.startswith("{")]
    assert reports and all(r["pass"] for r in reports)
    assert {"check", "max_error", "threshold", "pass"} <= set(reports[0])


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
    # a box whose element volume overflows is named as such
    ("mesh.bounds", [[0, 1e200]] * 3, 2, "element volume overflows"),
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
    if code == 2:
        # one line, before any output is written
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        # the point keeps its outputs (partial ones if it failed)
        assert (out / "summary.csv").exists()
        assert any(p.startswith("steps_") for p in os.listdir(out))


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
