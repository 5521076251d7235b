"""Command-line behaviour: exit codes, output files, and stdout contracts."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg
from numpy.linalg import LinAlgError

import phcbands.sim
from phcbands import cli
from phcbands.assembly import assemble_family
from phcbands.cli import run
from phcbands.io import CSV_HEADER
from phcbands.materials import Constant, Drude, LossyDrude
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh
from phcbands.sim import SimConfig
from phcbands.sparse import SingularMatrixError
from phcbands.sweep import Window, drude_polynomial_oracle, solve_at_k

X_ARG = "3.141592653589793,0"
DRUDE_SWEEP_N8 = str(Path(__file__).resolve().parents[1] / "bench" / "configs" / "drude-sweep-n8.json")


def write_config(tmp_path, name, raw):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def empty_lattice_raw(n, outputs=None, window=None):
    raw = {
        "polarization": "TE",
        "geometry": {"n": n, "r": 0.0},
        "material": {"variant": "constant", "eps_re": 1.0},
        "window": window or {"re_min": 0.45, "re_max": 0.56, "im_min": -0.05, "im_max": 0.05},
        "path": {"nk": 1},
    }
    if outputs:
        raw["outputs"] = outputs
    return raw


def drude_raw(n=4):
    return {
        "polarization": "TE",
        "geometry": {"n": n, "r": 0.3},
        "material": {"variant": "drude", "nu_p": 1.0, "nu_tau": 0.01},
        "window": {"re_min": 0.1, "re_max": 1.2, "im_min": -0.05, "im_max": 0.05},
    }


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "phcbands" in capsys.readouterr().out


def test_unknown_subcommand():
    assert run(["transmogrify"]) == 1


def test_missing_config_file(tmp_path, capsys):
    assert run(["solve", "--config", str(tmp_path / "nope.json"), "--k", "0,0"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_mesh_dump_to_file(tmp_path, capsys):
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(1))
    out = tmp_path / "mesh.txt"
    assert run(["mesh", "--config", config, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "v 0 0\nv 1 0\nv 0 1\nv 1 1\nt 0 1 3 0\nt 0 3 2 0\n"
    assert f"wrote {out}" in capsys.readouterr().out


def test_mesh_dump_to_stdout(tmp_path, capsys):
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(1))
    assert run(["mesh", "--config", config]) == 0
    assert capsys.readouterr().out == "v 0 0\nv 1 0\nv 0 1\nv 1 1\nt 0 1 3 0\nt 0 3 2 0\n"
    # the fitted n=8 mesh of the TE Drude benchmark: its vertices and triangles
    assert run(["mesh", "--config", DRUDE_SWEEP_N8]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 239


def test_solve_prints_plane_wave_band(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "cfg.json",
        empty_lattice_raw(8, window={"re_min": 0.3, "re_max": 0.7, "im_min": -0.05, "im_max": 0.05}),
    )
    assert run(["solve", "--config", config, "--k", "3.14159,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "re_nu im_nu residual"
    assert len(lines) == 3
    assert float(lines[1].split()[0]) == pytest.approx(0.5, abs=1e-3)


def test_solver_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a failure of the solver, not of the configuration, is exit 2
    def fail(*args):
        raise SingularMatrixError("no convergence")

    monkeypatch.setattr(cli, "solve_at_k", fail)
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(4))
    assert run(["solve", "--config", config, "--k", X_ARG]) == 2
    captured = capsys.readouterr()
    assert captured.err == "solver error: no convergence\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "raw, eigensolve", [(empty_lattice_raw(4), "eigh"), (drude_raw(), "eigvals")], ids=["dense", "drude"]
)
def test_oracle_eigensolve_failure_exits_2(tmp_path, capsys, monkeypatch, raw, eigensolve):
    # LinAlgError is a ValueError, but a dense eigensolve that fails to
    # converge is the solver's failure, not an inapplicable oracle: the
    # dense oracle's eigh and the Drude oracle's eigvals alike
    def fail(*args, **kwargs):
        raise LinAlgError("eigenvalue computation did not converge")

    monkeypatch.setattr(scipy.linalg, eigensolve, fail)
    config = write_config(tmp_path, "cfg.json", raw)
    assert run(["oracle", "--config", config, "--k", X_ARG]) == 2
    captured = capsys.readouterr()
    assert captured.err == "solver error: eigenvalue computation did not converge\n"
    assert captured.out == ""


def test_program_fault_propagates(tmp_path, monkeypatch):
    # an exception that is neither a configuration error nor a solver
    # failure is a fault of the program: run lets it out with its traceback
    def fault(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "solve_at_k", fault)
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(4))
    with pytest.raises(TypeError, match="unsupported operand"):
        run(["solve", "--config", config, "--k", X_ARG])


def test_solve_rejects_bad_k(tmp_path, capsys):
    # a k outside the zone is a usage error, on solve and on oracle alike;
    # NaN must not slip past the zone check into the solver
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(4))
    for command in ("solve", "oracle"):
        for k in ("1.0", "a,b", "nan,0", "4,0", "inf,0"):
            assert run([command, "--config", config, "--k", k]) == 1
            assert "configuration error: quasimomentum must be" in capsys.readouterr().err


def test_sweep_end_to_end(tmp_path):
    outputs = {
        "csv_path": str(tmp_path / "bands.csv"),
        "svg_path": str(tmp_path / "bands.svg"),
        "meta_path": str(tmp_path / "meta.json"),
    }
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(4, outputs=outputs))
    assert run(["sweep", "--config", config]) == 0

    csv_lines = (tmp_path / "bands.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 2  # only X carries a band inside [0.45, 0.56]
    row = csv_lines[1].split(",")
    assert row[0] == "1"
    assert float(row[4]) == pytest.approx(0.5, abs=1e-6)

    svg = (tmp_path / "bands.svg").read_text(encoding="utf-8")
    assert svg.count("<circle") == 1

    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    assert meta["n_kpoints"] == 4
    assert meta["n_eigenvalues"] == 1
    assert meta["seed"] == 0
    assert len(meta["config_sha256"]) == 64
    assert meta["provenance"]["geometry"] == {"n": 4, "r": 0.0}


def test_sweep_reruns_byte_identical(tmp_path):
    for tag in ("a", "b"):
        outputs = {
            "csv_path": str(tmp_path / f"{tag}.csv"),
            "svg_path": str(tmp_path / f"{tag}.svg"),
            "meta_path": str(tmp_path / f"{tag}.json"),
        }
        config = write_config(tmp_path, f"cfg_{tag}.json", empty_lattice_raw(4, outputs=outputs))
        assert run(["sweep", "--config", config]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_sweep_unwritable_output_is_configuration_error(tmp_path, capsys, monkeypatch):
    # the missing directory is reported before any solving
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep called")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    for key in ("csv_path", "svg_path", "meta_path"):
        missing = str(tmp_path / "no_such_dir" / "out")
        config = write_config(tmp_path, "cfg.json", empty_lattice_raw(2, outputs={key: missing}))
        assert run(["sweep", "--config", config]) == 1
        assert f"configuration error: output directory of {missing!r} does not exist" in capsys.readouterr().err


def test_sweep_output_path_that_is_a_directory_is_configuration_error(tmp_path, capsys, monkeypatch):
    # an existing directory is rejected before any solving, and nothing is written
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep called")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    for key in ("csv_path", "svg_path", "meta_path"):
        for path in (".", str(tmp_path)):
            config = write_config(tmp_path, "cfg.json", empty_lattice_raw(2, outputs={key: path}))
            assert run(["sweep", "--config", config]) == 1
            assert f"configuration error: 'outputs.{key}' is a directory: {path!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sweep_output_paths_naming_one_file_are_configuration_error(tmp_path, capsys, monkeypatch):
    # two outputs written to one file would leave only the last of them, and
    # an output written over the configuration file would replace it; the
    # clash is reported before any solving, whatever the spelling, and the
    # configuration is left as it was
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep called")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    for outputs, clash in (
        ({"csv_path": "out.txt", "svg_path": "out.txt"}, "'outputs.csv_path' and 'outputs.svg_path'"),
        ({"csv_path": "out.txt", "meta_path": str(tmp_path / "out.txt")}, "'outputs.csv_path' and 'outputs.meta_path'"),
        ({"svg_path": "./bands.csv"}, "'outputs.csv_path' and 'outputs.svg_path'"),
        ({"csv_path": "cfg.json"}, "the configuration file and 'outputs.csv_path'"),
        ({"svg_path": str(tmp_path / "cfg.json")}, "the configuration file and 'outputs.svg_path'"),
        ({"meta_path": "./cfg.json"}, "the configuration file and 'outputs.meta_path'"),
    ):
        config = write_config(tmp_path, "cfg.json", empty_lattice_raw(2, outputs=outputs))
        before = (tmp_path / "cfg.json").read_bytes()
        assert run(["sweep", "--config", config]) == 1
        assert f"configuration error: {clash} name the same file" in capsys.readouterr().err
        assert (tmp_path / "cfg.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_solve_prints_stalled_refinement_warnings(tmp_path, capsys, monkeypatch):
    # with a residual target of 0 no refinement converges, so every printed
    # eigenpair warns once, even 0.5, which lies on the edge two squares
    # share and is refined from both; the value prints as a Python complex
    # whatever the numpy version
    monkeypatch.setattr(phcbands.sim, "_REFINE_TOL", 0.0)
    raw = empty_lattice_raw(4, window={"re_min": 0.3, "re_max": 0.7, "im_min": -0.05, "im_max": 0.05})
    mesh = build_unit_cell_mesh(4, 0.0)
    pmap = build_periodic_dof_map(mesh)
    result = solve_at_k(mesh, pmap, (math.pi, 0.0), "TE", {0: Constant(1.0)}, Window(**raw["window"]), SimConfig())
    assert result.eigenpairs
    assert result.warnings == [
        f"refinement stalled at nu = {pair.nu!r} (residual {pair.residual:.3e})" for pair in result.eigenpairs
    ]
    for pair in result.eigenpairs:
        assert type(pair.nu) is complex

    config = write_config(tmp_path, "cfg.json", raw)
    assert run(["solve", "--config", config, "--k", X_ARG]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 + len(result.eigenpairs)
    assert captured.err.splitlines() == [f"warning: {warning}" for warning in result.warnings]


def test_sweep_metadata_warnings_name_their_k_point(tmp_path, monkeypatch):
    # with a residual target of 0 the eigenpairs at Gamma and X stall; the
    # closing Gamma repeats the first point's warning, and only the k_index
    # prefix tells the two copies apart
    monkeypatch.setattr(phcbands.sim, "_REFINE_TOL", 0.0)
    window = {"re_min": 0.9, "re_max": 1.3, "im_min": -0.05, "im_max": 0.05}
    meta_path = tmp_path / "meta.json"
    outputs = {
        "csv_path": str(tmp_path / "bands.csv"),
        "svg_path": str(tmp_path / "bands.svg"),
        "meta_path": str(meta_path),
    }
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(4, outputs=outputs, window=window))
    assert run(["sweep", "--config", config]) == 0
    warnings = json.loads(meta_path.read_text(encoding="utf-8"))["warnings"]
    assert [w.split(": ", 1)[0] for w in warnings] == ["k_index 0", "k_index 1", "k_index 3"]
    assert all(w.split(": ", 1)[1].startswith("refinement stalled at nu = ") for w in warnings)
    assert warnings[0].split(": ", 1)[1] == warnings[2].split(": ", 1)[1]


def test_mesh_unwritable_output_is_configuration_error(tmp_path, capsys):
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(1))
    missing = str(tmp_path / "no_such_dir" / "mesh.txt")
    assert run(["mesh", "--config", config, "--out", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and missing in err


def test_mesh_output_checked_before_writing(tmp_path, capsys, monkeypatch):
    # the mesh dump must not replace the configuration, a directory is no
    # output file, and an empty --out names none (the dump does not go to
    # standard output instead); each is refused before the mesh is built
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(1))
    before = (tmp_path / "cfg.json").read_bytes()

    def unreachable(*args, **kwargs):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "build_unit_cell_mesh", unreachable)
    for out, error in (
        ("cfg.json", "the configuration file and '--out' name the same file"),
        ("./cfg.json", "the configuration file and '--out' name the same file"),
        (config, "the configuration file and '--out' name the same file"),
        (".", "'--out' is a directory"),
        ("", "'--out' must be a non-empty string, got ''"),
    ):
        assert run(["mesh", "--config", config, "--out", out]) == 1
        captured = capsys.readouterr()
        assert f"configuration error: {error}" in captured.err
        assert captured.out == ""
        assert (tmp_path / "cfg.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_oracle_dense(tmp_path, capsys):
    # frequency-independent materials get the dense oracle
    config = write_config(tmp_path, "cfg.json", empty_lattice_raw(4))
    assert run(["oracle", "--config", config, "--k", X_ARG]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert float(lines[0].split()[0]) == pytest.approx(0.5, abs=1e-9)


def test_oracle_lossy_constant_not_applicable(tmp_path, capsys):
    # the search solves a lossy constant rod, but the dense oracle's
    # Hermitian-definite pencil needs real permittivities
    raw = {**drude_raw(), "material": {"variant": "constant", "eps_re": 8.9, "eps_im": 0.1}}
    config = write_config(tmp_path, "lossy.json", raw)
    assert run(["oracle", "--config", config, "--k", X_ARG]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: oracle not applicable: ")
    assert captured.out == ""
    assert run(["solve", "--config", config, "--k", X_ARG]) == 0


def test_oracle_poly(tmp_path, capsys):
    # a TE Drude and a TM lossy-Drude rod get the linearized Drude oracle
    te = drude_raw()
    tm = {**te, "polarization": "TM", "material": {"variant": "lossy_drude", "nu_p": 1.0, "gamma": 0.01}}
    mesh = build_unit_cell_mesh(te["geometry"]["n"], te["geometry"]["r"])
    pmap = build_periodic_dof_map(mesh)
    for raw, rod, count in ((te, Drude(1.0, 0.01), 2), (tm, LossyDrude(1.0, 0.01), 10)):
        config = write_config(tmp_path, "cfg.json", raw)
        fam = assemble_family(mesh, pmap, (math.pi, 0.0), raw["polarization"], {0: Constant(1.0), 1: rod})
        expected = drude_polynomial_oracle(fam, Window(**raw["window"]))
        assert len(expected) == count
        assert run(["oracle", "--config", config, "--k", X_ARG]) == 0
        printed = [complex(*map(float, line.split())) for line in capsys.readouterr().out.splitlines()]
        assert printed == pytest.approx(expected, rel=1e-11)
    # the TE Drude benchmark rod holds three roots at X
    assert run(["oracle", "--config", DRUDE_SWEEP_N8, "--k", X_ARG]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_oracle_which_flag_is_usage_error(tmp_path, capsys):
    # the materials pick the oracle, so there is no flag to choose one
    config = write_config(tmp_path, "drude.json", drude_raw())
    for which in ("auto", "dense", "poly"):
        assert run(["oracle", "--config", config, "--k", X_ARG, "--which", which]) == 1
        assert "unrecognized arguments: --which" in capsys.readouterr().err


def test_oracle_size_cap_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "big.json", empty_lattice_raw(51))
    assert run(["oracle", "--config", config, "--k", X_ARG]) == 1
    assert "limited to" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["beta0", "m0", "max_retries", "initial_side", "delta0", "dedup_tol"])
def test_removed_sim_keys_are_unknown(tmp_path, capsys, key):
    raw = empty_lattice_raw(2)
    raw["sim"] = {"seed": 0, key: 1}
    config = write_config(tmp_path, "cfg.json", raw)
    assert run(["solve", "--config", config, "--k", X_ARG]) == 1
    assert f"configuration error: unknown key 'sim.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,text,key",
    [
        ("sim", '{"seed": -1}', "seed"),
        ("window", '{"re_max": Infinity}', "window.re_max"),
        ("window", '{"im_max": Infinity}', "window.im_max"),
        ("geometry", '{"n": 2, "f": NaN}', "geometry.f"),
    ],
)
def test_bad_numbers_are_configuration_errors(tmp_path, capsys, section, text, key):
    # json parses NaN and Infinity; they and a negative seed must fail as
    # configuration errors naming the key, not in the solver or silently
    raw = empty_lattice_raw(2)
    raw.pop(section, None)
    raw = json.dumps(raw)
    path = tmp_path / "cfg.json"
    path.write_text(f'{raw[:-1]}, "{section}": {text}}}', encoding="utf-8")
    assert run(["solve", "--config", str(path), "--k", X_ARG]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err


@pytest.mark.parametrize(
    "section,value,key",
    [
        ("path", 0, "'path' must be an object"),
        ("path", [], "'path' must be an object"),
        ("outputs", [], "'outputs' must be an object"),
        ("outputs", {"csv_path": None}, "'outputs.csv_path' must be a non-empty string"),
        ("outputs", {"svg_path": 5}, "'outputs.svg_path' must be a non-empty string"),
        ("outputs", {"meta_path": ""}, "'outputs.meta_path' must be a non-empty string"),
        ("material", {"variant": ["constant"], "eps_re": 1.0}, "'material.variant' must be one of"),
    ],
)
def test_malformed_sections_fail_before_the_sweep(tmp_path, capsys, monkeypatch, section, value, key):
    # a section that is not an object, an output path that is not a
    # non-empty string and a variant that is not a name are configuration
    # errors naming the key, reported before anything is solved or written
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep called")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    raw = empty_lattice_raw(2)
    raw[section] = value
    config = write_config(tmp_path, "cfg.json", raw)
    assert run(["sweep", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "phcbands.cli", "--version"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "phcbands" in proc.stdout
