"""Configuration parsing and hashing, plus the CSV / SVG / metadata writers."""

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from phcbands.config import (
    DEFAULT_NK,
    DEFAULT_WINDOW,
    ConfigError,
    config_from_dict,
    config_sha256,
    load_config,
    resolved_dict,
)
from phcbands.io import CSV_HEADER, emit_svg, write_bands_csv, write_metadata
from phcbands.materials import Constant, Drude, LossyDrude
from phcbands.mesh import filling_fraction_to_radius
from phcbands.sim import EigenCandidate
from phcbands.sweep import BandDiagram, KPointResult, Window

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def minimal_raw(**overrides):
    raw = {
        "polarization": "TE",
        "geometry": {"n": 8, "r": 0.3},
        "material": {"variant": "constant", "eps_re": 8.9},
    }
    raw.update(overrides)
    return raw


def small_diagram():
    points = [
        KPointResult(
            index=0,
            k=(0.0, 0.0),
            arclength=0.0,
            eigenpairs=[
                EigenCandidate(nu=0.9 + 0.001j, residual=3e-12),
                EigenCandidate(nu=0.3 - 0.002j, residual=1e-11),
            ],
        ),
        KPointResult(
            index=1,
            k=(math.pi, 0.0),
            arclength=math.pi,
            eigenpairs=[EigenCandidate(nu=0.5 + 0j, residual=2e-13)],
            warnings=["refinement stalled at nu = 0.5"],
        ),
    ]
    return BandDiagram(
        points=points,
        window=Window(0.0, 1.0, -0.05, 0.05),
        provenance={"window": {"re_min": 0.0, "re_max": 1.0}},
    )


def test_minimal_config_defaults():
    cfg = config_from_dict(minimal_raw())
    assert cfg.polarization == "TE"
    assert cfg.geometry.n == 8
    assert cfg.geometry.r == 0.3
    assert cfg.models[0] == Constant(1.0 + 0.0j)
    assert cfg.models[1] == Constant(8.9 + 0.0j)
    assert cfg.window == DEFAULT_WINDOW
    assert cfg.nk == DEFAULT_NK
    assert cfg.sim.delta0 == 0.01
    assert cfg.outputs.csv_path == "bands.csv"
    assert resolved_dict(cfg)["geometry"] == {"n": 8, "r": 0.3}


def test_filling_fraction_geometry():
    cfg = config_from_dict(minimal_raw(geometry={"n": 8, "f": 0.2827}))
    assert cfg.geometry.r == pytest.approx(filling_fraction_to_radius(0.2827), rel=1e-15)
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(geometry={"n": 8, "r": 0.3, "f": 0.2827}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(geometry={"n": 8}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(geometry={"n": 8, "f": 0.9}))  # beyond tangency
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(geometry={"n": 8, "r": 0.5}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(geometry={"n": 0, "r": 0.3}))


def test_material_variants():
    drude = config_from_dict(minimal_raw(material={"variant": "drude", "nu_p": 1.0, "nu_tau": 0.01}))
    assert drude.models[1] == Drude(nu_p=1.0, nu_tau=0.01)
    lossy = config_from_dict(minimal_raw(material={"variant": "lossy_drude", "nu_p": 1.0, "gamma": 0.01}))
    assert lossy.models[1] == LossyDrude(nu_p=1.0, gamma=0.01)
    for variant in ("metal", ["constant"]):
        with pytest.raises(ConfigError, match="'material.variant' must be one of"):
            config_from_dict(minimal_raw(material={"variant": variant, "eps_re": 8.9}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(material={"variant": "constant"}))  # eps_re missing
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(material={"variant": "constant", "eps_re": 0.0}))  # out of bounds


def test_physical_unit_conversion():
    material = {
        "variant": "drude",
        "physical_units": {"omega_p_thz": 1914.0, "omega_tau_thz": 8.34, "a_meters": 1e-7},
    }
    cfg = config_from_dict(minimal_raw(material=material))
    model = cfg.models[1]
    assert isinstance(model, Drude)
    assert model.nu_p == pytest.approx(0.638441678209263, rel=1e-12)
    assert model.nu_tau == pytest.approx(0.002781924553952588, rel=1e-12)

    conflicting = {"variant": "drude", "nu_p": 1.0, "physical_units": {"omega_p_thz": 1914.0, "a_meters": 1e-7}}
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(material=conflicting))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(material={"variant": "drude", "physical_units": {"omega_p_thz": 1914.0}}))
    with pytest.raises(ConfigError, match="'material.physical_units' must be an object"):
        config_from_dict(minimal_raw(material={"variant": "drude", "physical_units": [1914.0, 8.34, 1e-7]}))


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="surprise"):
        config_from_dict(minimal_raw(surprise=1))
    with pytest.raises(ConfigError, match="geometry.q"):
        config_from_dict(minimal_raw(geometry={"n": 8, "r": 0.3, "q": 1}))
    with pytest.raises(ConfigError, match="sim.bogus"):
        config_from_dict(minimal_raw(sim={"bogus": 1}))
    with pytest.raises(ConfigError, match="window.foo"):
        config_from_dict(minimal_raw(window={"foo": 1}))
    # each material variant takes only its own keys
    with pytest.raises(ConfigError, match="material.gamma"):
        config_from_dict(minimal_raw(material={"variant": "drude", "nu_p": 1.0, "gamma": 0.01}))
    with pytest.raises(ConfigError, match="material.physical_units"):
        config_from_dict(minimal_raw(material={"variant": "lossy_drude", "nu_p": 1.0, "physical_units": {}}))


@pytest.mark.parametrize("section", ["geometry", "material", "window", "sim", "path", "outputs"])
@pytest.mark.parametrize("value", [0, []])
def test_sections_must_be_objects(section, value):
    with pytest.raises(ConfigError, match=f"'{section}' must be an object"):
        config_from_dict(minimal_raw(**{section: value}))


def test_optional_sections_may_be_null():
    cfg = config_from_dict(minimal_raw(window=None, sim=None, path=None, outputs=None))
    assert cfg == config_from_dict(minimal_raw())


def test_type_checks_reject_booleans():
    with pytest.raises(ConfigError, match="'sim.seed' must be an integer"):
        config_from_dict(minimal_raw(sim={"seed": True}))
    with pytest.raises(ConfigError, match="'window.re_min' must be a number"):
        config_from_dict(minimal_raw(window={"re_min": True}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(geometry={"n": True, "r": 0.3}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(path={"nk": 0}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(polarization="TX"))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_raw(window={"re_min": 0.9, "re_max": 0.1}))
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_raw()), encoding="utf-8")
    assert load_config(good).geometry.n == 8


def test_config_hash_stable_and_sensitive():
    cfg = config_from_dict(minimal_raw())
    again = config_from_dict(minimal_raw())
    assert config_sha256(cfg) == config_sha256(again)
    assert len(config_sha256(cfg)) == 64
    reseeded = config_from_dict(minimal_raw(sim={"seed": 1}))
    assert config_sha256(reseeded) != config_sha256(cfg)


_PINNED_CONFIG_HASHES = {
    "drude-sweep-n8": "220fe3407ef4b1ccaa808569908d15fb26ab408b9fec7e64d171c5acf9b52f07",
    "dielectric-m-n16": "9f50419b0dee39925e9cb0df2af9f79a317488352de13ce3295e730c43f2061e",
    "disc-x-n24": "3f202f61e5627c718ef3b462906df367f6073fcb8af0d799481cae0d645cc41a",
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIG_HASHES))
def test_config_hash_of_benchmark_configs_is_pinned(name):
    # bands_meta.json records this hash, so a change to the resolved
    # dictionary or its serialization shows here
    assert config_sha256(load_config(BENCH_CONFIGS / f"{name}.json")) == _PINNED_CONFIG_HASHES[name]


def test_resolved_dict_is_canonical():
    cfg = config_from_dict(minimal_raw())
    resolved = resolved_dict(cfg)
    assert set(resolved) == {"polarization", "geometry", "materials", "window", "sim", "path", "outputs"}
    assert resolved["materials"]["0"] == {"variant": "constant", "eps_re": 1.0, "eps_im": 0.0}
    assert resolved["sim"] == {"seed": 0}
    # the sim schema keys are exactly the SimConfig fields
    custom = {"seed": 3}
    assert resolved_dict(config_from_dict(minimal_raw(sim=custom)))["sim"] == custom
    json.dumps(resolved)  # must be JSON-serializable as-is


def test_csv_header_and_sorting(tmp_path):
    path = tmp_path / "bands.csv"
    write_bands_csv(small_diagram(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[4]) == pytest.approx(0.3)  # rows sorted by re_nu within a k-point
    assert float(lines[2].split(",")[4]) == pytest.approx(0.9)
    assert lines[3].split(",")[0] == "1"
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_csv_numeric_roundtrip(tmp_path):
    path = tmp_path / "bands.csv"
    diagram = small_diagram()
    write_bands_csv(diagram, path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert float(rows[2]["arclength"]) == pytest.approx(math.pi, rel=1e-11)
    assert float(rows[0]["im_nu"]) == pytest.approx(-0.002, rel=1e-11)
    assert float(rows[2]["residual"]) == pytest.approx(2e-13, rel=1e-11)


def test_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_bands_csv(small_diagram(), a)
    write_bands_csv(small_diagram(), b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_wellformed_and_marker_count(tmp_path):
    path = tmp_path / "bands.svg"
    emit_svg(small_diagram(), path)
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    ns = root.tag[: -len("svg")]
    circles = root.findall(f"{ns}circle")
    assert len(circles) == 3  # one marker per CSV data row
    labels = [t.text for t in root.findall(f"{ns}text")]
    for node in ("Γ", "X", "M"):
        assert node in labels


def test_svg_window_clips_markers(tmp_path):
    diagram = small_diagram()
    diagram.window = Window(0.4, 0.6, -0.05, 0.05)
    path = tmp_path / "clipped.svg"
    emit_svg(diagram, path)
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    ns = root.tag[: -len("svg")]
    assert len(root.findall(f"{ns}circle")) == 1  # only nu = 0.5 survives


def test_svg_empty_diagram(tmp_path):
    path = tmp_path / "empty.svg"
    emit_svg(BandDiagram(points=[], window=DEFAULT_WINDOW), path)
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    ns = root.tag[: -len("svg")]
    assert root.findall(f"{ns}circle") == []


def test_svg_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    emit_svg(small_diagram(), a)
    emit_svg(small_diagram(), b)
    assert a.read_bytes() == b.read_bytes()


def test_metadata_payload(tmp_path):
    path = tmp_path / "meta.json"
    write_metadata(small_diagram(), path, seed=7, config_hash="ab" * 32, version="0.1.0")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {
        "version",
        "seed",
        "config_sha256",
        "n_kpoints",
        "n_eigenvalues",
        "warnings",
        "provenance",
    }
    assert payload["seed"] == 7
    assert payload["config_sha256"] == "ab" * 32
    assert payload["n_kpoints"] == 2
    assert payload["n_eigenvalues"] == 3
    assert payload["warnings"] == ["k_index 1: refinement stalled at nu = 0.5"]
    assert payload["provenance"]["window"]["re_max"] == 1.0
