"""JSON run-configuration loading, validation, and canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .materials import Constant, Drude, LossyDrude, PermittivityModel, normalize_physical_drude
from .mesh import REGION_BACKGROUND, REGION_DISC, filling_fraction_to_radius
from .sim import SimConfig
from .sweep import Window

DEFAULT_WINDOW = Window(re_min=0.02, re_max=1.3, im_min=-0.05, im_max=0.05)
DEFAULT_NK = 16


class ConfigError(ValueError):
    """Configuration file is missing a key or holds an invalid value."""


@dataclass(frozen=True)
class GeometryConfig:
    n: int
    r: float


@dataclass(frozen=True)
class OutputPaths:
    csv_path: str = "bands.csv"
    svg_path: str = "bands.svg"
    meta_path: str = "bands_meta.json"


@dataclass
class RunConfig:
    polarization: str
    geometry: GeometryConfig
    models: dict[int, PermittivityModel]
    window: Window
    sim: SimConfig
    nk: int = DEFAULT_NK
    outputs: OutputPaths = field(default_factory=OutputPaths)


_ROOT_KEYS = frozenset({"polarization", "geometry", "material", "window", "sim", "path", "outputs"})
_MATERIAL_KEYS = {
    "constant": frozenset({"variant", "eps_re", "eps_im"}),
    "drude": frozenset({"variant", "nu_p", "nu_tau", "physical_units"}),
    "lossy_drude": frozenset({"variant", "nu_p", "gamma"}),
}


def _key(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _section(value, where: str, allowed: frozenset[str] | None) -> dict:
    """The object at ``where`` (the root when empty): {} when absent or null;
    a value that is not an object, or a key outside ``allowed`` (unless that
    is None), is an error."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be an object" if where else "configuration root must be an object")
    unknown = sorted(set(value) - allowed) if allowed is not None else []
    if unknown:
        raise ConfigError(f"unknown key '{_key(where, unknown[0])}'")
    return value


def _build(where: str, make, **kwargs):
    """``make(**kwargs)``, with the ValueError of a rejected value reported
    as a configuration error of section ``where``."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"'{where}' invalid: {exc}") from exc


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{_key(where, key)}'")
    return section[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"'{where}' must be finite, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    return value


def _as_path(value, where: str) -> str:
    if not (isinstance(value, str) and value):
        raise ConfigError(f"'{where}' must be a non-empty string, got {value!r}")
    return value


def _parse_geometry(value) -> GeometryConfig:
    raw = _section(value, "geometry", frozenset({"n", "r", "f"}))
    n = _as_int(_require(raw, "n", "geometry"), "geometry.n")
    if n < 1:
        raise ConfigError(f"'geometry.n' must be >= 1, got {n}")
    if ("r" in raw) == ("f" in raw):
        raise ConfigError("'geometry' needs exactly one of 'r' (radius) or 'f' (filling fraction)")
    if "r" in raw:
        r = _as_number(raw["r"], "geometry.r")
        if not (0.0 <= r < 0.5):
            raise ConfigError(f"'geometry.r' must lie in [0, 0.5), got {r}")
    else:
        r = _build("geometry.f", filling_fraction_to_radius, f=_as_number(raw["f"], "geometry.f"))
    return GeometryConfig(n=n, r=r)


def _parse_material(value) -> PermittivityModel:
    # the keys a material takes depend on its variant, so they are checked
    # once the variant is known
    raw = _section(value, "material", None)
    variant = _require(raw, "variant", "material")
    if not (isinstance(variant, str) and variant in _MATERIAL_KEYS):
        raise ConfigError(f"'material.variant' must be one of constant/drude/lossy_drude, got {variant!r}")
    _section(raw, "material", _MATERIAL_KEYS[variant])
    if variant == "constant":
        eps_re = _as_number(_require(raw, "eps_re", "material"), "material.eps_re")
        eps_im = _as_number(raw.get("eps_im", 0.0), "material.eps_im")
        return _build("material", Constant, eps=complex(eps_re, eps_im))
    if raw.get("physical_units") is None:
        # the normalized Drude metal, or the lossy variant: (class, damping key)
        model, damping = (Drude, "nu_tau") if variant == "drude" else (LossyDrude, "gamma")
        nu_p = _as_number(_require(raw, "nu_p", "material"), "material.nu_p")
        rate = _as_number(raw.get(damping, 0.0), f"material.{damping}")
        return _build("material", model, **{"nu_p": nu_p, damping: rate})
    # only the drude variant takes physical_units
    if "nu_p" in raw or "nu_tau" in raw:
        raise ConfigError("'material' takes either normalized parameters or 'physical_units', not both")
    where = "material.physical_units"
    physical = _section(raw["physical_units"], where, frozenset({"omega_p_thz", "omega_tau_thz", "a_meters"}))
    omega_p_thz = _as_number(_require(physical, "omega_p_thz", where), f"{where}.omega_p_thz")
    omega_tau_thz = _as_number(physical.get("omega_tau_thz", 0.0), f"{where}.omega_tau_thz")
    a_meters = _as_number(_require(physical, "a_meters", where), f"{where}.a_meters")
    return _build(
        where,
        normalize_physical_drude,
        omega_p=2.0 * math.pi * omega_p_thz * 1e12,
        omega_tau=2.0 * math.pi * omega_tau_thz * 1e12,
        a=a_meters,
    )


def _parse_window(value) -> Window:
    raw = _section(value, "window", frozenset({"re_min", "re_max", "im_min", "im_max"}))
    values = asdict(DEFAULT_WINDOW) | {key: _as_number(item, f"window.{key}") for key, item in raw.items()}
    return _build("window", Window, **values)


def _parse_sim(value) -> SimConfig:
    raw = _section(value, "sim", frozenset({"seed"}))
    return _build("sim", SimConfig, **{key: _as_int(item, f"sim.{key}") for key, item in raw.items()})


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a configuration dictionary and fill defaults."""
    raw = _section(raw, "", _ROOT_KEYS)

    polarization = _require(raw, "polarization", "")
    if polarization not in ("TE", "TM"):
        raise ConfigError(f"'polarization' must be 'TE' or 'TM', got {polarization!r}")
    geometry = _parse_geometry(_require(raw, "geometry", ""))
    disc_model = _parse_material(_require(raw, "material", ""))
    window = _parse_window(raw.get("window"))
    sim_cfg = _parse_sim(raw.get("sim"))

    path = _section(raw.get("path"), "path", frozenset({"nk"}))
    nk = _as_int(path.get("nk", DEFAULT_NK), "path.nk")
    if nk < 1:
        raise ConfigError(f"'path.nk' must be >= 1, got {nk}")

    outputs = _section(raw.get("outputs"), "outputs", frozenset({"csv_path", "svg_path", "meta_path"}))
    return RunConfig(
        polarization=polarization,
        geometry=geometry,
        models={REGION_BACKGROUND: Constant(eps=1.0 + 0.0j), REGION_DISC: disc_model},
        window=window,
        sim=sim_cfg,
        nk=nk,
        outputs=OutputPaths(**{key: _as_path(value, f"outputs.{key}") for key, value in outputs.items()}),
    )


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration file {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def _model_dict(model: PermittivityModel) -> dict:
    if isinstance(model, Constant):
        return {"variant": "constant", "eps_re": model.eps.real, "eps_im": model.eps.imag}
    if isinstance(model, Drude):
        return {"variant": "drude", "nu_p": model.nu_p, "nu_tau": model.nu_tau}
    return {"variant": "lossy_drude", "nu_p": model.nu_p, "gamma": model.gamma}


def resolved_dict(cfg: RunConfig) -> dict:
    """Canonical fully-resolved configuration dictionary (defaults applied,
    filling fraction converted to a radius, physical units normalized)."""
    return {
        "polarization": cfg.polarization,
        "geometry": asdict(cfg.geometry),
        "materials": {str(region): _model_dict(cfg.models[region]) for region in sorted(cfg.models)},
        "window": asdict(cfg.window),
        "sim": asdict(cfg.sim),
        "path": {"nk": cfg.nk},
        "outputs": asdict(cfg.outputs),
    }


def config_sha256(cfg: RunConfig) -> str:
    """Hash of the canonical resolved configuration."""
    payload = json.dumps(resolved_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
