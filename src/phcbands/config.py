"""JSON run-configuration loading, validation, and canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .materials import Constant, Drude, LossyDrude, PermittivityModel, normalize_physical_drude
from .mesh import GeometryError, filling_fraction_to_radius
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
    resolved: dict = field(default_factory=dict)  # canonical dict for hashing/provenance


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{where}.{key}'" if where else f"missing required key '{key}'")
    return section[key]


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key '{where + '.' if where else ''}{name}'")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    return value


def _parse_geometry(raw: dict) -> GeometryConfig:
    if not isinstance(raw, dict):
        raise ConfigError("'geometry' must be an object")
    _reject_unknown(raw, {"n", "r", "f"}, "geometry")
    n = _as_int(_require(raw, "n", "geometry"), "geometry.n")
    if n < 1:
        raise ConfigError(f"'geometry.n' must be >= 1, got {n}")
    has_r = "r" in raw
    has_f = "f" in raw
    if has_r == has_f:
        raise ConfigError("'geometry' needs exactly one of 'r' (radius) or 'f' (filling fraction)")
    try:
        if has_r:
            r = _as_number(raw["r"], "geometry.r")
            if not (0.0 <= r < 0.5):
                raise ConfigError(f"'geometry.r' must lie in [0, 0.5), got {r}")
        else:
            r = filling_fraction_to_radius(_as_number(raw["f"], "geometry.f"))
    except GeometryError as exc:
        raise ConfigError(f"'geometry.f' invalid: {exc}") from exc
    return GeometryConfig(n=n, r=r)


def _parse_material(raw: dict) -> PermittivityModel:
    if not isinstance(raw, dict):
        raise ConfigError("'material' must be an object")
    variant = _require(raw, "variant", "material")
    if variant == "constant":
        _reject_unknown(raw, {"variant", "eps_re", "eps_im"}, "material")
        eps_re = _as_number(_require(raw, "eps_re", "material"), "material.eps_re")
        eps_im = _as_number(raw.get("eps_im", 0.0), "material.eps_im")
        try:
            return Constant(eps=complex(eps_re, eps_im))
        except ValueError as exc:
            raise ConfigError(f"'material': {exc}") from exc
    if variant == "drude":
        _reject_unknown(raw, {"variant", "nu_p", "nu_tau", "physical_units"}, "material")
        physical = raw.get("physical_units")
        if physical is not None:
            if "nu_p" in raw or "nu_tau" in raw:
                raise ConfigError("'material' takes either normalized parameters or 'physical_units', not both")
            if not isinstance(physical, dict):
                raise ConfigError("'material.physical_units' must be an object")
            _reject_unknown(physical, {"omega_p_thz", "omega_tau_thz", "a_meters"}, "material.physical_units")
            omega_p_thz = _as_number(
                _require(physical, "omega_p_thz", "material.physical_units"), "material.physical_units.omega_p_thz"
            )
            omega_tau_thz = _as_number(physical.get("omega_tau_thz", 0.0), "material.physical_units.omega_tau_thz")
            a_meters = _as_number(
                _require(physical, "a_meters", "material.physical_units"), "material.physical_units.a_meters"
            )
            try:
                return normalize_physical_drude(
                    omega_p=2.0 * math.pi * omega_p_thz * 1e12,
                    omega_tau=2.0 * math.pi * omega_tau_thz * 1e12,
                    a=a_meters,
                )
            except ValueError as exc:
                raise ConfigError(f"'material.physical_units': {exc}") from exc
        try:
            return Drude(
                nu_p=_as_number(_require(raw, "nu_p", "material"), "material.nu_p"),
                nu_tau=_as_number(raw.get("nu_tau", 0.0), "material.nu_tau"),
            )
        except ValueError as exc:
            raise ConfigError(f"'material': {exc}") from exc
    if variant == "lossy_drude":
        _reject_unknown(raw, {"variant", "nu_p", "gamma"}, "material")
        try:
            return LossyDrude(
                nu_p=_as_number(_require(raw, "nu_p", "material"), "material.nu_p"),
                gamma=_as_number(raw.get("gamma", 0.0), "material.gamma"),
            )
        except ValueError as exc:
            raise ConfigError(f"'material': {exc}") from exc
    raise ConfigError(f"'material.variant' must be one of constant/drude/lossy_drude, got {variant!r}")


def _parse_window(raw: dict | None) -> Window:
    if raw is None:
        return DEFAULT_WINDOW
    if not isinstance(raw, dict):
        raise ConfigError("'window' must be an object")
    _reject_unknown(raw, {"re_min", "re_max", "im_min", "im_max"}, "window")
    values = {
        "re_min": DEFAULT_WINDOW.re_min,
        "re_max": DEFAULT_WINDOW.re_max,
        "im_min": DEFAULT_WINDOW.im_min,
        "im_max": DEFAULT_WINDOW.im_max,
    }
    for key in raw:
        values[key] = _as_number(raw[key], f"window.{key}")
    try:
        return Window(**values)
    except ValueError as exc:
        raise ConfigError(f"'window' invalid: {exc}") from exc


def _parse_sim(raw: dict | None) -> SimConfig:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("'sim' must be an object")
    allowed = {"delta0", "beta0", "m0", "seed", "initial_side", "dedup_tol", "max_retries"}
    _reject_unknown(raw, allowed, "sim")
    kwargs = {}
    for key in ("delta0", "beta0", "initial_side", "dedup_tol"):
        if key in raw:
            kwargs[key] = _as_number(raw[key], f"sim.{key}")
    for key in ("m0", "seed", "max_retries"):
        if key in raw:
            kwargs[key] = _as_int(raw[key], f"sim.{key}")
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"'sim' invalid: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a configuration dictionary and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    allowed = {"polarization", "geometry", "material", "window", "sim", "path", "outputs"}
    _reject_unknown(raw, allowed, "")

    polarization = _require(raw, "polarization", "")
    if polarization not in ("TE", "TM"):
        raise ConfigError(f"'polarization' must be 'TE' or 'TM', got {polarization!r}")
    geometry = _parse_geometry(_require(raw, "geometry", ""))
    disc_model = _parse_material(_require(raw, "material", ""))
    window = _parse_window(raw.get("window"))
    sim_cfg = _parse_sim(raw.get("sim"))

    path_raw = raw.get("path") or {}
    if not isinstance(path_raw, dict):
        raise ConfigError("'path' must be an object")
    _reject_unknown(path_raw, {"nk"}, "path")
    nk = _as_int(path_raw.get("nk", DEFAULT_NK), "path.nk")
    if nk < 1:
        raise ConfigError(f"'path.nk' must be >= 1, got {nk}")

    out_raw = raw.get("outputs") or {}
    if not isinstance(out_raw, dict):
        raise ConfigError("'outputs' must be an object")
    _reject_unknown(out_raw, {"csv_path", "svg_path", "meta_path"}, "outputs")
    outputs = OutputPaths(
        csv_path=str(out_raw.get("csv_path", OutputPaths.csv_path)),
        svg_path=str(out_raw.get("svg_path", OutputPaths.svg_path)),
        meta_path=str(out_raw.get("meta_path", OutputPaths.meta_path)),
    )

    models: dict[int, PermittivityModel] = {0: Constant(eps=1.0 + 0.0j), 1: disc_model}
    cfg = RunConfig(
        polarization=polarization,
        geometry=geometry,
        models=models,
        window=window,
        sim=sim_cfg,
        nk=nk,
        outputs=outputs,
    )
    cfg.resolved = resolved_dict(cfg)
    return cfg


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
    payload = json.dumps(cfg.resolved or resolved_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
