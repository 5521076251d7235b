"""Command-line interface.

Subcommands:
  mesh    write the plain-text mesh dump for a configuration
  solve   eigenvalues at a single quasimomentum
  sweep   full band diagram (CSV + SVG + metadata)
  oracle  dense reference eigenvalues for small problems

Exit codes: 0 success, 1 configuration/usage error, 2 solver hard failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, config_sha256, load_config, resolved_dict
from .io import emit_svg, write_bands_csv, write_metadata
from .materials import Constant
from .mesh import GeometryError, build_periodic_dof_map, build_unit_cell_mesh, write_mesh_dump
from .sweep import BandDiagram, dense_linear_oracle, drude_polynomial_oracle, solve_at_k, sweep
from .assembly import assemble_family, check_quasimomentum


def _parse_k(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"quasimomentum must be 'k1,k2', got {text!r}")
    try:
        return check_quasimomentum((float(parts[0]), float(parts[1])))
    except ValueError as exc:
        raise ConfigError(f"quasimomentum must be two finite numbers in [-pi, pi], got {text!r}") from exc


def diagram_from_config(cfg: RunConfig) -> BandDiagram:
    """Run the configured sweep and attach the resolved configuration as
    its provenance."""
    diagram = sweep(
        n=cfg.geometry.n,
        r=cfg.geometry.r,
        polarization=cfg.polarization,
        models=cfg.models,
        window=cfg.window,
        cfg=cfg.sim,
        nk=cfg.nk,
    )
    diagram.provenance = resolved_dict(cfg)
    return diagram


def _check_outputs(config: str, outputs: dict[str, str]) -> None:
    """Reject, before anything is computed, an output path (by its name in
    ``outputs``) that is empty, whose directory does not exist, that is a
    directory, or that names the configuration file or another output's
    file."""
    owners: dict[Path, str] = {Path(config).resolve(): "the configuration file"}
    for name, path in outputs.items():
        if not path:
            raise ConfigError(f"{name} must be a non-empty string, got {path!r}")
        if not Path(path).parent.is_dir():
            raise ConfigError(f"output directory of {path!r} does not exist")
        if Path(path).is_dir():
            raise ConfigError(f"{name} is a directory: {path!r}")
        owner = owners.setdefault(Path(path).resolve(), name)
        if owner != name:
            raise ConfigError(f"{owner} and {name} name the same file: {path!r}")


def _cmd_mesh(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        _check_outputs(args.config, {"'--out'": args.out})
    mesh = build_unit_cell_mesh(cfg.geometry.n, cfg.geometry.r)
    if args.out is not None:
        write_mesh_dump(mesh, args.out)
        print(f"wrote {args.out}")
    else:
        write_mesh_dump(mesh, sys.stdout)
    return 0


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    k = _parse_k(args.k)
    mesh = build_unit_cell_mesh(cfg.geometry.n, cfg.geometry.r)
    pmap = build_periodic_dof_map(mesh)
    result = solve_at_k(mesh, pmap, k, cfg.polarization, cfg.models, cfg.window, cfg.sim)
    print("re_nu im_nu residual")
    for cand in result.eigenpairs:
        print(f"{cand.nu.real:.12g} {cand.nu.imag:.12g} {cand.residual:.3e}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _check_outputs(args.config, {f"'outputs.{key}'": path for key, path in asdict(cfg.outputs).items()})
    diagram = diagram_from_config(cfg)
    write_bands_csv(diagram, cfg.outputs.csv_path)
    emit_svg(diagram, cfg.outputs.svg_path)
    write_metadata(
        diagram,
        cfg.outputs.meta_path,
        seed=cfg.sim.seed,
        config_hash=config_sha256(cfg),
        version=__version__,
    )
    print(
        f"wrote {cfg.outputs.csv_path}, {cfg.outputs.svg_path}, {cfg.outputs.meta_path} "
        f"({diagram.n_eigenvalues()} eigenvalues over {len(diagram.points)} k-points)"
    )
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    k = _parse_k(args.k)
    mesh = build_unit_cell_mesh(cfg.geometry.n, cfg.geometry.r)
    pmap = build_periodic_dof_map(mesh)
    fam = assemble_family(mesh, pmap, k, cfg.polarization, cfg.models)
    # the dense oracle when every permittivity is frequency-independent,
    # else the quartic one for the Drude or lossy-Drude rod
    dense = all(isinstance(m, Constant) for m in cfg.models.values())
    oracle = dense_linear_oracle if dense else drude_polynomial_oracle
    try:
        values = oracle(fam, cfg.window)
    except ValueError as exc:
        raise ConfigError(f"oracle not applicable: {exc}") from exc
    for value in values:
        print(f"{value.real:.12g} {value.imag:.12g}")
    return 0


def run(argv: list[str]) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = argparse.ArgumentParser(prog="phcbands", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"phcbands {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_mesh = sub.add_parser("mesh", help="write the mesh dump")
    p_mesh.add_argument("--config", required=True)
    p_mesh.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="eigenvalues at one k-point")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--k", required=True, help="quasimomentum 'k1,k2'")

    p_sweep = sub.add_parser("sweep", help="band diagram along Gamma-X-M-Gamma")
    p_sweep.add_argument("--config", required=True)

    p_oracle = sub.add_parser("oracle", help="dense reference eigenvalues")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--k", default="0,0", help="quasimomentum 'k1,k2'")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or the version string
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_help()
        return 1

    handlers = {"mesh": _cmd_mesh, "solve": _cmd_solve, "sweep": _cmd_sweep, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except (ConfigError, GeometryError, OSError) as exc:
        # an OSError is an output file that cannot be written; it names the path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
