#!/usr/bin/env python3
"""Record the stored reference eigenvalues of a lossy-Drude TM workload.

No oracle in phcbands covers the TM lossy-Drude disc, so the benchmark
compares against stored values.  This script computes every eigenvalue in
the workload's window independently of the indicator search: with the rod
permittivity eps = 1 - nu_p^2 / (nu (nu + i gamma)) and d(nu) = nu^2 +
i gamma nu - nu_p^2, multiplying the TM operator by d(nu) gives

    P(nu) = A4 nu^4 + A3 nu^3 + A2 nu^2 + A1 nu + A0,
    A4 = -4 pi^2 M,  A3 = -4 i pi^2 gamma M,
    A2 = K_0 + K_1 + 4 pi^2 nu_p^2 M,  A1 = i gamma (K_0 + K_1),
    A0 = -nu_p^2 K_0,

with K_rho the region momentum forms and M the total mass matrix.  The
roots of d lie near |Re nu| = nu_p, outside the benchmark windows.  The
companion matrix is solved densely (A4 is a multiple of the mass matrix, so
it inverts; 4 n^2 unknowns, about ten seconds for n = 24 on two Xeon
cores).  Run from the repository root:

    python3 bench/record_reference.py disc-x-n24

It rewrites the reference file the workload names in bench/workloads.json.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from phcbands.assembly import assemble_family  # noqa: E402
from phcbands.config import load_config  # noqa: E402
from phcbands.materials import Constant, LossyDrude  # noqa: E402
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh  # noqa: E402


def lossy_drude_tm_eigenvalues(cfg, k) -> list[complex]:
    background, rod = cfg.models[0], cfg.models[1]
    if cfg.polarization != "TM" or not isinstance(rod, LossyDrude):
        raise ValueError("needs a TM configuration with a lossy_drude rod")
    if not (isinstance(background, Constant) and complex(background.eps) == 1.0):
        raise ValueError("needs a vacuum background")
    mesh = build_unit_cell_mesh(cfg.geometry.n, cfg.geometry.r)
    fam = assemble_family(mesh, build_periodic_dof_map(mesh), k, "TM", cfg.models)
    k0 = fam.momentum_form[0].toarray()
    k1 = fam.momentum_form[1].toarray()
    mass = fam.mass_total.toarray()
    four_pi_sq = 4.0 * math.pi**2
    gamma, nu_p = rod.gamma, rod.nu_p
    a4 = -four_pi_sq * mass
    a3 = -1j * four_pi_sq * gamma * mass
    a2 = k0 + k1 + four_pi_sq * nu_p**2 * mass
    a1 = 1j * gamma * (k0 + k1)
    a0 = -(nu_p**2) * k0

    size = fam.n_dofs
    companion = np.zeros((4 * size, 4 * size), dtype=np.complex128)
    companion[: 3 * size, size:] = np.eye(3 * size)
    companion[3 * size :, :] = -np.linalg.solve(a4, np.hstack([a0, a1, a2, a3]))
    roots = scipy.linalg.eigvals(companion, overwrite_a=True)
    keep = [complex(z) for z in roots if np.isfinite(z) and cfg.window.contains(complex(z))]
    return sorted(keep, key=lambda z: (z.real, z.imag))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    name = argv[0]
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))[name]
    if spec["reference"]["kind"] != "stored":
        print(f"{name} is checked against an oracle at run time; nothing to record", file=sys.stderr)
        return 2
    values = lossy_drude_tm_eigenvalues(load_config(BENCH / spec["config"]), tuple(spec["k"]))
    record = {
        "workload": name,
        "method": "every root in the window of the quartic companion linearization (bench/record_reference.py)",
        "values": [[nu.real, nu.imag] for nu in values],
    }
    (BENCH / spec["reference"]["file"]).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for nu in values:
        print(f"{nu.real:.12g} {nu.imag:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
