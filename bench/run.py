#!/usr/bin/env python3
"""phcbands benchmark: time to bands on fixed workloads.

Run from the root of a source checkout; the program is imported from
``src/`` as it is, nothing is installed:

    python3 bench/run.py --workload drude-sweep-n8 --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified.
``--trace 1`` wraps the program's public functions (see tracing.py), runs one
repetition and reports per-layer metrics.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
workloads, their configurations and the reason each was chosen are in
workloads.json; README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "eig_recall": "ratio",
    "eig_precision": "ratio",
    "kpoint_ok_share": "ratio",
}

# Child process for one set-up sample: import, load_config, mesh and
# periodic DOF map, timed from inside so interpreter start-up is excluded.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import phcbands
from phcbands.config import load_config
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh
cfg = load_config(sys.argv[2])
build_periodic_dof_map(build_unit_cell_mesh(cfg.geometry.n, cfg.geometry.r))
elapsed = time.perf_counter() - t0
if not phcbands.__file__.startswith(sys.argv[1]):
    sys.exit("phcbands imported from " + phcbands.__file__)
print(elapsed)
"""


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    return nproc


def import_program():
    sys.path.insert(0, str(SRC))
    import phcbands
    import phcbands.cli

    where = Path(phcbands.__file__).resolve().parent
    if where != SRC / "phcbands":
        raise SystemExit(f"phcbands imported from {where}, expected {SRC / 'phcbands'}")
    return phcbands


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def source_digest(config_path: Path) -> str:
    """Digest of the program sources and the run's configuration."""
    digest = hashlib.sha256(config_path.read_bytes())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def write_config(workload: dict, seed: int, outdir: Path) -> Path:
    """The workload's stored configuration with sim.seed set to the run's
    seed and, for sweeps, the three outputs written to outdir."""
    raw = json.loads((BENCH / workload["config"]).read_text(encoding="utf-8"))
    raw.setdefault("sim", {})["seed"] = seed
    if workload["command"] == "sweep":
        raw["outputs"] = {
            "csv_path": str(outdir / "bands.csv"),
            "svg_path": str(outdir / "bands.svg"),
            "meta_path": str(outdir / "bands_meta.json"),
        }
    path = outdir / "config.json"
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return path


def measure_setup(config_path: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


@dataclass
class KPointOutcome:
    k: tuple[float, float]
    eigenvalues: list[complex]
    warnings: list[str]


@dataclass
class Repetition:
    seconds: float
    points: list[KPointOutcome]
    problems: list[str]


def kpoints_of(phc, spec: dict, cfg) -> list[tuple[float, float]]:
    if spec["command"] == "solve":
        return [tuple(spec["k"])]
    return [k for k, _ in phc.sweep.make_kpath(cfg.nk).points]


def reference_values(phc, spec: dict, cfg) -> list[list[complex]]:
    """Reference eigenvalues per k-point: stored values, or the oracle the
    workload names, computed outside the timed and traced region."""
    ref = spec["reference"]
    if ref["kind"] == "stored":
        stored = json.loads((BENCH / ref["file"]).read_text(encoding="utf-8"))
        return [[complex(re, im) for re, im in stored["values"]]]
    oracle = getattr(phc.sweep, ref["kind"])
    mesh = phc.mesh.build_unit_cell_mesh(cfg.geometry.n, cfg.geometry.r)
    pmap = phc.mesh.build_periodic_dof_map(mesh)
    return [
        oracle(phc.assembly.assemble_family(mesh, pmap, k, cfg.polarization, cfg.models), cfg.window)
        for k in kpoints_of(phc, spec, cfg)
    ]


class Workload:
    """One stored configuration driven through the functions the CLI calls.

    Program functions are looked up on their modules at call time, so that
    the traced run sees the benchmark's own calls as well as the program's.
    """

    def __init__(self, phc, spec: dict, config_path: Path):
        self.phc = phc
        self.spec = spec
        self.cfg = phc.config.load_config(config_path)
        self.kpoints = kpoints_of(phc, spec, self.cfg)
        if spec["command"] == "solve":
            self.mesh = phc.mesh.build_unit_cell_mesh(self.cfg.geometry.n, self.cfg.geometry.r)
            self.pmap = phc.mesh.build_periodic_dof_map(self.mesh)

    def busy_layers(self) -> tuple[str, ...]:
        if self.spec["command"] == "sweep":
            return tracing.LAYERS
        return tuple(layer for layer in tracing.LAYERS if layer != "io")

    def run_once(self) -> Repetition:
        phc, cfg = self.phc, self.cfg
        if self.spec["command"] == "solve":
            t0 = perf_counter()
            res = phc.sweep.solve_at_k(
                self.mesh, self.pmap, self.kpoints[0], cfg.polarization, cfg.models, cfg.window, cfg.sim
            )
            seconds = perf_counter() - t0
            points = [KPointOutcome(self.kpoints[0], [c.nu for c in res.eigenpairs], list(res.warnings))]
            return Repetition(seconds, points, self._check_values(points))
        t0 = perf_counter()
        diagram = phc.cli.diagram_from_config(cfg)
        phc.io.write_bands_csv(diagram, cfg.outputs.csv_path)
        phc.io.emit_svg(diagram, cfg.outputs.svg_path)
        phc.io.write_metadata(
            diagram,
            cfg.outputs.meta_path,
            seed=cfg.sim.seed,
            config_hash=phc.config.config_sha256(cfg),
            version=phc.__version__,
        )
        seconds = perf_counter() - t0
        points = [KPointOutcome(p.k, [c.nu for c in p.eigenpairs], list(p.warnings)) for p in diagram.points]
        return Repetition(seconds, points, self._check_values(points) + self._check_files(diagram))

    def _check_values(self, points: list[KPointOutcome]) -> list[str]:
        problems = []
        if [p.k for p in points] != [tuple(k) for k in self.kpoints]:
            problems.append("k-points differ from the configured path")
        for point in points:
            for nu in point.eigenvalues:
                if not (math.isfinite(nu.real) and math.isfinite(nu.imag) and self.cfg.window.contains(nu)):
                    problems.append(f"eigenvalue {nu!r} at k={point.k} is not finite or leaves the window")
        return problems

    def _check_files(self, diagram) -> list[str]:
        """The three sweep outputs agree with the in-memory diagram."""
        outputs = self.cfg.outputs
        problems = []
        with open(outputs.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = [
            (str(p.index), f"{c.nu.real:.12g}", f"{c.nu.imag:.12g}")
            for p in diagram.points
            for c in sorted(p.eigenpairs, key=lambda c: (c.nu.real, c.nu.imag))
        ]
        if [(r["k_index"], r["re_nu"], r["im_nu"]) for r in rows] != expected:
            problems.append("bands.csv does not match the computed eigenvalues")
        meta = json.loads(Path(outputs.meta_path).read_text(encoding="utf-8"))
        if (meta["n_kpoints"], meta["n_eigenvalues"], meta["seed"]) != (
            len(diagram.points),
            diagram.n_eigenvalues(),
            self.cfg.sim.seed,
        ):
            problems.append("bands_meta.json does not match the sweep")
        svg = Path(outputs.svg_path).read_text(encoding="utf-8")
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            problems.append("bands.svg is not a complete SVG document")
        elif svg.count("<circle") != diagram.n_eigenvalues():
            problems.append("bands.svg does not plot every eigenvalue")
        return problems


def match_counts(found: list[complex], reference: list[complex], tol: float) -> tuple[int, int]:
    """(reference values with no found value within tol, found values with
    no reference value within tol)."""
    missed = sum(1 for r in reference if not any(abs(r - f) <= tol for f in found))
    spurious = sum(1 for f in found if not any(abs(r - f) <= tol for r in reference))
    return missed, spurious


def score(rep: Repetition, references: list[list[complex]], tol: float) -> dict:
    missed = spurious = warned = 0
    for point, reference in zip(rep.points, references):
        m, s = match_counts(point.eigenvalues, reference, tol)
        missed += m
        spurious += s
        warned += bool(point.warnings)
    n_ref = sum(len(r) for r in references)
    n_found = sum(len(p.eigenvalues) for p in rep.points)
    return {
        "kpoints": len(rep.points),
        "warned_kpoints": warned,
        "eig_reference": n_ref,
        "eig_found": n_found,
        "eig_missed": missed,
        "eig_spurious": spurious,
        "failed_share": warned / len(rep.points),
        "eig_recall": (n_ref - missed) / n_ref if n_ref else 1.0,
        "eig_precision": (n_found - spurious) / n_found if n_found else 0.0,
        "kpoint_ok_share": 1.0 - warned / len(rep.points),
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process and of its largest waited-for child
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith(("_s", "_s_p50", "_s_max")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "io.bytes":
        return "bytes"
    return "count"


def check_trace_repeats(key: str, counts: dict) -> None:
    """Two traced runs of the same sources, configuration and seed must give
    identical counts; the first run's counts are kept in OUT."""
    store = OUT / "trace_counts.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if key in known and known[key] != counts:
        diff = {name: (known[key].get(name), value) for name, value in counts.items() if known[key].get(name) != value}
        raise tracing.TraceCheckError(f"traced counts differ from an earlier run of {key}: {diff}")
    known[key] = counts
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(manifest))
    parser.add_argument("--seed", type=int, required=True, help="passed to the solver as sim.seed (probe vector)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; repetitions are never cut")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "phcbands" / "__init__.py").is_file():
        print(f"no phcbands sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    nproc = pin_blas_threads()
    phc = import_program()
    env = environment(nproc)
    print("# env " + json.dumps(env, sort_keys=True))

    spec = manifest[args.workload]
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    config_path = write_config(spec, args.seed, outdir)
    references = reference_values(phc, spec, phc.config.load_config(config_path))
    setup = [] if args.trace else measure_setup(config_path)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if args.trace else None
    try:
        workload = Workload(phc, spec, config_path)
        reps = []
        start = perf_counter()
        while True:
            reps.append(workload.run_once())
            typical = statistics.median(r.seconds for r in reps)
            if args.trace or perf_counter() - start + typical > args.seconds:
                break
    finally:
        if restore is not None:
            restore()

    tol = workload.cfg.sim.dedup_tol
    scores = [score(rep, references, tol) for rep in reps]
    problems = [p for rep in reps for p in rep.problems]
    if any([p.eigenvalues for p in rep.points] != [p.eigenvalues for p in reps[0].points] for rep in reps):
        problems.append("repetitions of one run found different eigenvalues")
    first = scores[0]
    solve_s = statistics.median(r.seconds for r in reps)

    informational = {}
    if args.trace:
        tracing.check(tracer.spans, workload.busy_layers())
        metrics, counts = tracing.layer_metrics(tracer.spans)
        # Printed but not declared: on single-k workloads it is 0.0 on every
        # run, which reads like a canned time.
        informational["io.write_s"] = metrics.pop("io.write_s")
        check_trace_repeats(f"{args.workload} seed={args.seed} src={source_digest(config_path)}", counts)
        metrics["trace.solve_s"] = solve_s
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "solve_s": solve_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mib(),
            "eig_recall": first["eig_recall"],
            "eig_precision": first["eig_precision"],
            "kpoint_ok_share": first["kpoint_ok_share"],
        }
        units = END_TO_END_UNITS

    result = {
        "correct": not problems,
        "attempted": sum(s["kpoints"] for s in scores),
        "failed": sum(s["warned_kpoints"] for s in scores),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=env,
        repetition_s=[r.seconds for r in reps],
        setup_samples_s=setup,
        score=first,
        informational=informational,
        problems=problems,
        eigenvalues=[[[nu.real, nu.imag] for nu in p.eigenvalues] for p in reps[0].points],
    )
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"# problem: {problem}")
    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetition(s), " + ", ".join(f"{r.seconds:.3f} s" for r in reps))
    for name in ("eig_missed", "eig_spurious", "eig_reference", "eig_found"):
        print(f"{name:<32} {first[name]} count")
    print(f"{'failed_share':<32} {first['failed_share']:.6g} ratio")
    for name, value in informational.items():
        print(f"{name:<32} {value:.6g} {per_layer_unit(name)}")
    for name in sorted(metrics):
        print(f"{name:<32} {metrics[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceCheckError as exc:
        print(f"trace check failed: {exc}", file=sys.stderr)
        sys.exit(3)
