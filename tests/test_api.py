"""The package's exported API and the README library example."""

import contextlib
import io
import re
from pathlib import Path

import phcbands
import phcbands.sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_match_readme_api():
    assert phcbands.__all__ == [
        "__version__",
        "Constant",
        "Drude",
        "LossyDrude",
        "SimConfig",
        "Window",
        "solve_at_k",
        "build_unit_cell_mesh",
        "build_periodic_dof_map",
        "dense_linear_oracle",
        "drude_polynomial_oracle",
    ]
    for name in phcbands.__all__:
        assert hasattr(phcbands, name)
    # the sweep entry point stays reachable through its submodule
    assert callable(phcbands.sweep.sweep)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    nus = [complex(line.split()[0]) for line in lines]
    residuals = [float(line.split()[1]) for line in lines]
    assert abs(nus[0] - 0.5) <= 1e-9
    assert 0.5 < nus[1].real < 0.52
    assert max(residuals) <= 1e-12
