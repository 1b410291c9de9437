"""The package's public surface and the README example that documents it."""

import importlib
import inspect
import pathlib
import pkgutil
import re
import shlex

import quadherald as qh
from quadherald.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "AcceptanceWindow", "ConditionalStatistics", "DetectorModel",
    "MonteCarloResult", "NonConvergenceError", "SolveReport", "Squeezing",
    "__version__", "acceptance_probability_imperfect",
    "efficiency_threshold", "fock_acceptance_probabilities_imperfect",
    "husimi", "mandel_q", "mandel_q_slope_at_zero_squeezing",
    "mean_photon_number", "minimum_poissonian_threshold",
    "monte_carlo_experiment", "optimal_squeezing_for_mandel_q",
    "photon_distribution",
    "second_factorial_moment", "solve_threshold_for_mandel_q", "wigner",
]


def test_public_names():
    # a name added to or dropped from __all__ must be a deliberate edit here
    assert sorted(qh.__all__) == PUBLIC_NAMES
    assert all(hasattr(qh, name) for name in qh.__all__)


def test_module_all_lists_its_public_definitions():
    # a public function or class that a module defines is in its __all__,
    # or gets a leading underscore
    unlisted = []
    for info in pkgutil.iter_modules(qh.__path__):
        module = importlib.import_module(f"quadherald.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        unlisted += [f"{info.name}.{name}" for name, value in vars(module).items()
                     if not name.startswith("_")
                     and (inspect.isfunction(value) or inspect.isclass(value))
                     and value.__module__ == module.__name__
                     and name not in module.__all__]
    assert unlisted == []


def test_readme_library_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    spec = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "sweep.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [line for line in block.splitlines() if line.startswith("quadherald ")]
    assert commands
    for line in commands:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
