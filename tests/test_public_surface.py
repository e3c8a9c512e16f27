"""The package namespace and the README's library example."""

import re
import types
from pathlib import Path

import ophp

README = Path(__file__).resolve().parent.parent / "README.md"

# The entry points the README documents, the constructors they take and the
# error classes; everything else is imported from its submodule.
PUBLIC_NAMES = [
    "BasisMismatchError",
    "CoeffVector",
    "DimensionMismatchError",
    "FilterProblem",
    "FilterSolveError",
    "GaussianModel",
    "ModelError",
    "PositivityError",
    "RankDeficiencyWarning",
    "SingularCovarianceError",
    "adjoint",
    "apply",
    "compose",
    "conditional_mean",
    "dense_operator",
    "diagonal_operator",
    "gap",
    "hs_diagnostics",
    "kernel_operator",
    "optimal_b",
    "pinv",
    "positivity_check",
    "qv",
    "rescaled_covariances",
    "sample_joint",
    "scale_weights",
    "scaled_optimal_b",
    "solve_filter",
    "trace_class_threshold",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(ophp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_readme_library_block_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    # The null-space component of x is 0 = y0, so the optimal filter and the
    # conditional mean agree on every component.
    assert float(capsys.readouterr().out) <= 1e-12
