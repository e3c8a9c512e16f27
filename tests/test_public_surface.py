"""The package namespace, the README's library example and the runtime
dependencies."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import ophp
from ophp.operators import OperatorRep

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
    "SingularCovarianceError",
    "apply",
    "conditional_mean",
    "dense_operator",
    "diagonal_operator",
    "kernel_operator",
    "optimal_b",
    "pinv",
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


SOURCES = sorted((Path(ophp.__file__).parent).glob("*.py"))


def test_tolerances_are_pinned():
    # Zero up to rounding is decided by operators.rounding_bound; the only
    # named tolerances left are the rank cutoff of psd_inverse and the
    # input-format allowance of t grids, and only psd_inverse reads the
    # former.  A new bare tolerance fails here.
    defined, readers = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            defined.update(
                t.id for t in targets
                if isinstance(t, ast.Name) and t.id.endswith(("_TOL", "_RTOL"))
            )
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == "EIG_RTOL" for n in ast.walk(fn)
            ):
                readers.add(fn.name)
    assert defined == {"EIG_RTOL", "GRID_BOUND_TOL"}
    assert readers == {"psd_inverse"}


def test_operator_representation_is_pinned():
    # An operator is its stored array and the array's rank is its kind, so
    # no kind tag or per-kind field comes back.  Dict keys such as
    # obj["kind"] are not attributes and stay allowed.
    fields = [f.name for f in dataclasses.fields(OperatorRep)]
    assert fields == ["stored", "domain_basis", "codomain_basis"]
    retired = {"kind", "matrix", "multipliers"}
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in retired
    )
    assert readers == []


def _function(tree, *path):
    """The definition at ``path`` (class, then method, or a function name)."""
    node = tree
    for name in path:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def test_storage_kind_is_decided_in_operators():
    # The smoother, the trend system and the Gaussian conditioning are
    # written in the singular frame of A, whose cores are 1-d or 2-d by the
    # storage of the operators they come from; operators.py alone reads
    # which.  GaussianModel.is_diagonal itself is the one read in gaussian.py.
    kind_reads = {"is_diagonal", "kind", "ndim"}
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    gaussian = trees["gaussian.py"]
    allowed = {id(n) for n in ast.walk(_function(gaussian, "GaussianModel", "is_diagonal"))}
    scopes = [
        ("filter.py", trees["filter.py"]),
        ("smoothing.py", trees["smoothing.py"]),
        ("gaussian.py", gaussian),
        ("validate.py", _function(trees["validate.py"], "conditional_mean_check")),
    ]
    readers = sorted(
        f"{name}:{node.lineno}"
        for name, scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Attribute) and node.attr in kind_reads
        and id(node) not in allowed
    )
    assert readers == []
    # Outside operators.py, 7 lines read the kind: GaussianModel.is_diagonal
    # (2), the two SKIPs of validate.py, and output formatting in cli.py (2)
    # and specs.py.
    lines = [
        line for path in SOURCES if path.name != "operators.py"
        for line in path.read_text().splitlines()
        if re.search(r"is_diagonal|\.kind\b", line)
    ]
    assert len(lines) == 7


def _names_read(node) -> set:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def test_package_ships_no_unreached_code():
    # Every top-level function and class is read by other code of the
    # package (its own body does not count; __init__.py's re-exports do not
    # either), or is a public name of ophp.  Code that only tests reach
    # belongs in tests/.
    defined, read = set(), set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
                read |= _names_read(node) - {node.name}
            else:
                read |= _names_read(node)
    unreached = sorted(
        f"{module}.{name}" for module, name in defined
        if name not in read and name not in PUBLIC_NAMES
    )
    assert unreached == []


def test_no_module_imports_a_private_name():
    private = sorted(
        f"{path.name}: {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == []


def test_readme_library_block_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    # The null-space component of x is 0 = y0, so the optimal filter and the
    # conditional mean agree on every component.
    assert float(capsys.readouterr().out) <= 1e-12


# Runs three commands in a fresh interpreter in which the test-only packages
# cannot be imported.
NUMPY_ONLY_SCRIPT = """
import sys


class TestOnlyPackages:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "hypothesis"):
            raise ModuleNotFoundError(f"{name} is a test-only dependency")
        return None


sys.meta_path.insert(0, TestOnlyPackages())
for blocked in ("scipy", "hypothesis"):
    try:
        __import__(blocked)
    except ImportError:
        pass
    else:
        sys.exit(f"importing {blocked} was not blocked")

from ophp.cli import main

ex = sys.argv[1] + "/ex"
for argv in (
    ["example", "--which", "2", "--dim", "8", "--out", ex],
    ["filter", "--config", ex + "/config.json", "--out", sys.argv[1] + "/filter"],
    ["validate", "--config", ex + "/config.json", "--out", sys.argv[1] + "/validate"],
):
    if main(argv) != 0:
        sys.exit(f"ophp {argv[0]} failed")
"""


def test_commands_need_numpy_alone(tmp_path):
    src = Path(ophp.__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "validate" / "validation.json").is_file()
