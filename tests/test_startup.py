"""numpy loads at the first numeric call, never at `import liesym`.

The exact work (the catalog, the symmetry-system builder, `list`, `show`,
`check-algebra` and exact `verify`) runs with numpy blocked, and no
function in the package reads a module-level `np`, so each one that
needs numpy imports it itself.
"""

import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import liesym

PACKAGE = Path(liesym.__file__).resolve().parent

# With sys.modules["numpy"] = None, every `import numpy` raises ImportError.
BLOCKED_CHILD = """
import io
import sys

sys.modules["numpy"] = None

import liesym
from liesym import LieSystem, build_symmetry_system
from liesym.cli import main

for name in liesym.names():
    entry = liesym.make(name)
    if isinstance(entry.system, LieSystem):
        build_symmetry_system(entry.system)
    argvs = [["show", name], ["check-algebra", "--catalog", name]]
    argvs += [["verify", "--catalog", name, "--family", fam.name]
              for fam in entry.families]
    for argv in argvs:
        out = io.StringIO()
        assert main(argv, stdout=out) == 0, argv
        assert argv[0] != "verify" or "exact=True" in out.getvalue(), argv
assert main(["list"], stdout=io.StringIO()) == 0
try:
    liesym.integrate(liesym.make("riccati", eta="t").system, [0.5],
                     (0.0, 1.0), 0.1)
except ImportError:
    print("integrate needs numpy")
"""


def test_exact_work_runs_without_numpy(seeded_cli_env):
    proc = subprocess.run([sys.executable, "-c", BLOCKED_CHILD],
                          env=seeded_cli_env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    # the control: the block is in force, so a numeric call fails
    assert proc.stdout.splitlines() == ["integrate needs numpy"]


def _functions(table, prefix=""):
    """(qualified name, table) of every function scope below table."""
    for child in table.get_children():
        name = prefix + child.get_name()
        if child.get_type() == "function":
            yield name, child
        yield from _functions(child, name + ".")


# The functions that may import numpy: each returns or coerces a public
# array, or uses linspace, lstsq, exp or concatenation.  Oracles and
# candidate builders that only reshape kernel outputs work on float lists.
NUMPY_IMPORTERS = {
    "integrate.py": ["rk4_solve", "cumulative_simpson"],
    "liealg.py": ["_numeric_fallback"],
    "liesys.py": ["_CandidateCore.__post_init__",
                  "SymmetryCandidate.channels_at", "symmetry_residual",
                  "riccati_f3_ode_residual", "aff_closed_form"],
    "pdesys.py": ["time_grid", "integrate_along_path"],
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_reads_a_module_level_numpy(path):
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    functions = list(_functions(top))
    readers = [name for name, fn in functions
               if any(s.get_name() == "np" and s.is_global()
                      for s in fn.get_symbols())]
    assert readers == [], f"{path.name}: import numpy inside {readers}"
    importers = [name for name, fn in functions
                 if any(s.get_name() in ("np", "numpy") and s.is_imported()
                        for s in fn.get_symbols())]
    assert importers == NUMPY_IMPORTERS.get(path.name, []), path.name
