"""scipy.fft is imported at the first transform, never at import.

The toy-model commands, --help and a rejected configuration make no
transform, so a process that runs only them never pays for loading the
FFT stack.  Each check runs in a fresh interpreter, where nothing has
loaded scipy yet.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import strainflow

SRC = Path(strainflow.__file__).resolve().parent

CHILD = textwrap.dedent("""
    import os, sys, tempfile
    import numpy as np
    from strainflow import cli
    from strainflow.spectral import Grid

    def scipy_modules():
        return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

    assert not scipy_modules(), scipy_modules()
    with tempfile.TemporaryDirectory() as tmp:
        runs = (["toy-ode", "--lambda3", "1", "--r", "1.5", "--t-end", "1"],
                ["toy-ode", "--matrix=-2,1,0,0,0", "--t-end", "1"],
                ["toy-ode", "--sweep", "--sweep-lambda3", "0.5,2,2", "--sweep-r", "0.6,2,2",
                 "--sweep-t-end", "10", "--sweep-out", os.path.join(tmp, "sweep.csv")])
        for argv in runs:
            assert cli.main(argv) == 0, argv
        assert cli.main(["simulate", "--n", "7"]) == 1  # a rejected configuration
        try:
            cli.main(["--help"])
        except SystemExit as exc:
            assert exc.code == 0
        else:
            raise AssertionError("--help did not exit")
    assert not scipy_modules(), scipy_modules()

    field = np.random.default_rng(0).standard_normal((3, 8, 8, 8))
    half = Grid(8).fft(field)
    assert "scipy.fft" in sys.modules
    import scipy.fft
    expected = scipy.fft.rfftn(field, axes=(-3, -2, -1), workers=1)
    assert half.tobytes() == expected.tobytes()
    print("ok", file=sys.stderr)
""")


def test_toy_model_commands_never_load_scipy_fft():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr.endswith("ok\n"), proc.stderr


def import_time_modules(node):
    """Absolute modules named by the imports under node that run when its
    module is imported: every import outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from import_time_modules(child)


def imports_scipy(source):
    return any(name == "scipy" or name.startswith("scipy.")
               for name in import_time_modules(ast.parse(source)))


def test_no_module_imports_scipy_at_import():
    assert imports_scipy("from scipy import fft")
    assert imports_scipy("class C:\n    import scipy.fft as f")
    assert not imports_scipy("class C:\n    def f(self):\n        from scipy import fft")
    sources = sorted(SRC.glob("*.py"))
    assert "spectral.py" in {path.name for path in sources}
    assert [path.name for path in sources if imports_scipy(path.read_text())] == []
