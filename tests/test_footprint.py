"""The controller's import footprint: ``optcons`` takes its LAPACK routines
from scipy's compiled wrappers without importing the ``scipy.linalg``
package, and shares them with ``scipy.linalg`` in either import order; a
run without message drops builds no random generator, so it does not import
``numpy.random`` (which ``scipy.linalg`` imports)."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# One closed-loop step of leader_follower and its artifacts, then the
# routines compared with scipy.linalg.lapack's and scipy.linalg used.
SCRIPT = """
import sys
{before}
import optcons
from optcons import scenarios

spec = scenarios.load_preset("leader_follower")
session = scenarios.new_session(spec)
session.step()
scenarios.emit_results(session.result(), spec, sys.argv[1])
print("scipy.linalg" in sys.modules, "numpy.random" in sys.modules)

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from optcons import adjoint, solver
routines = [(getattr(lapack, name), getattr(solver, name))
            for name in ("dgbtrf", "dgbtrs", "dposv", "dpotrf", "dpotrs")]
routines.append((lapack.dtbtrs, adjoint.dtbtrs))
print(all(theirs is ours for theirs, ours in routines))
c, lower = scipy.linalg.cho_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
print(np.allclose(scipy.linalg.cho_solve((c, lower), [6.0, 5.0]), [1.0, 1.0]))
"""

ORDERS = {
    "optcons first": "",
    "scipy.linalg first": "import scipy.linalg",
    # No extension file where scipy's layout puts it: the public module serves.
    "extension not found": "import importlib.machinery\n"
                           "importlib.machinery.EXTENSION_SUFFIXES = ['.absent']",
}


@pytest.mark.parametrize("order", list(ORDERS))
def test_controller_runs_without_the_scipy_linalg_package(order, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT.format(before=ORDERS[order]),
         str(tmp_path)], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    linalg_imported = order != "optcons first"
    assert proc.stdout.split() == [str(linalg_imported)] * 2 + ["True", "True"]
    assert sorted(os.listdir(tmp_path)) == ["config.json", "errors.csv", "metrics.json",
                                            "trajectories.csv"]
