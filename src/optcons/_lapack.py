"""The six LAPACK routines of ``src/``, from scipy's compiled f2py wrappers.

A deployment runs one controller process per agent, and ``import
scipy.linalg`` would add to each the package's Python import graph (about
27 MB of 63) that the solver never calls.  So after the top-level ``import
scipy`` (which loads the distributor's libraries), the extension
``scipy.linalg._flapack`` is executed on its own and registered under its
real name; a later ``import scipy.linalg`` reuses it, so
``scipy.linalg.lapack.dpotrf is dpotrf`` in either import order.  Where the
extension file is not found, the public ``scipy.linalg.lapack`` serves.
"""

import importlib.machinery as machinery
import importlib.util
import os
import sys

import scipy

_NAME = "scipy.linalg._flapack"


def _flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.__file__), "linalg"),
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec(_NAME)
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_lib = _flapack()
dgbtrf, dgbtrs, dposv, dpotrf, dpotrs, dtbtrs = (
    _lib.dgbtrf, _lib.dgbtrs, _lib.dposv, _lib.dpotrf, _lib.dpotrs, _lib.dtbtrs)
