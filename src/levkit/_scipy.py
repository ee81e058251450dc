"""scipy's compiled extension modules, loaded from their files.

levkit needs two compiled kernels of scipy: ``k0`` of
``scipy.special._special_ufuncs`` and ``_linear_filter`` of
``scipy.signal._sigtools``.  Importing them through their packages runs
``scipy/__init__`` and the subpackage's ``__init__``, which load tens
(``scipy.special``) to hundreds (``scipy.signal``) of modules for one
function each.  ``extension`` instead finds the ``scipy`` directory without
importing it and executes the one extension file: with scipy 1.17 on a
2-core x86-64 VM both extensions load in about 3 ms and 1.2 MB, against
0.26-0.30 s for ``from scipy.special import k0``, and no ``scipy*`` module
is left in ``sys.modules``.  This relies on scipy's private module layout;
the versions checked are named in ``pyproject.toml``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os


class ExtensionNotFoundError(RuntimeError):
    """The installed scipy has no extension file where levkit looks for it."""


@functools.cache
def extension(subpackage: str, name: str):
    """The compiled module ``scipy.<subpackage>.<name>``, executed from its
    file and not registered in ``sys.modules``."""
    scipy = importlib.util.find_spec("scipy")
    search = [os.path.join(location, subpackage)
              for location in (scipy.submodule_search_locations if scipy else ())]
    spec = importlib.machinery.PathFinder.find_spec(name, search)
    if spec is None:
        raise ExtensionNotFoundError(
            f"scipy extension {subpackage}.{name} not found in "
            f"{os.pathsep.join(search) or 'no scipy directory'} (scipy {_version()})")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _version() -> str:
    """The installed scipy's version, from its distribution metadata, which
    does not import ``scipy``."""
    import importlib.metadata

    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return "not installed"
