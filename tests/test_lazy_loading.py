"""Which layers each entry point loads, and the lazy package surface.

Importing the package loads none of its modules: each public name is
imported from its module on first access.  The dga, chain-map and
cumulants families load only the layers below the Hom layer, while the
command line loads every layer at start, so `verify all` imports nothing
during its run.  The loads are observed in fresh interpreters started
with -S, so no site hook imports anything first.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homotopy_cumulants

SRC = Path(__file__).resolve().parent.parent / "src"

BELOW_HOM = {"_record", "interval_model", "cumulants", "certify"}
EVERY_LAYER = BELOW_HOM | {"hom_complex", "cube_complex", "formal_ainfty",
                           "suites", "cli"}


def loaded_after(code: str) -> set:
    """The package's submodules loaded in a fresh interpreter after code."""
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\n{code}\n"
         "print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules"
         " if m.startswith('homotopy_cumulants.'))))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_the_package_loads_no_module():
    assert loaded_after("import homotopy_cumulants") == set()


@pytest.mark.parametrize("suite", ["cumulants", "dga", "chain-map"])
def test_families_below_the_hom_layer_load_only_it(suite):
    assert loaded_after(
        "from homotopy_cumulants.suites import run_suite\n"
        f"assert all(e.status for e in run_suite({suite!r}, 2, 1))"
    ) == BELOW_HOM | {"suites"}


def test_importing_the_cli_loads_every_layer():
    assert loaded_after("import homotopy_cumulants.cli") == EVERY_LAYER


def test_a_name_is_kept_once_resolved():
    assert loaded_after(
        "import homotopy_cumulants as hc\n"
        "assert 'cumulant' not in vars(hc)\n"
        "f = hc.cumulant\n"
        "assert vars(hc)['cumulant'] is f"
    ) == {"_record", "interval_model", "cumulants"}


def test_a_submodule_is_still_imported_by_name():
    assert loaded_after(
        "import homotopy_cumulants\n"
        "from homotopy_cumulants import hom_complex\n"
        "assert hom_complex.__name__ == 'homotopy_cumulants.hom_complex'"
    ) == BELOW_HOM | {"hom_complex"}


def test_every_public_name_is_its_home_modules_object():
    for name in homotopy_cumulants.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(
            f"homotopy_cumulants.{homotopy_cumulants._MODULE_OF[name]}")
        value = getattr(homotopy_cumulants, name)
        assert value is getattr(home, name), name
        if callable(value):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from homotopy_cumulants import *", namespace)
    assert set(homotopy_cumulants.__all__) <= namespace.keys()
    for name in homotopy_cumulants.__all__:
        assert namespace[name] is getattr(homotopy_cumulants, name)


def test_dir_lists_every_public_name_before_it_is_resolved():
    assert loaded_after(
        "import homotopy_cumulants as hc\n"
        "assert set(hc.__all__) <= set(dir(hc))"
    ) == set()


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'homotopy_cumulants'.*'nope'"):
        homotopy_cumulants.nope
    assert not hasattr(homotopy_cumulants, "nope")
