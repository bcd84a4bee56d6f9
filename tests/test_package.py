"""The package's public names: lazy (PEP 562) exports from the submodules."""

import importlib
import subprocess
import sys

import pytest

import hardmat

NAMES = [name for name in hardmat.__all__ if name != "__version__"]


def defining_module(name):
    """The one submodule whose ``__all__`` lists ``name``."""
    owners = [
        module
        for module in (
            "budgets", "circuits", "constructions", "fields",
            "hitting", "matrices", "sidon", "ssdim",
        )
        if name in importlib.import_module(f"hardmat.{module}").__all__
    ]
    assert len(owners) == 1, (name, owners)
    return importlib.import_module(f"hardmat.{owners[0]}")


@pytest.mark.parametrize("name", NAMES)
def test_name_is_the_submodule_object(name):
    assert getattr(hardmat, name) is getattr(defining_module(name), name)


def test_all_is_unique_and_starts_with_the_version():
    assert hardmat.__all__[0] == "__version__"
    assert len(set(hardmat.__all__)) == len(hardmat.__all__) == 55


def test_dir_lists_every_public_name():
    assert set(hardmat.__all__) <= set(dir(hardmat))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hardmat.no_such_name
    assert not hasattr(hardmat, "no_such_name")


def test_from_imports_of_names_and_submodules():
    from hardmat import build_hard_psd, fields
    from hardmat.hitting import build_hard_psd as direct

    assert build_hard_psd is direct
    assert fields is importlib.import_module("hardmat.fields")


def test_star_import_in_a_fresh_interpreter():
    script = (
        "import sys\n"
        "from hardmat import *\n"
        "import hardmat\n"
        "missing = [n for n in hardmat.__all__ if n not in globals()]\n"
        "print(missing, 'mpmath' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    # ssdim imports mpmath only when a bound is evaluated
    assert out.stdout.split() == ["[]", "False"]
