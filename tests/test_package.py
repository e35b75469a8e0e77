"""The package's export table: every public name resolves to the object its
defining module holds, however it is reached."""
import importlib
import os
import subprocess
import sys

import pytest

import fracvol


def _fresh_python(code):
    """stdout of code run in a new interpreter, where nothing is resolved yet."""
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(fracvol.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_every_export_resolves_to_its_module_attribute():
    assert len(fracvol.__all__) == len(set(fracvol.__all__))
    for name in fracvol.__all__:
        module = importlib.import_module(f"fracvol.{fracvol._SOURCE[name]}")
        value = getattr(fracvol, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name  # its defining module


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fracvol import *", namespace)
    missing = [n for n in fracvol.__all__ if n not in namespace]
    assert missing == []
    assert all(namespace[n] is getattr(fracvol, n) for n in fracvol.__all__)
    assert _fresh_python("from fracvol import *; import fracvol; "
                         "print(sorted(set(fracvol.__all__) - set(globals())))"
                         ) == "[]"


def test_dir_lists_the_exports():
    assert set(fracvol.__all__) <= set(dir(fracvol))


def test_submodules_stay_reachable():
    from fracvol import pricing
    assert fracvol.pricing is pricing
    assert _fresh_python("import fracvol; "
                         "print(fracvol.pricing.__name__, fracvol.rng.__name__)"
                         ) == "fracvol.pricing fracvol.rng"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'fracvol'.*no_such_name"):
        fracvol.no_such_name
    with pytest.raises(ImportError):
        from fracvol import no_such_name  # noqa: F401
