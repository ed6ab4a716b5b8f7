"""The package's lazy exports: `import wolsten` loads no submodule, and each
public name loads its module on first use."""

import importlib
import json
import subprocess
import sys

import pytest

import wolsten


def _fresh(script):
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    script = (
        "import json, sys\n"
        "import wolsten\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wolsten'))))\n"
    )
    assert _fresh(script) == ["wolsten"]


def test_first_use_loads_only_the_defining_module():
    script = (
        "import json, sys\n"
        "import wolsten\n"
        "wolsten.PrimePower\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wolsten'))))\n"
    )
    assert _fresh(script) == ["wolsten", "wolsten.errors", "wolsten.padic"]


@pytest.mark.parametrize("name", wolsten.__all__)
def test_export_is_the_defining_modules_object(name):
    module = f"wolsten.{wolsten._MODULE_OF[name]}"
    value = getattr(wolsten, name)
    assert value is getattr(importlib.import_module(module), name)
    assert getattr(value, "__module__", module) == module


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from wolsten import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(wolsten.__all__)
    assert len(wolsten.__all__) == len(set(wolsten.__all__)) > 50


def test_dir_lists_every_export():
    assert set(wolsten.__all__) <= set(dir(wolsten))
    assert "__version__" in dir(wolsten)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wolsten.no_such_name  # noqa: B018
    assert not hasattr(wolsten, "no_such_name")
