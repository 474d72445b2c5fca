"""The package re-exports nothing: each public name has one import path,
its own module, and importing one module runs no other."""

import subprocess
import sys

import pytest


@pytest.mark.parametrize("module", ["omegalab", "omegalab.codec"])
def test_import_loads_only_the_named_module(module):
    # a fresh process, so modules this suite already imported do not count
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'omegalab'))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == repr(sorted({"omegalab", module}))
