"""What start-up imports: the simulate path stays small, packages stay lazy.

Every package ``__init__`` exports through :func:`repro._lazy.lazy_exports`,
so importing a package imports none of its submodules.  The first test runs
a 2-core ``SimulationPlatform`` memcpy in a fresh interpreter and lists the
optional subsystems it must not load; the rest check every package's lazy
table against its ``__all__``, ``dir()`` and ``from pkg import *``.
``tools/import_ledger.py`` prints what each of those imports costs.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Loaded only by the artefact, ASIC, observability-export, fault, snapshot,
#: farm-pool, MachSuite and sharded paths (or by NumPy-using kernels).
NOT_ON_SIMULATE_PATH = (
    "repro.asic",
    "repro.codegen",
    "repro.hdl.verilog",
    "repro.core.hdlgen",
    "repro.obs.attribution",
    "repro.obs.export",
    "repro.obs.profiler",
    "repro.faults.plan",
    "repro.snapshot.engine",
    "repro.farm.pool",
    "repro.kernels.machsuite",
    "repro.dist",
    "numpy",
)

_MEMCPY = """
import json, sys
from repro.core.build import BeethovenBuild
from repro.kernels.memcpy import memcpy_config
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle

handle = FpgaHandle(BeethovenBuild(memcpy_config(n_cores=2), SimulationPlatform()).design)
data = bytes(range(256)) * 4
src, dst = handle.malloc(len(data)), handle.malloc(len(data))
src.write(data)
handle.copy_to_fpga(src)
handle.call("Memcpy", "memcpy", 1, src=src.fpga_addr, dst=dst.fpga_addr,
            len_bytes=len(data)).get()
handle.copy_from_fpga(dst)
assert dst.read() == data
print(json.dumps(sorted(sys.modules)))
"""


def fresh_interpreter(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a new interpreter on this source tree;
    returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _within(name: str, prefixes) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


#: Every ``repro`` subpackage (walking them imports only their ``__init__``s).
PACKAGES = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]


# ------------------------------------------------------------ simulate path
def test_simulate_path_imports_no_optional_subsystem():
    loaded = json.loads(fresh_interpreter(_MEMCPY).splitlines()[-1])
    assert "repro.core.build" in loaded and "repro.runtime.handle" in loaded
    unwanted = sorted(m for m in loaded if _within(m, NOT_ON_SIMULATE_PATH))
    assert not unwanted, f"the simulate path imports {unwanted}"


def test_importing_every_package_imports_no_submodule():
    """A package ``__init__`` holds a table, not imports."""
    code = (
        "import json, sys\n"
        + "".join(f"import {name}\n" for name in PACKAGES)
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    loaded = json.loads(fresh_interpreter(code).splitlines()[-1])
    assert sorted(loaded) == sorted(["repro", "repro._lazy", *PACKAGES])


# -------------------------------------------------------------- lazy tables
def test_every_package_exports_through_the_lazy_helper():
    assert len(PACKAGES) >= 20
    for name in PACKAGES:
        pkg = importlib.import_module(name)
        assert pkg.__getattr__.__module__ == "repro._lazy", name
        assert list(pkg._LAZY) == list(pkg.__all__), name


@pytest.mark.parametrize("name", PACKAGES)
def test_lazy_exports_resolve(name):
    pkg = importlib.import_module(name)
    for attr in pkg.__all__:
        value = getattr(pkg, attr)
        assert value is getattr(importlib.import_module(pkg._LAZY[attr]), attr)
        assert vars(pkg)[attr] is value  # cached: __getattr__ runs once per name
    assert set(pkg.__all__) <= set(dir(pkg))
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        pkg.not_exported  # noqa: B018
