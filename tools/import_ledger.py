#!/usr/bin/env python
"""Import ledger: which ``repro`` modules a snippet loads, and what each costs.

Runs the snippet in a fresh interpreter under ``-X importtime`` with
``PYTHONDONTWRITEBYTECODE=1`` (every module is compiled from source, as in
the benchmark's environment) and prints each ``repro`` module with its self
and cumulative import time in µs, then the totals.  Stdlib only.

    python tools/import_ledger.py simulate           # memcpy-32 build + handle
    python tools/import_ledger.py bench              # the benchmark rep's imports
    python tools/import_ledger.py -c "import repro.sim" --json
    python tools/import_ledger.py simulate --runs 5  # per-module medians
    python tools/import_ledger.py simulate --bytecode  # warm .pyc cache instead

``--bytecode`` compiles once into a temporary ``PYTHONPYCACHEPREFIX`` and
measures with that cache warm, so the difference to the default run is the
share of start-up spent compiling.  ``--json`` prints one object for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SNIPPETS = {
    # A SimulationPlatform memcpy-32 build and its handle: the simulate path.
    "simulate": (
        "from repro.core.build import BeethovenBuild\n"
        "from repro.kernels.memcpy import memcpy_config\n"
        "from repro.platforms import SimulationPlatform\n"
        "from repro.runtime import FpgaHandle\n"
        "FpgaHandle(BeethovenBuild(memcpy_config(n_cores=32), SimulationPlatform()).design)\n"
    ),
    # What bench/rep.py imports before it runs a workload.
    "bench": (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'bench')!r})\n"
        "import repro, workloads\n"
        "from repro.core.build import InfeasibleDesignError\n"
        "from repro.farm import FarmJobError\n"
        "from repro.faults.errors import FaultError\n"
        "from repro.serve import ServeError\n"
        "from repro.sim import SimulationError\n"
        "from repro.snapshot import SnapshotError\n"
    ),
}


def run_once(code: str, pycache: str = "") -> List[Tuple[str, int, int]]:
    """``(module, self_us, cumulative_us)`` for every module the snippet
    imports, in the order their imports completed."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    if pycache:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = pycache
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"import_ledger: snippet failed\n{proc.stderr[-2000:]}")
    # A module requested again while it is still initialising (an import
    # cycle) gets a second line; fold it into the first: self times add up,
    # the cumulative time is the outer one.
    rows: Dict[str, Tuple[int, int]] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        prev_self, prev_cum = rows.get(name.strip(), (0, 0))
        rows[name.strip()] = (prev_self + int(self_us), max(prev_cum, int(cumulative_us)))
    return [(name, s, c) for name, (s, c) in rows.items()]


def ledger(code: str, runs: int, bytecode: bool) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="import-ledger-") as pycache:
        if bytecode:
            run_once(code, pycache)  # fill the cache; not measured
        samples = [run_once(code, pycache if bytecode else "") for _ in range(runs)]
    order = [name for name, _, _ in samples[0]]
    per: Dict[str, List[Tuple[int, int]]] = {name: [] for name in order}
    for rows in samples:
        for name, self_us, cumulative_us in rows:
            per.setdefault(name, []).append((self_us, cumulative_us))
    modules = [
        {
            "name": name,
            "self_us": int(statistics.median(s for s, _ in per[name])),
            "cumulative_us": int(statistics.median(c for _, c in per[name])),
        }
        for name in order
    ]
    repro = [m for m in modules if m["name"] == "repro" or m["name"].startswith("repro.")]
    return {
        "runs": runs,
        "bytecode": bytecode,
        "totals": {
            "repro_modules": len(repro),
            "repro_self_us": sum(m["self_us"] for m in repro),
            "all_modules": len(modules),
            "all_self_us": sum(m["self_us"] for m in modules),
        },
        "modules": repro,
    }


def render(result: Dict[str, object], label: str) -> str:
    t = result["totals"]
    lines = [f"{'self us':>9} {'cumul us':>9}  module"]
    for m in sorted(result["modules"], key=lambda m: -m["self_us"]):
        lines.append(f"{m['self_us']:>9} {m['cumulative_us']:>9}  {m['name']}")
    lines.append(
        f"{label}: {t['repro_modules']} repro modules, {t['repro_self_us'] / 1000:.1f} ms self; "
        f"all {t['all_modules']} modules {t['all_self_us'] / 1000:.1f} ms "
        f"({'warm .pyc' if result['bytecode'] else 'compiled from source'}, "
        f"median of {result['runs']} run(s))"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snippet", nargs="?", choices=sorted(SNIPPETS), default="simulate")
    parser.add_argument("-c", dest="code", help="run this code instead of a named snippet")
    parser.add_argument("--runs", type=int, default=1, help="fresh interpreters; report medians")
    parser.add_argument("--bytecode", action="store_true",
                        help="measure with a warm bytecode cache instead of compiling")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    code = args.code if args.code is not None else SNIPPETS[args.snippet]
    label = "-c" if args.code is not None else args.snippet
    result = ledger(code, max(args.runs, 1), args.bytecode)
    if args.json:
        print(json.dumps(dict(result, snippet=label), indent=1))
    else:
        print(render(result, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
