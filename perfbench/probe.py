"""Set-up probe: in a fresh interpreter, import what every rmfperc CLI call
imports, one dependency at a time, then build a workload's job list.
Prints one JSON line: the monotonic time at which it was ready and the
time each import took.

    python3 perfbench/probe.py <workload> <seed>
"""

import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# rmfperc.cli pulls in numpy, scipy.optimize and mpmath; importing them
# first, in this order, attributes the cost by dependency
IMPORTS = (
    ("numpy", "numpy"),
    ("scipy", "scipy.optimize"),
    ("mpmath", "mpmath"),
    ("rmfperc", "rmfperc.cli"),
)


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(SRC))
    import_s = {}
    for label, module in IMPORTS:
        start = time.perf_counter()
        importlib.import_module(module)
        import_s[label] = time.perf_counter() - start
    import workloads

    workloads.jobs(workload, seed)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
