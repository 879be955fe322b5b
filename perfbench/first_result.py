"""Set-up probe: a fresh interpreter's first result.

Reads one request from standard input -- a model document, its service,
one point, the worker count and the modules the workload imports --
imports those modules, loads the document and evaluates the point
through ``BatchEngine`` (``copies`` times, so ``jobs=2`` reaches the
worker pool), then prints the ``Pfail`` values as JSON.

Run by ``perfbench/inproc.py``; the timing is taken by the caller.
"""

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    request = json.load(sys.stdin)
    for module in request["imports"]:
        importlib.import_module(module)
    from repro.dsl import assembly_from_dict
    from repro.engine import BatchEngine, BatchRequest

    assembly = assembly_from_dict(request["doc"])
    entry = BatchRequest(assembly, request["service"], request["point"])
    result = BatchEngine(jobs=request["jobs"]).run([entry] * request["copies"])
    print(json.dumps(result.pfails()))


if __name__ == "__main__":
    main()
