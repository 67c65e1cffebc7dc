"""Record the reference outcomes that the benchmark's checks compare against.

    python3 perfbench/record_reference.py [workload ...]

Runs each named workload (default: all) once at the reference seed and
rewrites its entry in ``perfbench/reference.json``. Rerun it only for a
change that is meant to alter results, and say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import HERE, import_library


def main(names: list[str]) -> int:
    import_library()
    import workloads as wl

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        inputs = workload.setup(wl.REFERENCE_SEED)
        (HERE / "tmp").mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=HERE / "tmp")
        try:
            reference[name] = workload.body(inputs, out_dir)
        finally:
            shutil.rmtree(out_dir)
        print(f"recorded {name}")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
