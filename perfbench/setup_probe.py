"""One set-up in a fresh interpreter: import snmlkit, build the workload's inputs.

run.py starts this script several times and times each start to exit; that
wall time is ``setup_s``.  The last line printed is JSON with the import
and build times measured inside the child.

    python3 perfbench/setup_probe.py --workload analyses --seed 1
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    # import snmlkit before the benchmark's own modules, which load numpy too
    start = time.perf_counter()
    import snmlkit as sk

    import_s = time.perf_counter() - start

    import workloads

    start = time.perf_counter()
    ctx = workloads.build(workloads.WORKLOADS[args.workload], sk, args.seed)
    build_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "build_s": build_s, "spec_build_s": ctx.spec_build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
