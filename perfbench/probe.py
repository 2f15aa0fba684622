"""Set-up time of one workload, or of a cold numpy import to scale it by.

    python3 perfbench/probe.py SPECS_JSON   # import nlyoung, build the media and paths
    python3 perfbench/probe.py --numpy      # import numpy only

Prints the seconds taken.  run.py starts it in fresh processes so that the
import is measured cold; nothing heavy is imported before the clock starts.
"""

import json
import os
import sys
import time


def main() -> None:
    if sys.argv[1] == "--numpy":
        t0 = time.perf_counter()
        import numpy  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return
    with open(sys.argv[1], encoding="utf-8") as fh:
        specs = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import nlyoung
    import workloads

    workloads.build(nlyoung, specs)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
