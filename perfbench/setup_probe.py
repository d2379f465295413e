"""One cold start: fresh interpreter to fppgeo and fppgeo.cli imported and a run's inputs built.

Usage: python3 setup_probe.py T0 WORKLOAD SEED OUTDIR, where T0 is the
parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide).  Prints the elapsed seconds.
"""

import sys
import time
from pathlib import Path


def main():
    t0, workload, seed, outdir = float(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4]
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import fppgeo  # noqa: F401
    import fppgeo.cli  # noqa: F401
    import workloads
    workloads.build_inputs(workload, seed, Path(outdir))
    print(repr(time.monotonic() - t0))


if __name__ == "__main__":
    main()
