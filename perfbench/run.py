"""Output-checked benchmark of the ertl pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {measure,lattice,circle,lax} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` measures the end-to-end metrics of one workload;
``--trace 1`` reports the per-layer metrics (see README.md).
"""

import os
import sys
import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import config  # noqa: E402

# One thread everywhere, fixed before numpy loads; ERTL_THREADS stays unset
# so verify-lax keeps its single-thread default.
for _var in config.THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ERTL_THREADS", None)

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("measure", "lattice", "circle", "lax"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time imports plus input generation, print it and exit")
    return ap.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "ertl" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ertl sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    return harness.main(args, _T_START)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
