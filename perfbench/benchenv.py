"""Process set-up shared by the benchmark's entry scripts.

``configure()`` must run before numpy is imported: it fixes the OpenBLAS
thread count and puts the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "padambench"

# One thread: every workload is a single closed-loop caller on small
# matrices, and the recorded reference outputs are bitwise, so the BLAS
# reduction order must not depend on the machine's core count.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure() -> None:
    """Pin BLAS threads and make ``import padambench`` resolve to this
    checkout. Exits with code 2 when the checkout has no source tree."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no padambench source at {PACKAGE}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse to measure a padambench that is not this checkout's."""
    where = Path(module.__file__).resolve()
    if PACKAGE.resolve() not in where.parents:
        print(f"perfbench: imported padambench from {where}, expected "
              f"{PACKAGE}", file=sys.stderr)
        sys.exit(2)
