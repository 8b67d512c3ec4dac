"""Pins the OpenBLAS that numpy bundles to one fixed thread count, `THREADS`.

ofevi runs all its linear algebra through numpy, whose wheel ships its own
OpenBLAS with its own thread pool.  A matrix product or eigensolve may sum
in a different order at a different thread count, so a fit's last bits, and
with them the CSV and density bytes, would depend on
`OPENBLAS_NUM_THREADS`.  `pinned` sets every copy it finds to `THREADS`
for the length of a call and restores their previous counts afterwards.
OpenBLAS splits a product by that count alone, not by the CPUs it finds,
so a pinned product has the same bits on any machine, one CPU included.

The library is looked up on the first pin, not at import, through the
thread setters it exports.  A build without them (MKL, Accelerate, a
system OpenBLAS) is left as it is.

A call pins itself where its own bits depend on the thread count, and
nothing pins a whole command around it.  The seven pin sites are
`estimator.fit_from_batch`, `estimator.assemble_moment_matrix`,
`estimator.min_eigenpair`, `ProductBasis.tables`,
`standardize.estimate_moments`, `OfeDensity.mean_and_cov` and
`OfeDensity.sample_with_info`.  Everything else runs at the process's
own count, the evaluation of a density and the draw of a sweep's
reference set among it; tests check that their bits do not depend on it.
On one CPU the two pinned threads share the core, which slows only the
pinned calls.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy

# The library glob in numpy's sibling `numpy.libs` directory, and the names
# of the thread setter and getter it exports.
_PATTERN = "numpy.libs/libscipy_openblas64_*.so"
_SETTER, _GETTER = "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"

# The one count every pin sets: on two or more cores, two threads assemble
# M faster than one.
THREADS = 2

_found = None


def _libraries() -> list[tuple]:
    """(set_num_threads, get_num_threads) of every bundled OpenBLAS found; cached."""
    global _found
    if _found is None:
        found = []
        site = os.path.dirname(os.path.dirname(numpy.__file__))
        for path in sorted(glob.glob(os.path.join(site, _PATTERN))):
            try:
                lib = ctypes.CDLL(path)
                setter, getter = getattr(lib, _SETTER), getattr(lib, _GETTER)
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((setter, getter))
        _found = found
    return _found


@contextmanager
def pinned():
    """Run the block with every bundled OpenBLAS at `THREADS` threads.

    Yields the thread count the block runs at: `THREADS`, or None when no
    OpenBLAS setter was found and nothing was changed.  The previous counts
    are restored on exit, also when the block raises, so nested pins
    restore the outer one's count.  The counts are process-wide: pins on
    two Python threads at once do not keep each other's block at its count.
    """
    libs = _libraries()
    previous = [get() for _, get in libs]
    for set_threads, _ in libs:
        set_threads(THREADS)
    try:
        yield max(get() for _, get in libs) if libs else None
    finally:
        for (set_threads, _), count in zip(libs, previous):
            set_threads(count)
