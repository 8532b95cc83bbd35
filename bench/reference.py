"""Reference kernel: a fixed piece of work that reads the host's speed.

Other tenants of a shared host slow every program on it, by up to 2x,
in spells that last from seconds to longer than a whole run.  The
benchmark runs this kernel between its ops, in the same process, to see
how fast the host is running at that moment, and reports its times at
the reference speed: the speed at which one kernel run takes ``REF_S``
seconds.  The kernel touches no bombon code, so a change to bombon
leaves its time alone and shows in full in the reported times.  It
mixes the three kinds of work bombon does: interpreted Python, numpy
calls on tiny matrices, and vectorized numpy over a few thousand points.
"""

import gc
import time

import numpy as np

# One kernel run at the reference speed: about its median on a quiet
# 2-vCPU Intel Xeon guest (Python 3.11, numpy 2.4, OpenBLAS on one
# thread).  It sets the scale of the reported times; two runs compare
# the same way whatever its value.
REF_S = 0.00025

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_SMALL = _SMALL + _SMALL.conj().T
_GRID = _RNG.standard_normal(8192) + 1j * _RNG.standard_normal(8192)


def kernel():
    acc = 0.0
    table = {}
    for i in range(400):
        acc += (i * 0.5) % 3.0
        table[i % 17] = acc
    a = _SMALL
    for _ in range(4):
        w, v = np.linalg.eigh(a)
        acc += float(np.real(v[0, 0] * w[0]))
        a = a @ a.conj().T / np.linalg.norm(a)
    z = _GRID * _GRID.conj() + _GRID
    acc += float(np.abs(z).sum())
    return acc


def sample():
    """Time of one kernel run.  An untimed run first brings the kernel's
    code and data back into the caches, whatever the program did before,
    and the cyclic GC is held off so that garbage left by the program is
    not collected on the kernel's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
