"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

The benchmark runs this between the measured commands and scales their
times by it, so that the host's speed, which drifts by a third over
minutes on a shared machine, cancels.  It uses nothing of the `digar`
package, so no change to the program can move it.  Its mix follows the
kinds of work the workloads do: a fresh interpreter importing numpy, a
PCG64 normal fill, a column walk of small numpy operations, many short
per-seed PCG64 streams, a scalar Python recursion, and float formatting
and parsing as in a CSV.  Exits 0
when the work gave the expected checksum.
"""

import sys

import numpy as np

rng = np.random.Generator(np.random.PCG64(20170410))
x = rng.standard_normal((500, 4000))
acc = np.zeros(500)
for t in range(x.shape[1]):
    acc = 0.5 * acc + x[:, t]
for seed in range(3000):
    np.random.Generator(np.random.PCG64(seed)).standard_normal(250)
v = 0.0
for _ in range(250_000):
    v = 0.9999 * v + 1e-4
text = "\n".join(format(float(a), ".17g") for a in x[:10].ravel())
parsed = np.array([float(s) for s in text.split("\n")])
ok = np.array_equal(parsed, x[:10].ravel()) and np.isfinite(acc).all() and 0.0 < v < 1.0
sys.exit(0 if ok else 1)
