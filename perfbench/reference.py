"""The reference job: a fixed, posmap-free process the benchmark times next to each invocation.

    python3 perfbench/reference.py

It starts an interpreter, imports NumPy and does a fixed mix of the work
posmap's invocations are made of: a pure-Python loop, many 8 x 8 Hermitian
`eigh` calls, a few 48 x 48 ones, and dense complex products and an SVD of
the size spanning's dense objects have.  A shared host runs every process
faster or slower for tens of seconds at a time; the benchmark divides each
invocation's wall time by the reference jobs run just before and after it,
which cancels that drift.  Nothing here may change with the program under
test, so this file imports nothing from posmap.
"""

import numpy as np

rng = np.random.default_rng(0)
B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
small = B + B.conj().T
C = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
large = C + C.conj().T

acc = 0
for i in range(200_000):
    acc += i * i % 7
for _ in range(1500):
    np.linalg.eigh(small)
for _ in range(40):
    np.linalg.eigh(large)
D = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
for _ in range(2):
    D @ D
np.linalg.svd(D[:200], compute_uv=False)
