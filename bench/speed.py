"""Machine-speed kernel: rescales measured times to a reference speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within minutes, as other tenants load the host. A fixed kernel, timed in the
benchmarked process just before its first trial and just after its last
output is closed, measures that speed where and when the run happens; every
end-to-end time is multiplied by K_REF_S over the kernel's time. Because
the kernel slows down with the run, this cut the spread of the times between
runs two to four times while the machine was busy; README.md gives the
measured spreads with and without it.

The kernel is benchmark code, not program code, so a change to the program
cannot move it. It mixes the kinds of work the program does: interpreter
loops over dicts, many small numpy calls, memory-bound numpy passes and a
small Cholesky factorization. It allocates about 1 MB at a time.
"""

import time

#: Kernel time on the reference machine (2-vCPU Intel Xeon VM, numpy 2.4,
#: OpenBLAS pinned to one thread) when the host was quiet.
K_REF_S = 0.055


def kernel():
    import numpy as np  # already imported by the program; not part of its set-up

    d = {}
    for i in range(60_000):
        d[i % 977] = d.get(i % 977, 0) + i
    rng = np.random.default_rng(0)
    x = rng.standard_normal(50_000)
    for _ in range(48):
        np.sort(x)
        np.exp(-x * x).sum()
    for _ in range(2000):
        np.linalg.norm(x[:100] - 0.5)
    a = rng.standard_normal((200, 200))
    np.linalg.cholesky(a @ a.T + 200.0 * np.eye(200))


def measure(repeats=3):
    """(fastest wall time of the kernel, CPU time spent on all repeats)."""
    cpu0 = time.process_time()
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best, time.process_time() - cpu0
