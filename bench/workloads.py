"""The benchmark workloads: CLI arguments, thread counts and expected outputs.

Each workload is one `cellfree run` invocation. Why each one exists, which
layers it exercises and which it bypasses is recorded in README.md next to
this file.
"""

import os
from dataclasses import dataclass

#: BLAS/OpenMP thread variables pinned to 1 in every child process, so that
#: no run uses more threads than the --threads value it was given and the
#: output does not depend on the BLAS thread count.
PINNED_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

LS_POWER_CONFIG = """\
# LS CSI, rate-3/4 OSTBC, MRC over two receive antennas, optimized pilot power
deployment=ppp
density=20.0
half_width_km=2.5
shadow=uncorrelated
csi=ls
code=rate34
rx_antennas=2
power=optimized
opt_grid_km=0.05
epsilon=0.01
inner=100
seed=1
"""


def nproc():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # preset name, or the file name its config is written to
    outer: int             # --outer override
    threads: str           # "nproc" or a fixed count
    rows: tuple            # expected summary rows: (scenario label, n_trials)
    cdf: bool = False
    config_text: str | None = None

    def thread_count(self):
        return nproc() if self.threads == "nproc" else int(self.threads)

    def output_paths(self, workdir, tag):
        out = os.path.join(workdir, tag)
        paths = {"out": out + ".csv", "summary": out + "_summary.csv"}
        if self.cdf:
            paths["cdf"] = out + "_cdf.dat"
        return paths

    def cli_args(self, workdir, seed, tag, threads=None):
        """`cellfree run` arguments for one repetition; outputs go to workdir."""
        scenario = self.scenario
        if self.config_text is not None:
            scenario = os.path.join(workdir, self.scenario)
            with open(scenario, "w") as f:
                f.write(self.config_text)
        paths = self.output_paths(workdir, tag)
        args = ["run", "--scenario", scenario, "--seed", str(seed),
                "--threads", str(threads or self.thread_count()),
                "--outer", str(self.outer), "--out", paths["out"], "--summary", paths["summary"]]
        if self.cdf:
            args += ["--cdf", paths["cdf"]]
        return args


def _rows(labels, n):
    return tuple((label, n) for label in labels)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shadow",
            scenario="fig4",
            outer=150,
            threads="nproc",
            rows=_rows(("fig4/none", "fig4/uncorrelated", "fig4/correlated"), 150 * 100),
        ),
        Workload(
            name="perfect-csv",
            scenario="fig3",
            outer=350,
            threads="nproc",
            rows=_rows([f"fig3/{kind}-d{d}" for kind in ("hex", "ppp") for d in (10, 20, 40)],
                       350 * 100),
            cdf=True,
        ),
        Workload(
            name="ls-power",
            scenario="ls_power.cfg",
            outer=150,
            threads="1",
            rows=_rows(("ls_power/ls_power",), 150 * 100),
            config_text=LS_POWER_CONFIG,
        ),
        Workload(
            name="hypoexp",
            scenario="fig7_positions",
            outer=1000,
            threads="1",
            rows=_rows([f"fig7_positions/terminals/t{k}" for k in range(3)], 1000),
        ),
    )
}
