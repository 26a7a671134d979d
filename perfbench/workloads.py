"""Task lists of the benchmark workloads.

A task is one README-style CLI invocation, run in process through
``yanglee.cli.run(argv)``.  The seed draws continuous parameters
(beta, anisotropy, detuning, hoppings) inside fixed size classes (chain
length, cell count, beta decade), so the work per pass stays steady
across seeds while the inputs change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Task:
    command: str
    argv: tuple[str, ...]


def _task(command: str, **flags) -> Task:
    argv = [command]
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, float):
            # "=" keeps argparse from reading a negative value as an option.
            argv.append(f"{flag}={value:.9g}")
        else:
            argv.append(f"{flag}={value}")
    return Task(command, tuple(argv))


def zeros(rng: np.random.Generator) -> list[Task]:
    """XXZ zero search: many partition sums at fixed L, varying Delta."""
    tasks = [_task("xxz-zeros", L=6, beta=100.0, grid_n=80, analytic=True)]
    for length in (4, 5, 7):
        tasks.append(_task("xxz-zeros", L=length, beta=rng.uniform(25.0, 100.0),
                           grid_n=32, analytic=True))
    for length in range(2, 9):
        for beta in (25.0, 50.0, 100.0):
            tasks.append(_task("xxz-verify-zeros", L=length, beta=beta))
    for length in range(2, 13):
        tasks.append(_task("xxz-poly", L=length))
    for length in range(2, 13):
        for m in range(1, length // 2 + 1):
            tasks.append(_task("xxz-bethe", L=length, M=m))
    return tasks


def ground(rng: np.random.Generator) -> list[Task]:
    """Interacting-chain ground states: few large blocks, no Delta reused."""
    tasks = []
    for length in (10, 11, 12):
        for lo, hi in ((0.9, 0.99), (1.01, 1.1)):
            tasks.append(_task("xxz-ee", L=length,
                               delta_re=rng.uniform(lo, hi),
                               delta_im=rng.uniform(0.005, 0.05)))
    tasks.append(_task("xxz-gap", L_list="6,8,10",
                       delta_re=-rng.uniform(0.02, 0.08)))
    return tasks


def ssh(rng: np.random.Generator) -> list[Task]:
    """Free-fermion chain: quadrature, K0, bisection, gamma eigensolves."""
    tasks = []
    # One detuning from each half of [0.005, 0.05]: the near-critical half
    # needs more quadrature panels, so stratifying keeps the work steady.
    for lo, hi in ((0.005, 0.0275), (0.0275, 0.05)):
        v = 2.0 + rng.uniform(lo, hi)
        for channel in ("AA", "AB", "BA", "BB"):
            tasks.append(_task("ssh-corr", u=1.0, v=v, w=1.0, channel=channel,
                               x_max=120))
    for lo, hi in ((0.9, 1.1), (2.3, 2.7)):  # PT-broken, then gapped
        tasks.append(_task("ssh-ee", u=1.0, v=rng.uniform(lo, hi), w=1.0,
                           cells=1000))
    for decade in (1e3, 1e4, 1e5):
        tasks.append(_task("ssh-chi", u=1.0, v=rng.uniform(0.95, 1.05), w=1.0,
                           beta=decade * rng.uniform(0.9, 1.0)))
    tasks.append(_task("ssh-zeros-scan", u=1.0, wv_steps=200, t_steps=50))
    return tasks


WORKLOADS = {"zeros": zeros, "ground": ground, "ssh": ssh}


def tasks_for(workload: str, seed: int) -> list[Task]:
    return WORKLOADS[workload](np.random.default_rng(seed))
