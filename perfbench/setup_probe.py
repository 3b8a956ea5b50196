"""Set-up time of one workload in a fresh process.

Usage: python3 perfbench/setup_probe.py CONFIG.ini [CONFIG.ini ...]

Times importing teon, parsing the configs and constructing their tasks
(finite-difference gate included), everything before a first training step,
and prints the seconds on stdout.
"""

import sys
import time

import checkout


def main(paths: list[str]) -> float:
    tic = time.perf_counter()
    checkout.prepare()  # imports numpy and teon
    import teon.config
    import teon.tasks

    for path in paths:
        cfg = teon.config.parse_config(path)
        teon.tasks.make_task(cfg.task, cfg.seed, **cfg.task_params)
    return time.perf_counter() - tic


if __name__ == "__main__":
    print(repr(main(sys.argv[1:])))
