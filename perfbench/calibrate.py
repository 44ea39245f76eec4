"""Fixed reference task that measures how fast the machine runs right now.

run.py launches it in a fresh interpreter before and after each timed pga-lab
invocation. On a shared machine the speed of both drifts together by tens of
percent over minutes, so the ratio of an invocation's time to the reference
task's time around it stays steadier than the raw time. The task touches no
pga_lab code, so a change to the program cannot move it. Its mix resembles
the CLI's: interpreter start and numpy import, small-array numpy calls, float
formatting and dict updates.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(3000):
        acc += float(np.clip(rng.random(8) ** 0.5, 0.0, 1.0).max())
    text = ",".join(format(i * 0.1234567, ".17g") for i in range(80_000))
    table: dict[int, float] = {}
    for i in range(150_000):
        table[i % 1000] = table.get(i % 1000, 0.0) + i * 0.5


if __name__ == "__main__":
    main()
