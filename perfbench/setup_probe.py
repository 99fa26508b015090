"""One set-up sample, taken in a fresh interpreter.

Times importing curveblinds (numpy included), loading and validating each
scene given on the command line and building its curve profile, and prints
the seconds taken. Usage: ``python3 perfbench/setup_probe.py SCENE...``
"""

from __future__ import annotations

import sys
import time

from jobs import import_program


def main(sources: list[str]) -> None:
    start = time.perf_counter()
    curveblinds = import_program()
    for source in sources:
        curveblinds.scene.load_scene(source).curve()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
