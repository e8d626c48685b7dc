"""Set-up probe and speed calibration.

    python3 perfbench/probe.py SRC_DIR [NETWORK_JSON [PAIRS_TSV]]

Times `import semgame` plus input loading in a fresh process and prints
three numbers: that time, then the calibration time just before and just
after it. Only `sys` and `time` are imported before the clock starts, so
every module semgame needs is charged to the probe.
"""

import sys
import time

CALIBRATION_ITERS = 40_000


def calibrate() -> float:
    """Seconds this process takes for a fixed loop of dict and float work.

    The machine's speed drifts by up to 2x over minutes (other tenants
    share its cores), and interpreted dict and float work, which is what
    semgame does, slows down with it. The benchmark divides each timing
    by the calibration time measured around it, so its figures follow
    the program rather than the machine.
    """
    t0 = time.perf_counter()
    table = {}
    x = 0.0
    for k in range(CALIBRATION_ITERS):
        table[k & 1023] = x
        x = x * 0.5 + table.get((k * 7) & 1023, 1.0)
    return time.perf_counter() - t0


def main() -> None:
    src, files = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    before = calibrate()
    t0 = time.perf_counter()
    import semgame

    if files:
        semgame.load_network(files[0])
    if len(files) > 1:
        semgame.load_pairs(files[1])
    elapsed = time.perf_counter() - t0
    print(repr(elapsed), repr(before), repr(calibrate()))


if __name__ == "__main__":
    main()
