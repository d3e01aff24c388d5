"""A fixed reference job, independent of longedge, for the machine's speed.

    python3 perfbench/calibrate.py

run.py times this process, start-up included, several times in each run
and scales the run's times by CAL_REF_S over the median of those times.
The job is plain Python of the kind the program runs: tuple-keyed dicts,
permutations and Fraction sums.  It never imports longedge, so no change
to the program moves it; only the speed of the machine does.
"""

import itertools
from fractions import Fraction


def main() -> int:
    counts: dict[tuple, int] = {}
    total = Fraction(0)
    for perm in itertools.permutations(range(8)):
        key = tuple(perm[i] - perm[i - 1] for i in range(1, 8))
        counts[key] = counts.get(key, 0) + perm[0]
        if perm[0] < 2:
            total += Fraction(perm[1] + 1, perm[2] + perm[3] + 2)
    # a fixed answer, so that a broken interpreter shows
    print(len(counts), total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
