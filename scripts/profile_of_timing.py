#!/usr/bin/env python3
"""Time profile_of on three seeded coordinate files and print the medians as JSON.

The inputs are built once, parsed once, and then profile_of runs --passes
times on each; only those calls are timed.  The three files are
  * large: the benchmark's 200-line arrangement of coefficients in [-6, 6]
    with many multiple points, drawn and rendered as the first large file of
    the arrangement-files workload with seed 0;
  * random: --random-lines distinct lines with integer coefficients in
    [-100, 100], almost all of whose points are nodes, from the generator of
    the benchmark's profile_of_400_random_lines_s reference point;
  * hostile: --hostile-lines lines of <50 digits>e+4200 or <50 digits>e-4200
    tokens, whose primitive triples run to about 28,000 bits, so the time
    goes into big-integer products and gcds.
The JSON gives, for each file, its line count, the bit length of its largest
primitive coefficient (profile_of keys meetings by one floor int below
linesurf.arrangement.FLOOR_KEY_BITS, which it also prints, and by gcd pairs
from there on), the median and the fastest of the passes in seconds, and the
profile found.  The medians of two source trees compare when they run on one
machine, one tree after the other.

Example:
    python3 scripts/profile_of_timing.py --passes 5
"""

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

from linesurf import parse_arrangement, profile_of
from linesurf.arrangement import FLOOR_KEY_BITS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import LARGE_D, LARGE_POOL, _primitive_lines, random_lines_text, render

DIGITS, EXPONENT, SEED = 50, 4200, 0


def hostile_text(n: int) -> str:
    rng = random.Random(SEED)

    def token():
        mantissa = str(rng.randrange(10 ** (DIGITS - 1), 10 ** DIGITS))
        return f"{rng.choice('+-')}{mantissa}e{rng.choice('+-')}{EXPONENT}"

    return "".join(f"{token()} {token()} {token()}\n" for _ in range(n))


def large_text() -> str:
    rng = random.Random(SEED)
    return render(rng.sample(_primitive_lines(LARGE_POOL), LARGE_D), rng)


def timing(text: str, passes: int) -> dict:
    arrangement = parse_arrangement(text)
    seconds = []
    for _ in range(passes):
        start = time.perf_counter()
        profile = profile_of(arrangement)
        seconds.append(time.perf_counter() - start)
    top = max(max(abs(line.a), abs(line.b), abs(line.c)) for line in arrangement.lines)
    return {"lines": arrangement.d, "max_bits": top.bit_length(),
            "median_s": statistics.median(seconds), "min_s": min(seconds),
            "t": {str(r): count for r, count in profile.t}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--random-lines", type=int, default=400)
    parser.add_argument("--hostile-lines", type=int, default=40)
    args = parser.parse_args()
    if args.passes < 1 or args.random_lines < 2 or args.hostile_lines < 2:
        parser.error("--passes must be >= 1 and each line count >= 2")

    texts = {"large": large_text(), "random": random_lines_text(args.random_lines, SEED),
             "hostile": hostile_text(args.hostile_lines)}
    report = {"passes": args.passes, "floor_key_bits": FLOOR_KEY_BITS}
    report.update((name, timing(text, args.passes)) for name, text in texts.items())
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
