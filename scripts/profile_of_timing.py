#!/usr/bin/env python3
"""Time parse_arrangement and profile_of on seeded coordinate files; print the medians as JSON.

The inputs are built once; then parse_arrangement runs --passes times on
each, and profile_of --passes times on each parsed arrangement, and only
those calls are timed.  The four files are
  * large: the benchmark's 200-line arrangement of coefficients in [-6, 6]
    with many multiple points, drawn and rendered as the first large file of
    the arrangement-files workload with seed 0;
  * decimal: the large file's lines with each coefficient v written as the
    decimal v/4, as "1.50" and "25e-2" in turn, so that every token goes to
    Fraction;
  * random: --random-lines distinct lines with integer coefficients in
    [-100, 100], almost all of whose points are nodes, from the generator of
    the benchmark's profile_of_400_random_lines_s reference point;
  * hostile: --hostile-lines lines of <50 digits>e+4200 or <50 digits>e-4200
    tokens, whose primitive triples run to about 28,000 bits, so the time
    goes into big-integer products and gcds.
The JSON gives, for each file, its line count, the bit length of its largest
primitive coefficient (profile_of keys meetings by one floor int below
linesurf.arrangement.FLOOR_KEY_BITS, which it also prints, and by gcd pairs
from there on), the median and the fastest of the profile_of passes in
seconds, the median parse_arrangement pass, and the profile found.  Under
"small" it gives the 40 small texts that follow the large file in the same
seeded period of the arrangement-files workload: their count, their total
line count, and the median and the fastest of the passes that parse all 40.
Each timed pass runs under oracle_timing.collector_off: a full garbage
collection before it and the collector off during it, so that no pass pays
for another's garbage; the JSON says so under "gc".
Only ratios from runs of two source trees interleaved in one process
compare them: runs of one tree after the other once read unchanged code
x1.33 apart, as the machine's speed moved.

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
from oracle_timing import collector_off

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import (LARGE_D, LARGE_POOL, PERIOD_SMALL, SMALL_D, SMALL_POOL, _primitive_lines,
                       random_lines_text, render)

DIGITS, EXPONENT, SEED = 50, 4200, 0


def hostile_text(n: int) -> str:
    rng = random.Random(SEED)

    def token():
        mantissa = str(rng.randrange(10 ** (DIGITS - 1), 10 ** DIGITS))
        return f"{rng.choice('+-')}{mantissa}e{rng.choice('+-')}{EXPONENT}"

    return "".join(f"{token()} {token()} {token()}\n" for _ in range(n))


def decimal_text(text: str) -> str:
    values = [v for line in parse_arrangement(text).lines for v in (line.a, line.b, line.c)]
    tokens = [f"{25 * v}e-2" if k % 2 else f"{v / 4:.2f}" for k, v in enumerate(values)]
    return "".join(f"{a} {b} {c}\n" for a, b, c in zip(*[iter(tokens)] * 3))


def period_texts() -> tuple[str, list[str]]:
    """The large text and the small ones of the workload's first period at SEED."""
    rng = random.Random(SEED)
    large = render(rng.sample(_primitive_lines(LARGE_POOL), LARGE_D), rng)
    small = _primitive_lines(SMALL_POOL)
    return large, [render(rng.sample(small, SMALL_D[i % len(SMALL_D)]), rng)
                   for i in range(PERIOD_SMALL)]


def parse_seconds(texts: list[str], passes: int) -> list[float]:
    seconds = []
    for _ in range(passes):
        with collector_off():
            start = time.perf_counter()
            for text in texts:
                parse_arrangement(text)
            seconds.append(time.perf_counter() - start)
    return seconds


def timing(text: str, passes: int) -> dict:
    parse = parse_seconds([text], passes)
    arrangement = parse_arrangement(text)
    seconds = []
    for _ in range(passes):
        with collector_off():
            start = time.perf_counter()
            profile = profile_of(arrangement)
            seconds.append(time.perf_counter() - start)
    top = max(max(abs(line.a), abs(line.b), abs(line.c)) for line in arrangement.lines)
    return {"lines": arrangement.d, "max_bits": top.bit_length(),
            "median_s": statistics.median(seconds), "min_s": min(seconds),
            "parse_median_s": statistics.median(parse),
            "t": {str(r): count for r, count in profile.t}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--random-lines", type=int, default=400)
    parser.add_argument("--hostile-lines", type=int, default=40)
    args = parser.parse_args()
    if args.passes < 1 or args.random_lines < 2 or args.hostile_lines < 2:
        parser.error("--passes must be >= 1 and each line count >= 2")

    large, small = period_texts()
    texts = {"large": large, "decimal": decimal_text(large),
             "random": random_lines_text(args.random_lines, SEED),
             "hostile": hostile_text(args.hostile_lines)}
    report = {"passes": args.passes, "floor_key_bits": FLOOR_KEY_BITS,
              "gc": "collected before each timed pass and disabled during it"}
    report.update((name, timing(text, args.passes)) for name, text in texts.items())
    parse = parse_seconds(small, args.passes)
    report["small"] = {"texts": len(small), "lines": sum(parse_arrangement(t).d for t in small),
                       "parse_median_s": statistics.median(parse), "parse_min_s": min(parse)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
