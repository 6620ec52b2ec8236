#!/usr/bin/env python3
"""Scan the Chern ratio c1^2/c2 over nodes-and-triples profiles of degree d.

For fixed d the profiles t_2 = C(d,2) - 3 t_3, t_3 = 0, 1, ... exhaust the
balanced profiles supported on double and triple points; the exact ratio is
printed together with its decomposition numerator and denominator.  At
d = 3 the profile t_3 = 1 is the 3-line pencil, where c2 = 0: its ratio
prints as ``undefined`` with no numerator or denominator.  A d below 2 exits
2 with one line on stderr.

Example:
    python3 scripts/ratio_scan.py --d 13
"""

import argparse
import sys
from math import comb

from linesurf import chern_ratio_analysis, validate_profile
from linesurf.errors import LineSurfError, ZeroSecondChern


def scan_row(d: int, t3: int, t2: int) -> str:
    """One table row; the ratio is undefined where c2 = 0 (the 3-line pencil)."""
    t = {r: c for r, c in ((2, t2), (3, t3)) if c}
    try:
        out = chern_ratio_analysis(validate_profile(d, t))
    except ZeroSecondChern:
        return f"{t3:>4} {t2:>5} {'undefined':>12}"
    form = out["nodes_triples_form"]
    return f"{t3:>4} {t2:>5} {str(out['ratio']):>12} {form['numer']:>8} {form['denom']:>8}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=13)
    args = parser.parse_args()

    pairs = comb(max(args.d, 0), 2)  # comb refuses d < 0; validate_profile refuses d < 2
    try:
        rows = [scan_row(args.d, t3, pairs - 3 * t3) for t3 in range(pairs // 3 + 1)]
    except LineSurfError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"{'t_3':>4} {'t_2':>5} {'ratio':>12} {'numer':>8} {'denom':>8}")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
