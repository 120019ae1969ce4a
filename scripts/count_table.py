#!/usr/bin/env python3
"""Reproduce the count tables for the four avoidance bases and compare each
empirical growth ratio with the certified largest root of its fitted
recurrence's characteristic polynomial, as `dominant_root` brackets it."""
import argparse
from fractions import Fraction

from permclass import (
    LinearRecurrence,
    PAIR_BASIS,
    Perm,
    QUAD_BASIS,
    TRIPLE_BASIS,
    char_poly,
    count_avoiders,
    dominant_root,
    empirical_growth,
    fit_recurrence,
)

BASES = {
    "123": [Perm.from_text("123")],
    "123,3214": list(PAIR_BASIS),
    "123,3214,2143": list(TRIPLE_BASIS),
    "123,3214,2143,15432": list(QUAD_BASIS),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--max-order", type=int, default=5)
    args = parser.parse_args()

    for label, basis in BASES.items():
        counts = count_avoiders(basis, args.max_n)
        print(f"avoid {label}")
        print("  counts:", ",".join(str(c) for c in counts))
        growth = empirical_growth(counts)
        print(f"  ratio at n={growth.index}: {growth.ratio:.5f}")
        if len(counts) >= 2 * args.max_order + 2:
            rec = fit_recurrence(counts, args.max_order)
            if rec is None:
                print(f"  no recurrence up to order {args.max_order}")
            else:
                coeffs = ",".join(str(c) for c in rec.coeffs)
                root = dominant_root(char_poly(rec), 1e-9)
                print(f"  recurrence order {rec.order}: {coeffs}")
                print(f"  dominant root: {root.value:.5f}")
        print()


if __name__ == "__main__":
    main()
