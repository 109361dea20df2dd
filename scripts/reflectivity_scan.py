#!/usr/bin/env python3
"""Scan rank-2 lattices for roots, mu, and reflectivity.

Two sweeps: the diagonal family x^2 - D y^2 over a range of D, and a grid
of non-diagonal Gram matrices [[a, b], [b, c]].  The diagonal family is
always reflective (the second basis vector is a root), so the interesting
rootless examples only show up in the second sweep.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reflekt import binary, roots
from reflekt.lattice import Lattice


def scan_diagonal(cfg: argparse.Namespace):
    print(f"== diagonal family x^2 - D y^2, D = {cfg.d_min}..{cfg.d_max}")
    for d in range(cfg.d_min, cfg.d_max + 1):
        if binary.is_square(d):
            continue
        f = binary.BinaryForm.from_d(d)
        rts = binary.binary_roots(f)
        mu = binary.mu(f)
        norms = ",".join(str(m) for m, _ in rts)
        print(f"D={d:4d}  mu={mu:5d}  root norms: {norms}")


def scan_grid(cfg: argparse.Namespace):
    print(f"== gram grid [[a,b],[b,c]], entries up to {cfg.grid}")
    rootless = 0
    for a in range(1, cfg.grid + 1):
        for b in range(0, cfg.grid + 1):
            for c in range(-cfg.grid, 0):
                lat = Lattice(((a, b), (b, c))) if b * b - a * c > 0 else None
                if lat is None or lat.signature() != (1, 1):
                    continue
                f = binary.BinaryForm.from_gram(lat)
                verdict = roots.reflectivity_indicator(lat)
                if verdict.status == roots.NON_REFLECTIVE:
                    rootless += 1
                    m = verdict.evidence.isometry
                    print(f"gram [[{a},{b}],[{b},{c}]]  NON-REFLECTIVE  "
                          f"isometry trace {m[0][0] + m[1][1]}")
                elif not cfg.only_rootless:
                    norms = ",".join(str(lat.norm(v))
                                     for v in verdict.evidence.roots)
                    print(f"gram [[{a},{b}],[{b},{c}]]  reflective      "
                          f"root norms: {norms}")
    print(f"== {rootless} non-reflective lattices found")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-min", type=int, default=2)
    ap.add_argument("--d-max", type=int, default=100)
    ap.add_argument("--grid", type=int, default=8)
    ap.add_argument("--only-rootless", action="store_true",
                    help="in the grid sweep, print only non-reflective hits")
    args = ap.parse_args()
    scan_diagonal(args)
    print()
    scan_grid(args)


if __name__ == "__main__":
    main()
