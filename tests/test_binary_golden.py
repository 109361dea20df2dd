"""A sha256 digest of the rank-2 answers over a fixed grid of forms.

For each form it records `mu`, `binary_roots` and `representation_witness`
for every n in [-30, 30], so a change to the cycle walk or the class
search that moves any witness byte changes the digest.  The grid is the
diagonal forms x^2 - d y^2 for non-square 2 <= d < 300 and the forms
(a, 2h, c) with |a|, |h|, |c| <= 8 and positive non-square discriminant.
To inspect the records behind a digest, run

    PYTHONPATH=src python tests/test_binary_golden.py
"""

import hashlib
import json

from reflekt import binary as b

GOLDEN_SHA256 = "a464b15678d913bfb54d5e630f22500f3f22303c6add04cdcd9195de8a5a3fcf"


def grid():
    out = [(1, 0, -d) for d in range(2, 300) if not b.is_square(d)]
    r = range(-8, 9)
    for a in r:
        for h in r:
            for c in r:
                disc = 4 * (h * h - a * c)
                if disc > 0 and not b.is_square(disc):
                    out.append((a, 2 * h, c))
    return out


def records():
    out = []
    for t in grid():
        f = b.BinaryForm(*t)
        out.append({"form": t, "mu": b.mu(f),
                    "roots": b.binary_roots(f),
                    "witnesses": [b.representation_witness(f, n)
                                  for n in range(-30, 31)]})
    return sorted(out, key=lambda r: r["form"])


def digest(recs):
    return hashlib.sha256(
        json.dumps(recs, sort_keys=True).encode()).hexdigest()


def test_rank2_answers_match_the_recorded_digest():
    assert digest(records()) == GOLDEN_SHA256


if __name__ == "__main__":
    recs = records()
    for r in recs:
        print(json.dumps(r, sort_keys=True))
    print(len(recs), digest(recs))
