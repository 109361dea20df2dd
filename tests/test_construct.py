import ast
import hashlib
import itertools
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from conftest import (U, brute_values, diag, dsum, isotropic_partner_oracle,
                      mj_entry_oracle, pair_frac_oracle)
from reflekt import binary, serialize
from reflekt import construct as c
from reflekt.arith import DEFAULT_EFFORT_LIMIT, is_prime, jacobi
from reflekt.errors import (CertificateError, ConstructionError,
                            EffortLimitExceeded, InternalCheckError,
                            InvalidInputError, ToolkitError)
from reflekt.lattice import Lattice, Sublattice

U3 = dsum(U, U, U)
H = (1, 1, 0, 0, 0, 0)


class TestAvoidRoots:
    def test_example_n2_b1(self):
        cert = c.avoid_roots(2, 1)
        assert cert.primes == ((1, 7), (2, 23))
        assert cert.a == 161
        vals = brute_values(1, 0, 161, 50)
        assert not any(-k in vals for k in range(0, 3))

    def test_example_n1(self):
        assert c.avoid_roots(1, 1).a == 7
        assert c.avoid_roots(1, 7).a == 23  # 7 excluded by "greater than b"

    def test_certificate_revalidates(self):
        for n in range(1, 4):
            for bval in (1, 2, 3):
                cert = c.avoid_roots(n, bval)
                assert c.validate_avoid_roots(cert) == []
                for k, p in cert.primes:
                    assert is_prime(p) and p > bval
                    assert jacobi(-k, p) == -1
                assert not binary.is_square(cert.a * cert.b)

    def test_validation_catches_tampering(self):
        cert = c.avoid_roots(2, 1)
        bad = c.AvoidRootsCertificate(
            n=cert.n, b=cert.b, primes=((1, 5), (2, 23)), a=115,
            form=binary.BinaryForm.from_d(115))
        failures = c.validate_avoid_roots(bad)
        assert failures  # 5 fails the residue condition for k=1

    def test_euler_checks_decide_the_range(self, monkeypatch):
        # x^2 - 6y^2 represents -2 (2^2 - 6): the direct checks report it,
        # and no cycle is walked for any certificate
        def no_cycle(*args, **kwargs):
            raise AssertionError("validate_avoid_roots walked a cycle")

        for name in ("mu", "represents", "_walk", "_mu_walk"):
            monkeypatch.setattr(binary, name, no_cycle)
        bad = c.AvoidRootsCertificate(
            n=2, b=1, primes=((1, 2), (2, 3)), a=6, form=binary.BinaryForm.from_d(6))
        assert c.validate_avoid_roots(bad) == [
            "direct check found x with x^2 = -1 mod 2",
            "-2 is a quadratic residue mod 3",
            "direct check found x with x^2 = -2 mod 3",
            "brute force found -k represented for 1 k in 0..2, the smallest k = 2"]
        for n in range(1, 4):
            assert c.validate_avoid_roots(c.avoid_roots(n, 2)) == []
        for n in (12, 16, 24, 40):
            assert c.validate_avoid_roots(c.avoid_roots(n, 1)) == []

    def test_accepted_certificates_pass_the_complete_decision(self):
        # the lemma of validate_avoid_roots, against the mu oracle: every
        # accepted prime list, honest or tampered, has mu below -n
        rng = random.Random(23)
        odd_primes = [p for p in range(3, 200) if is_prime(p)]
        kinds = {"honest": 0, "swap": 0, "two": 0, "divides": 0,
                 "composite": 0, "a_off": 0, "random": 0}
        accepted = rejected = 0
        for _ in range(700):
            n, bval = rng.randint(2, 5), rng.randint(1, 6)
            primes = list(c._nonresidue_primes(n, bval, set(), DEFAULT_EFFORT_LIMIT))
            kind = rng.choice(sorted(kinds))
            kinds[kind] += 1
            i = rng.randrange(1, n) if kind == "divides" else rng.randrange(n)
            k, p = primes[i]
            if kind == "swap":
                p = rng.choice(odd_primes)
            elif kind == "two":
                p = 2
            elif kind == "divides":  # -k = 0 is a square mod p
                p = next(q for q in (2, 3, 5) if k % q == 0)
            elif kind == "composite":
                p *= rng.choice(odd_primes)
            primes[i] = (k, p)
            if kind == "random":  # any distinct odd primes, residues or not
                primes = list(enumerate(rng.sample(odd_primes[:16], n), start=1))
            a = prod(q for _, q in primes) + (rng.choice((-1, 1)) if kind == "a_off" else 0)
            cert = c.AvoidRootsCertificate(n=n, b=bval, primes=tuple(primes), a=a,
                                           form=binary.BinaryForm.from_d(a * bval))
            if c.validate_avoid_roots(cert) == []:
                accepted += 1
                assert binary.mu(cert.form) < -n, cert
            else:
                rejected += 1
        assert accepted >= 100 and rejected >= 300, (accepted, rejected)
        assert min(kinds.values()) >= 60, kinds

    def test_exclusion_grows_a(self):
        used = set()
        first = c._nonresidue_primes(2, 1, used, DEFAULT_EFFORT_LIMIT)
        assert first == c.avoid_roots(2, 1).primes
        second = c._nonresidue_primes(2, 1, used, DEFAULT_EFFORT_LIMIT)
        assert not {p for _, p in first} & {p for _, p in second}
        assert prod(p for _, p in second) > prod(p for _, p in first)
        assert used == {p for _, p in first + second}

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            c.avoid_roots(0, 1)
        with pytest.raises(InvalidInputError):
            c.avoid_roots(1, 0)

    @pytest.mark.parametrize("n, b, limit", [
        (10**40, 1, DEFAULT_EFFORT_LIMIT), (3, 1, 2)], ids=["huge_n", "small_limit"])
    def test_more_primes_than_the_effort_limit_are_refused(self, monkeypatch,
                                                          n, b, limit):
        # each k costs at least one candidate, so n > effort_limit is
        # refused before any prime search
        def refuse(*args, **kwargs):
            raise AssertionError("a prime search ran")

        monkeypatch.setattr(c, "nonresidue_prime", refuse)
        with pytest.raises(EffortLimitExceeded, match=re.escape(
                f"{n} nonresidue primes need at least {n} candidates, more "
                f"than the effort limit {limit}")):
            c.avoid_roots(n, b, effort_limit=limit)


class TestBruteForceCheck:
    def test_half_box_matches_the_full_box_scan(self):
        rng = random.Random(5)
        # xy, -y^2 and -x^2 reach -2500 only on the edges of the box
        cases = [(0, 1, 0, 2500), (0, -1, 0, 2500), (0, 0, -1, 2500),
                 (-1, 0, 0, 2500)]
        cases += [tuple(rng.randint(-20, 20) for _ in range(3)) + (rng.randint(0, 200),)
                  for _ in range(150)]
        found = 0
        for a, b, cc, bound in cases:
            hits = [-v for v in brute_values(a, b, cc, 50) if -bound <= v <= 0]
            expected = [f"brute force found -k represented for {len(hits)} k in "
                        f"0..{bound}, the smallest k = {min(hits)}"] if hits else []
            assert c._brute_force_failures(a, b, cc, bound) == expected, (a, b, cc)
            found += bool(hits)
        assert found >= 30 and len(cases) - found >= 20, found


class TestPellFamily:
    def test_examples(self):
        assert c.pell_family(3) == c.PellFamilyCertificate(3, 8, -4, (2, 1))
        assert c.pell_family(5) == c.PellFamilyCertificate(5, 24, -8, (4, 1))
        assert c.pell_family(2) == c.PellFamilyCertificate(2, 3, -2, (1, 1))

    def test_rejects_small_a(self):
        with pytest.raises(InvalidInputError):
            c.pell_family(1)

    def test_matches_mu_for_range(self):
        for a in range(2, 51):
            cert = c.pell_family(a)
            assert cert.mu == 2 - 2 * a
            assert binary.BinaryForm.from_d(cert.d).value(*cert.witness) == cert.mu
        assert c.validate_pell_family(c.pell_family(10)) == []

    def test_select_a(self):
        assert c.select_pell_a(1) == 2
        assert c.select_pell_a(4) == 4
        assert c.select_pell_a(2) == 3
        for n in range(1, 30):
            a = c.select_pell_a(n)
            assert a >= 2 and 2 * a > 2 + n
            assert c.pell_family(a).mu < -n
            # minimality of the choice
            assert a == 2 or 2 * (a - 1) <= 2 + n


class TestMjFamily:
    def test_u3_example(self):
        cert = c.mj_family(U3, H, 2, 3)
        assert cert.d == 2
        assert cert.t_index == 2
        assert cert.threshold == 8
        assert cert.m == 1
        assert [e.a for e in cert.entries] == [6, 7, 10]
        norms = [U3.norm(e.v) for e in cert.entries]
        assert norms == sorted(norms, reverse=True)
        assert all(x < y for x, y in zip(norms[1:], norms))
        for e in cert.entries:
            assert e.mu < -cert.d * cert.big_n
            assert cert.t_index % e.index == 0
            mj = Sublattice(U3, e.basis)
            assert mj.contains(H)
            assert mj.contains(e.v)
            assert not binary.is_square(
                4 * -Lattice(e.gram).determinant())
        assert c.validate_mj(cert) == []

    def test_two_entries_decreasing(self):
        cert = c.mj_family(U3, H, 1, 2)
        assert len(cert.entries) == 2
        assert U3.norm(cert.entries[1].v) < U3.norm(cert.entries[0].v)

    @pytest.mark.parametrize("args", [(U3, H, 2, 3, c.STRATEGY_PELL),
                                      (U3, H, 1, 2, c.STRATEGY_PRIMES)],
                             ids=["pell", "primes"])
    def test_one_walk_per_entry(self, monkeypatch, args):
        # _build_entry and validate_mj ask for the mu of each entry's form;
        # the second ask reads the memo, so every form is walked once
        asked = []
        mu = binary.mu

        def counted_mu(f):
            asked.append((f.a, f.b, f.c))
            return mu(f)

        monkeypatch.setattr(binary, "mu", counted_mu)
        cert = c.mj_family(*args[:4], strategy=args[4])
        for e in cert.entries:
            assert asked.count((e.gram[0][0], 2 * e.gram[0][1], e.gram[1][1])) == 2
        walks = binary._mu_walk.cache_info()
        assert walks.misses == walks.currsize == len(set(asked))

    def test_primes_strategy(self):
        cert = c.mj_family(U3, H, 1, 1, strategy=c.STRATEGY_PRIMES)
        entry = cert.entries[0]
        # threshold = N*T^2 = 4: primes for k=1..4, each = 7 mod 8
        assert cert.threshold == 4
        assert entry.a > 1
        assert entry.mu < -cert.d
        assert c.validate_mj(cert) == []

    def test_primes_strategy_threshold_past_the_effort_limit_is_refused(self):
        # threshold 4 needs four primes per a, each at least one candidate
        with pytest.raises(EffortLimitExceeded, match="more than the effort limit 3"):
            c.mj_family(U3, H, 1, 1, strategy=c.STRATEGY_PRIMES, effort_limit=3)

    def test_primes_strategy_builds_no_avoid_roots_certificate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mj_family built an avoid-roots certificate")

        monkeypatch.setattr(c, "avoid_roots", refuse)
        monkeypatch.setattr(c, "validate_avoid_roots", refuse)
        cert = c.mj_family(U3, H, 1, 4, strategy=c.STRATEGY_PRIMES)
        assert [e.a for e in cert.entries] == [
            234577, 96480409, 728898593, 3798637081]
        text = serialize.dumps(serialize.mj_to_obj(cert))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "14b72298015772923e88a6a803ff779dee6d5101fb93aa1ab050ad9744bec720")

    def test_primes_strategy_cap_names_the_entry_form(self, monkeypatch):
        # the first candidate's entry form (2, 0, -4a) is the first cycle
        # walked; x^2 - 2a y^2 is no longer checked on the way
        monkeypatch.setattr(binary, "_CYCLE_CAP", 3)
        with pytest.raises(EffortLimitExceeded, match=re.escape(
                "cycle through (2, 2736, -2596) is longer than 3 forms")):
            c.mj_family(U3, H, 1, 1, strategy=c.STRATEGY_PRIMES)

    def test_wrong_signature_rejected(self):
        with pytest.raises(InvalidInputError):
            c.mj_family(dsum(U, U), (1, 1, 0, 0), 2, 1)

    def test_imprimitive_h_rejected(self):
        with pytest.raises(InvalidInputError):
            c.mj_family(U3, (2, 2, 0, 0, 0, 0), 2, 1)

    def test_nonpositive_h_rejected(self):
        with pytest.raises(InvalidInputError):
            c.mj_family(U3, (1, -1, 0, 0, 0, 0), 2, 1)

    def test_validation_catches_tampered_mu(self):
        cert = c.mj_family(U3, H, 2, 1)
        e = cert.entries[0]
        bad_entry = c.MjEntry(a=e.a, u=e.u, m_factor=e.m_factor, v=e.v,
                              basis=e.basis, gram=e.gram, mu=e.mu - 2,
                              index=e.index)
        bad = c.MjCertificate(
            ambient=cert.ambient, h=cert.h, d=cert.d, big_n=cert.big_n,
            strategy=cert.strategy, threshold=cert.threshold, e=cert.e,
            m=cert.m, f_tilde=cert.f_tilde, t_index=cert.t_index,
            entries=(bad_entry,))
        assert c.validate_mj(bad)

    def test_larger_polarization(self):
        # q(h) = 4 with h = e1 + 2 f1
        h = (1, 2, 0, 0, 0, 0)
        cert = c.mj_family(U3, h, 1, 2)
        assert cert.d == 4
        for e in cert.entries:
            assert e.mu < -4
        assert c.validate_mj(cert) == []

    def test_nontrivial_divisibility(self):
        # in U(2)^3 every pairing is even, so the isotropic e has m = 2 and
        # the overlattice e/2 machinery is exercised for real
        u2 = U.rescale(2)
        amb = dsum(u2, u2, u2)
        cert = c.mj_family(amb, (1, 1, 0, 0, 0, 0), 1, 2)
        assert cert.d == 4
        assert cert.m == 2
        for e in cert.entries:
            assert e.m_factor == 2
            assert amb.norm(e.v) == e.m_factor ** 2 * (-2 * cert.d * e.a)
        assert c.validate_mj(cert) == []

    def test_odd_ambient(self):
        odd = diag(1, 1, 1, -1, -1, -1)
        cert = c.mj_family(odd, (1, 0, 0, 0, 0, 0), 2, 2)
        assert cert.d == 1
        # candidates whose binary form represents -1 or -2 must be skipped
        for e in cert.entries:
            form = binary.BinaryForm.from_gram(Lattice(e.gram))
            assert not binary.represents(form, -1)
            assert not binary.represents(form, -2)
        assert c.validate_mj(cert) == []


A = Lattice(((0, 1), (1, 1)))  # odd unimodular, signature (1, 1)
PARTNER_AMBIENTS = {
    "odd6": diag(1, 1, 1, -1, -1, -1),
    "odd6_m2": diag(1, 1, 1, -1, -1, -2),
    "odd6_2": diag(1, 1, 2, -1, -1, -1),
    "odd6_m222": diag(1, 1, 1, -2, -2, -2),
    "odd7": diag(1, 1, 1, -1, -1, -1, -1),
    "A3": dsum(A, A, A),
    "A3_m1": dsum(A, A, A, diag(-1)),
    "A2_1_m1": dsum(A, A, diag(1, -1)),
    "A3_x2": dsum(A, A, A).rescale(2),
}


def _partner_cases():
    """(ambient name, h) for the first primitive positive-norm h with
    entries in {0, 1, -1}, five per ambient, and one h that once made
    mj_family search for minutes before it failed."""
    cases = []
    for name, lat in PARTNER_AMBIENTS.items():
        hs = (h for h in itertools.product((0, 1, -1), repeat=lat.rank)
              if any(h) and gcd(*h) == 1 and lat.norm(h) > 0)
        cases += [(name, h) for h in itertools.islice(hs, 5)]
    return cases + [("odd6_m2", (1, -1, -1, 0, 0, -1))]


def _library_partner(gram, comp, e, m):
    """f~ = f / m from construct's integer partner f = m f~."""
    return tuple(Fraction(x, m) for x in c._isotropic_partner(comp, e, m))


def _partner_outcome(find, name, h):
    """find's f~ for the isotropic e that mj_family picks, or its error type."""
    lat = PARTNER_AMBIENTS[name]
    _, _, comp, _ = c._h_complement(lat, h)
    e = c._find_isotropic(comp, c.DEFAULT_SEARCH_BOX)
    m = comp.as_lattice().divisibility(_coordinates_in(comp, e))
    try:
        return find(lat.gram, comp, e, m)
    except ToolkitError as exc:
        return type(exc)


class TestIsotropicPartner:
    """The integer-coordinate search against the Fraction box search it
    replaced (box <= 2): by the parity argument a partner exists iff box 1
    finds one, so f / m equals the oracle's f~ or both raise the same error."""

    @pytest.mark.parametrize("name,h", _partner_cases())
    def test_matches_box_search(self, name, h):
        got = _partner_outcome(_library_partner, name, h)
        assert got == _partner_outcome(isotropic_partner_oracle, name, h)

    def test_every_path_is_covered(self, monkeypatch):
        # the cases hold an even q(x), an odd one fixed by a shift, and an
        # odd one that no shift can fix
        shifts = []
        real = c.product

        def product(*args, **kwargs):
            shifts.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(c, "product", product)
        outcomes = [_partner_outcome(_library_partner, *case)
                    for case in _partner_cases()]
        assert 0 < outcomes.count(ConstructionError) < len(shifts) < len(outcomes)


ENTRY_CASES = [
    # (ambient, h, m, the m_factors that a = 2..40 give)
    (PARTNER_AMBIENTS["A3_x2"], (0, 0, 0, 1, 1, 1), 4, {4}),
    (PARTNER_AMBIENTS["A3"], (0, 0, 0, 1, 1, 1), 2, {2}),
    (PARTNER_AMBIENTS["odd6_m222"], (0, 1, 1, 0, 0, 0), 2, {2}),
    (PARTNER_AMBIENTS["odd6_m222"], (0, 1, 2, 0, 0, 1), 2, {1, 2}),
    (U3, H, 1, {1}),
    (dsum(U3, diag(-2, -2)), H + (0, 0), 1, {1}),
]


class TestIntegerBuild:
    """_build_entry works on w = m u_a; the Fraction arithmetic it replaced
    (mj_entry_oracle) must give the same u, m_factor and v, and q(u_a) =
    q(v) / m_factor^2, for every entry it accepts."""

    @pytest.mark.parametrize("ambient,h,m,factors", ENTRY_CASES)
    def test_entries_match_the_fraction_oracle(self, ambient, h, m, factors):
        h, d, comp, t = c._h_complement(ambient, h)
        e = c._find_isotropic(comp, c.DEFAULT_SEARCH_BOX)
        assert comp.as_lattice().divisibility(_coordinates_in(comp, e)) == m
        f = c._isotropic_partner(comp, e, m)
        f_tilde = tuple(Fraction(x, m) for x in f)
        seen = []
        for a in range(2, 41):
            result = c._build_entry(ambient, h, d, e, f, m, a, 1, t)
            if result is None:
                continue
            entry, qv = result
            u, m_factor, v, qu = mj_entry_oracle(ambient.gram, e, m, f_tilde, d, a)
            assert (entry.u, entry.m_factor, entry.v) == (u, m_factor, v), a
            assert Fraction(qv, m_factor ** 2) == qu == -2 * d * a
            seen.append(m_factor)
        assert len(seen) >= 25 and set(seen) == factors


def _f_tilde_failures(cert):
    """validate_mj's lines for a certificate whose f~ alone was tampered
    with, by the Fraction pairing it used before its integer checks."""
    gram = cert.ambient.gram
    e_tilde = tuple(Fraction(x, cert.m) for x in cert.e)
    out = []
    if pair_frac_oracle(gram, e_tilde, cert.f_tilde) != 1:
        out.append("(e~, f~) != 1")
    if pair_frac_oracle(gram, cert.f_tilde, cert.f_tilde) != 0:
        out.append("f~ is not isotropic")
    for i, entry in enumerate(cert.entries):
        u = mj_entry_oracle(gram, cert.e, cert.m, cert.f_tilde, cert.d, entry.a)[0]
        if u != entry.u:
            out.append(f"entry {i}: u does not equal e~ - d*a*f~")
    return out


class TestTamperedFTilde:
    """validate_mj reads f~ through k f~, k the lcm of its denominators;
    the lines stay those of the Fraction pairing, also for denominators
    that do not divide m."""

    @pytest.mark.parametrize("ambient,h", [
        (U3, H),                                              # m = 1
        (PARTNER_AMBIENTS["A3_x2"], (0, 0, 0, 1, 1, 1)),      # m = 4
    ])
    def test_lines_match_the_fraction_pairing(self, ambient, h):
        cert = c.mj_family(ambient, h, 1, 2)
        f = cert.f_tilde
        variants = [tuple(x / k for x in f) for k in (2, 3, 4)]
        for i in range(len(f)):
            for x in (Fraction(1, 3), Fraction(-2, 7), Fraction(1, 1000000007)):
                variants.append(f[:i] + (x,) + f[i + 1:])
        seen = set()
        for bad_f in variants:
            assert any(x.denominator > 1 and cert.m % x.denominator for x in bad_f)
            bad = replace(cert, f_tilde=bad_f)
            got = c.validate_mj(bad)
            assert got == _f_tilde_failures(bad), bad_f
            seen.update(line for line in got if not line.startswith("entry"))
        assert seen == {"(e~, f~) != 1", "f~ is not isotropic"}


def test_fractions_only_build_the_stored_rationals():
    # every pairing goes through Lattice.evaluate/norm, and a Fraction is
    # made only for the certificate's f~ and u and validate_mj's u check
    source = Path(c.__file__).read_text()
    hits = [line.strip() for line in source.splitlines() if "Fraction(" in line]
    assert hits == [
        "threshold=threshold, e=e, m=m, f_tilde=tuple(Fraction(x, m) for x in f),",
        "entry = MjEntry(a=a, u=tuple(Fraction(x, m) for x in w), m_factor=m // g,",
        "expect_u = tuple(Fraction(x, cert.m) - cert.d * entry.a * ft",
    ]
    names = [node.name for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef)]
    assert not [n for n in names if "pair" in n or "norm" in n]


def _coordinates_in(comp, e):
    """e's integer coordinates over comp's basis by a rational solve, or None."""
    coords = comp.coordinates_of(e)
    if coords is None or any(x.denominator != 1 for x in coords):
        return None
    return tuple(int(x) for x in coords)


def _e_failures_by_coordinates(cert):
    """validate_mj's checks of e through its coordinates over the
    complement's basis and the complement's own Gram matrix."""
    _, _, comp, _ = c._h_complement(cert.ambient, cert.h)
    coords = _coordinates_in(comp, cert.e)
    if coords is None:
        return ["e does not lie in the h-complement"]
    out = []
    if gcd(*coords) != 1:
        out.append("e is imprimitive in the h-complement")
    if any(coords):
        m = comp.as_lattice().divisibility(coords)
        if m != cert.m:
            out.append(f"stored m = {cert.m}, recomputed {m}")
    return out


E_CHECKS = ("e does not lie", "e is imprimitive", "stored m = ")


class TestEInAmbientCoordinates:
    """validate_mj reads e in ambient coordinates; the rational solve over
    the complement's basis is the oracle, on tampered values of e."""

    @pytest.mark.parametrize("ambient,h", [
        (U3, H),
        (dsum(U.rescale(2), U.rescale(2), U.rescale(2)), H),  # m = 2
        (diag(1, 1, 1, -1, -1, -1), (1, 0, 0, 0, 0, 0)),
    ])
    def test_tampered_e_matches_the_coordinate_route(self, ambient, h):
        cert = replace(c.mj_family(ambient, h, 1, 1), entries=())
        _, _, comp, _ = c._h_complement(ambient, h)
        rng = random.Random(11)
        r = ambient.rank
        es = [cert.e, (0,) * r]
        es += [tuple(k * x for x in cert.e) for k in (-1, 2, 3, -6)]
        es += [tuple(x + (i == j) for j, x in enumerate(cert.e)) for i in range(r)]
        for _ in range(40):
            es.append(tuple(rng.randint(-4, 4) for _ in range(r)))
            coeffs = [rng.randint(-3, 3) for _ in comp.basis]
            es.append(tuple(sum(k * row[j] for k, row in zip(coeffs, comp.basis))
                            for j in range(r)))
        seen = set()
        for e in es:
            bad = replace(cert, e=e)
            got = [f for f in c.validate_mj(bad) if f.startswith(E_CHECKS)]
            want = _e_failures_by_coordinates(bad)
            assert got == want, e
            seen.update(p for p in E_CHECKS for line in want if line.startswith(p))
        # off the complement, imprimitive, and a wrong divisibility all occur
        assert seen == set(E_CHECKS)


class TestValidateMjMalformed:
    """Tampered data is reported as failures, not raised."""

    @pytest.fixture(scope="class")
    def cert(self):
        return c.mj_family(U3, H, 2, 1)

    def test_dependent_basis_rows(self, cert):
        e = cert.entries[0]
        bad = replace(cert, entries=(replace(e, basis=(H, tuple(2 * x for x in H))),))
        failures = c.validate_mj(bad)
        assert any("bad basis" in f for f in failures)

    def test_short_f_tilde(self, cert):
        failures = c.validate_mj(replace(cert, f_tilde=cert.f_tilde[:-1]))
        assert failures == ["e and f~ must have 6 coordinates"]

    def test_short_entry_vectors(self, cert):
        e = cert.entries[0]
        for bad_entry in (replace(e, v=e.v[:-1]), replace(e, u=e.u[:-1])):
            failures = c.validate_mj(replace(cert, entries=(bad_entry,)))
            assert failures == ["entry 0: u and v must have 6 coordinates"]

    def test_nonpositive_m_and_m_factor(self, cert):
        assert c.validate_mj(replace(cert, m=0)) == ["m = 0 is not positive"]
        e = cert.entries[0]
        failures = c.validate_mj(replace(cert, entries=(replace(e, m_factor=0),)))
        assert failures == ["entry 0: m_factor = 0 is not positive"]


class TestBuildersValidate:
    """Every builder ends in its validator, looked up on the module at call
    time, and turns any reported failure into InternalCheckError."""

    @pytest.mark.parametrize("validator,build", [
        ("validate_avoid_roots", lambda: c.avoid_roots(2, 1)),
        ("validate_pell_family", lambda: c.pell_family(5)),
        ("validate_mj", lambda: c.mj_family(U3, H, 1, 1)),
    ])
    def test_failure_is_internal_check_error(self, monkeypatch, validator, build):
        seen = []
        monkeypatch.setattr(c, validator, lambda cert: seen.append(cert) or ["boom"])
        with pytest.raises(InternalCheckError,
                           match="freshly built certificate failed validation: boom"):
            build()
        assert len(seen) == 1


class TestNvComplements:
    def test_example_u(self):
        entries = c.nv_complements(U, 2, 3)
        assert len(entries) == 1
        assert entries[0].h == (1, 1)
        assert entries[0].gram == ((-2,),)

    def test_example_diag(self):
        entries = c.nv_complements(diag(1, -8), 1, 1)
        assert entries[0].h == (1, 0)
        assert entries[0].gram == ((-8,),)

    def test_u2_fingerprint_collisions(self):
        u2 = dsum(U, U)
        entries = c.nv_complements(u2, 2, 2)
        assert len(entries) > 1
        assert all(e.fingerprint_class == 0 for e in entries)
        for e in entries:
            for row in e.basis:
                assert u2.evaluate(row, e.h) == 0
        assert c.validate_nv(u2, 2, 2, entries) == []

    def test_rejects_nonpositive_d(self):
        with pytest.raises(InvalidInputError):
            c.nv_complements(U, 0, 2)

    def test_box_past_the_effort_limit_is_refused_up_front(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated a box past the effort limit")

        monkeypatch.setattr(Lattice, "enumerate_norm_vectors", refuse)
        # (2*box+1)**(rank-1) = 1 000 001 at rank 2, 1 002 001 at rank 3
        for lat, box in ((U, 500_000), (dsum(U, diag(-2)), 500)):
            with pytest.raises(EffortLimitExceeded):
                c.nv_complements(lat, 2, box)


@pytest.mark.parametrize("call", [
    lambda: c.mj_family(U3, H, 2.0, 1),
    lambda: c.mj_family(U3, H, 1, 1.0),
    lambda: c.mj_family(U3, H, 1, 1, search_box=2.0),
    lambda: c.mj_family(U3, H, 1, 1, effort_limit=1e6),
    lambda: c.select_pell_a(3.0),
    lambda: c.avoid_roots(2.0, 1),
    lambda: c.avoid_roots(2, 1.0),
    lambda: c.avoid_roots(2, 1, 1e6),
    lambda: c.nv_complements(U, 2.0, 2),
    lambda: c.nv_complements(U, 2, 2.0),
    lambda: c.pell_family("3"),
    lambda: c.pell_family(None),
], ids=["mj_N", "mj_count", "mj_search_box", "mj_effort_limit", "select_pell_a",
        "avoid_roots_n", "avoid_roots_b", "avoid_roots_effort_limit", "nv_d",
        "nv_box", "pell_family_str", "pell_family_none"])
def test_scalars_reject_non_integers(call):
    with pytest.raises(InvalidInputError, match="expected integer entries"):
        call()


class TestSerialization:
    def test_avoid_roots_round_trip(self):
        cert = c.avoid_roots(3, 2)
        obj = serialize.avoid_roots_to_obj(cert)
        text = serialize.dumps(obj)
        back = serialize._from_obj("avoid_roots", json.loads(text))
        assert back == cert
        assert serialize.dumps(serialize.avoid_roots_to_obj(back)) == text
        assert serialize.verify_certificate_obj(json.loads(text)) == []

    def test_pell_round_trip(self):
        cert = c.pell_family(7)
        text = serialize.dumps(serialize.pell_family_to_obj(cert))
        back = serialize._from_obj("pell_family", json.loads(text))
        assert back == cert
        assert serialize.verify_certificate_obj(json.loads(text)) == []

    def test_mj_round_trip_bit_exact(self):
        cert = c.mj_family(U3, H, 2, 2)
        text = serialize.dumps(serialize.mj_to_obj(cert))
        back = serialize._from_obj("mj_family", json.loads(text))
        assert back == cert
        assert isinstance(back.f_tilde[0], Fraction)
        assert serialize.dumps(serialize.mj_to_obj(back)) == text
        assert serialize.verify_certificate_obj(json.loads(text)) == []

    def test_nv_round_trip(self):
        u2 = dsum(U, U)
        entries = c.nv_complements(u2, 2, 2)
        text = serialize.dumps(serialize.nv_to_obj(u2, 2, 2, entries))
        lat, d, box, back = serialize._from_obj("nv_complements", json.loads(text))
        assert (lat, d, box, back) == (u2, 2, 2, entries)
        assert serialize.verify_certificate_obj(json.loads(text)) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(CertificateError):
            serialize.verify_certificate_obj(
                {"format": serialize.FORMAT_TAG, "kind": "nope"})
        with pytest.raises(CertificateError):
            serialize.verify_certificate_obj({"format": "other/9", "kind": "x"})

    def test_lattice_files(self):
        obj = serialize.lattice_to_obj(U3)
        assert serialize.lattice_from_obj(obj) == U3
        with pytest.raises(CertificateError):
            serialize.lattice_from_obj({"gram": [[0.5]]})
        with pytest.raises(CertificateError):
            serialize.lattice_from_obj({"nope": 1})
        with pytest.raises(ToolkitError):
            serialize.lattice_from_obj({"gram": [[0, 1], [1, 1], [0, 0]]})
