import itertools
import json
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from conftest import U, brute_values, diag, dsum, isotropic_partner_oracle
from reflekt import binary, serialize
from reflekt import construct as c
from reflekt.arith import is_prime, jacobi
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

    def test_exclusion_grows_a(self):
        c1 = c.avoid_roots(2, 1)
        c2 = c.avoid_roots(2, 1, exclude=frozenset(p for _, p in c1.primes))
        assert c2.a > c1.a

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            c.avoid_roots(0, 1)
        with pytest.raises(InvalidInputError):
            c.avoid_roots(1, 0)


class TestBruteForceCheck:
    def test_half_box_matches_the_full_box_scan(self):
        import random
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

    def test_primes_strategy(self):
        cert = c.mj_family(U3, H, 1, 1, strategy=c.STRATEGY_PRIMES)
        entry = cert.entries[0]
        # threshold = N*T^2 = 4: primes for k=1..4, each = 7 mod 8
        assert cert.threshold == 4
        assert entry.a > 1
        assert entry.mu < -cert.d
        assert c.validate_mj(cert) == []

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


def _partner_outcome(find, name, h):
    """find's f~ for the isotropic e that mj_family picks, or its error type."""
    lat = PARTNER_AMBIENTS[name]
    _, _, comp, _ = c._h_complement(lat, h)
    e, coeffs = c._find_isotropic(comp, c.DEFAULT_SEARCH_BOX)
    m = comp.as_lattice().divisibility(coeffs)
    try:
        return find(lat.gram, comp, e, m)
    except ToolkitError as exc:
        return type(exc)


class TestIsotropicPartner:
    """The integer-coordinate search against the Fraction box search it
    replaced (box <= 2): by the parity argument a partner exists iff box 1
    finds one, so both give the same f~ or both raise the same error."""

    @pytest.mark.parametrize("name,h", _partner_cases())
    def test_matches_box_search(self, name, h):
        got = _partner_outcome(c._isotropic_partner, name, h)
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
        outcomes = [_partner_outcome(c._isotropic_partner, *case)
                    for case in _partner_cases()]
        assert 0 < outcomes.count(ConstructionError) < len(shifts) < len(outcomes)


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


class TestRescalingFamily:
    def test_examples(self):
        fam = c.rescaling_family(U, 2)
        assert fam == (U, U.rescale(2))
        assert c.rescaling_family(diag(1, -8), 1) == (diag(1, -8),)
        fam = c.rescaling_family(diag(1, -2), 4)
        for k, lat in enumerate(fam, start=1):
            assert lat.gram == tuple(tuple(k * x for x in row)
                                     for row in diag(1, -2).gram)


class TestSerialization:
    def test_avoid_roots_round_trip(self):
        cert = c.avoid_roots(3, 2)
        obj = serialize.avoid_roots_to_obj(cert)
        text = serialize.dumps(obj)
        back = serialize.avoid_roots_from_obj(json.loads(text))
        assert back == cert
        assert serialize.dumps(serialize.avoid_roots_to_obj(back)) == text
        assert serialize.verify_certificate_obj(json.loads(text)) == []

    def test_pell_round_trip(self):
        cert = c.pell_family(7)
        text = serialize.dumps(serialize.pell_family_to_obj(cert))
        back = serialize.pell_family_from_obj(json.loads(text))
        assert back == cert
        assert serialize.verify_certificate_obj(json.loads(text)) == []

    def test_mj_round_trip_bit_exact(self):
        cert = c.mj_family(U3, H, 2, 2)
        text = serialize.dumps(serialize.mj_to_obj(cert))
        back = serialize.mj_from_obj(json.loads(text))
        assert back == cert
        assert isinstance(back.f_tilde[0], Fraction)
        assert serialize.dumps(serialize.mj_to_obj(back)) == text
        assert serialize.verify_certificate_obj(json.loads(text)) == []

    def test_nv_round_trip(self):
        u2 = dsum(U, U)
        entries = c.nv_complements(u2, 2, 2)
        text = serialize.dumps(serialize.nv_to_obj(u2, 2, 2, entries))
        lat, d, box, back = serialize.nv_from_obj(json.loads(text))
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
