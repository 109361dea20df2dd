"""Tampered certificates are reported as invalid, never hang or raise.

The golden certificates are edited one integer field at a time.  Each
edit once made `reflekt verify` loop over a stored integer (a hang), build
a list of that length (MemoryError) or pass a bad value to a helper that
raises; each must now yield {"valid": false, "failures": [...]}.  The CLI
runs in a subprocess with capped memory and wall time, so a regression
fails the test instead of stalling or exhausting the machine.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reflekt import serialize

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BIG = 10**9
P64 = 2**64 - 59  # the largest prime below 2^64


def _golden(name):
    return json.loads((GOLDEN / name).read_text())


def _set(obj, path, value):
    obj = copy.deepcopy(obj)
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


def _limit_resources():
    import resource
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _verify_cli(obj, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "reflekt", "--format", "json", "verify", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_resources)
    return proc.returncode, json.loads(proc.stdout), proc.stderr


MJ = "construct_mj_json.out"
AR = "construct_avoid_roots_json.out"
CLI_CASES = (
    ("mj_N", MJ, ("N",), BIG),
    ("mj_d", MJ, ("d",), BIG),
    ("avoid_prime_1e9", AR, ("primes", 0, 1), BIG),
    ("avoid_prime_p64", AR, ("primes", 2, 1), P64),
    ("avoid_form_b", AR, ("form", 1), BIG),
    ("avoid_n_1e9", AR, ("n",), BIG),
    ("avoid_n_p64", AR, ("n",), P64),
)


@pytest.mark.parametrize("name,golden,path,value", CLI_CASES,
                         ids=[c[0] for c in CLI_CASES])
def test_cli_verify_reports_tampered(name, golden, path, value, tmp_path):
    code, out, err = _verify_cli(_set(_golden(golden), path, value), tmp_path)
    assert (code, out["valid"]) == (1, False), err
    assert out["failures"]
    assert "Traceback" not in err


def test_cli_verify_huge_nv_box_exceeds_the_effort_limit(tmp_path):
    # nv_complements walks (2*box+1)**(rank-1) prefixes: refused up front
    obj = _set(_golden("construct_nv_json.out"), ("box",), BIG)
    code, out, err = _verify_cli(obj, tmp_path)
    assert code == 1, err
    assert out["error"]["type"] == "EffortLimitExceeded"


@pytest.mark.parametrize("d", [0, -1, 1, 4])
def test_pell_wrong_d_is_reported(d):
    obj = _set(_golden("construct_pell_family_json.out"), ("d",), d)
    assert serialize.verify_certificate_obj(obj) == [f"d = {d} is not a^2 - 1"]


@pytest.mark.parametrize("p", [0, -7, 2**64 + 13])
def test_avoid_roots_prime_out_of_range_is_reported(p):
    obj = _set(_golden(AR), ("primes", 1, 1), p)
    failures = serialize.verify_certificate_obj(obj)
    assert f"{p} is not a prime below 2^64" in failures


def test_mj_zero_e_is_reported():
    obj = _set(_golden(MJ), ("e", 5), 0)
    failures = serialize.verify_certificate_obj(obj)
    assert failures[:2] == ["e is imprimitive in the h-complement", "(e~, f~) != 1"]


def test_avoid_roots_prime_two_fails_the_direct_check():
    obj = _set(_golden(AR), ("primes", 0, 1), 2)
    failures = serialize.verify_certificate_obj(obj)
    assert "direct check found x with x^2 = -1 mod 2" in failures
    assert "prime 2 is not greater than b = 2" in failures


def test_avoid_roots_residue_prime_fails_the_direct_check():
    # -1 is a square mod 5 (2^2 = 4): Euler's criterion must report it
    obj = _set(_golden(AR), ("primes", 0, 1), 5)
    failures = serialize.verify_certificate_obj(obj)
    assert "-1 is a quadratic residue mod 5" in failures
    assert "direct check found x with x^2 = -1 mod 5" in failures


DECODE_CASES = (
    ("avoid_form_definite", AR, ("form",), [1, 0, 1]),
    ("avoid_form_degenerate", AR, ("form",), [0, 0, -15134]),
    ("mj_gram_asymmetric", MJ, ("ambient", "gram", 0, 1), 5),
)


@pytest.mark.parametrize("name,golden,path,value", DECODE_CASES,
                         ids=[c[0] for c in DECODE_CASES])
def test_constructor_rejection_is_certificate_error(name, golden, path, value,
                                                    tmp_path):
    # the BinaryForm and Lattice constructors reject these while decoding
    code, out, err = _verify_cli(_set(_golden(golden), path, value), tmp_path)
    assert code == 1, err
    assert out["error"]["type"] == "CertificateError"
    assert out["error"]["message"].startswith(f"malformed {_golden(golden)['kind']}")


@pytest.mark.parametrize("golden,path", [(MJ, ("N",)), (AR, ("n",))])
def test_brute_force_hits_are_one_line(golden, path):
    # at N = 10^9 every negative value in the 101x101 box is a hit
    failures = serialize.verify_certificate_obj(_set(_golden(golden), path, BIG))
    brute = [f for f in failures if "brute force" in f]
    assert len(brute) == 1, brute[:3]
    assert len(failures) <= 5
    assert "the smallest k = " in brute[0]
