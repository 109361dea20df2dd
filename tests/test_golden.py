"""Byte-for-byte replay of a golden corpus of CLI invocations.

Each case runs `reflekt <argv>` in-process with tests/golden/ as the
working directory and compares stdout with tests/golden/<name>.out and the
exit code with the one recorded here.  The json-format outputs of the
construct commands are themselves certificates, and the verify cases read
them back.  After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import os
import sys
from pathlib import Path

import pytest

from reflekt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

J = ("--format", "json")

# (name, exit code, argv)
CASES = (
    ("lattice_info_u_json", 0, J + ("lattice", "info", "inputs/u.json")),
    ("lattice_info_u3_text", 0, ("lattice", "info", "inputs/u3.json")),
    ("lattice_complement_json", 0,
     J + ("lattice", "complement", "inputs/u3.json", "--sub", "1,1,0,0,0,0")),
    ("lattice_saturate_json", 0,
     J + ("lattice", "saturate", "inputs/u.json", "--sub", "2,2")),
    ("lattice_index_text", 0,
     ("lattice", "index", "inputs/u.json", "--sub", "2,0", "--sub", "0,1",
      "--sup", "1,0", "--sup", "0,1")),
    ("lattice_norm_vectors_json", 0,
     J + ("lattice", "norm-vectors", "inputs/d8.json", "-n", "-4", "--box", "3")),
    ("lattice_norm_vectors_text", 0,
     ("lattice", "norm-vectors", "inputs/u3.json", "-n", "0", "--box", "1")),
    ("binary_represents_json", 0, J + ("binary", "represents", "-D", "7", "-n", "-3")),
    ("binary_represents_form_text", 0,
     ("binary", "represents", "-f", "3,8,-7", "-n", "-4")),
    ("binary_mu_json", 0, J + ("binary", "mu", "-D", "8")),
    ("binary_mu_161_text", 0, ("binary", "mu", "-D", "161")),
    ("binary_mu_square_json", 1, J + ("binary", "mu", "-D", "9")),
    ("binary_cf_json", 0, J + ("binary", "cf", "-D", "7")),
    ("binary_cf_text", 0, ("binary", "cf", "-D", "61")),
    ("binary_pell_json", 0, J + ("binary", "pell", "-D", "61")),
    ("binary_roots_json", 0, J + ("binary", "roots", "-D", "8")),
    ("binary_roots_none_text", 0, ("binary", "roots", "-f", "3,8,-7")),
    ("binary_isometry_json", 0, J + ("binary", "isometry", "-D", "8")),
    ("binary_isometry_text", 0, ("binary", "isometry", "-D", "13")),
    ("roots_check_json", 0, J + ("roots", "check", "inputs/d8.json", "-v", "0,1")),
    ("roots_check_text", 0, ("roots", "check", "inputs/d8.json", "-v", "1,1")),
    ("roots_find_json", 0, J + ("roots", "find", "inputs/d8.json", "--box", "3")),
    ("roots_find_rank3_json", 0, J + ("roots", "find", "inputs/u_m2.json", "--box", "2")),
    ("roots_reflectivity_json", 0, J + ("roots", "reflectivity", "inputs/d8.json")),
    ("roots_reflectivity_nonrefl_json", 0,
     J + ("roots", "reflectivity", "inputs/nonrefl.json")),
    ("roots_reflectivity_rank3_text", 0,
     ("roots", "reflectivity", "inputs/u_m2.json", "--budget", "2")),
    ("construct_avoid_roots_json", 0, J + ("construct", "avoid-roots", "-n", "3", "-b", "2")),
    ("construct_avoid_roots_text", 0, ("construct", "avoid-roots", "-n", "2", "-b", "1")),
    ("construct_avoid_roots_n40_json", 0,
     J + ("construct", "avoid-roots", "-n", "40", "-b", "1")),
    ("construct_pell_family_json", 0, J + ("construct", "pell-family", "-a", "7")),
    ("construct_pell_family_text", 0, ("construct", "pell-family", "-a", "5")),
    ("construct_mj_json", 0,
     J + ("construct", "mj", "--lattice", "inputs/u3.json", "--h", "1,1,0,0,0,0",
          "--N", "2", "--count", "1")),
    ("construct_mj_primes_text", 0,
     ("construct", "mj", "--lattice", "inputs/u3.json", "--h", "1,1,0,0,0,0",
      "--N", "1", "--count", "1", "--strategy", "primes")),
    ("construct_mj_odd6_json", 0,
     J + ("construct", "mj", "--lattice", "inputs/odd6.json", "--h", "1,0,0,0,0,0",
          "--N", "2", "--count", "2")),
    ("construct_nv_json", 0,
     J + ("construct", "nv-complements", "--lattice", "inputs/u.json", "-d", "2",
          "--box", "3")),
    ("construct_nv_text", 0,
     ("construct", "nv-complements", "--lattice", "inputs/d8.json", "-d", "1",
      "--box", "3")),
    ("verify_avoid_roots_json", 0, J + ("verify", "construct_avoid_roots_json.out")),
    ("verify_avoid_roots_n40_json", 0,
     J + ("verify", "construct_avoid_roots_n40_json.out")),
    ("verify_pell_family_text", 0, ("verify", "construct_pell_family_json.out")),
    ("verify_mj_json", 0, J + ("verify", "construct_mj_json.out")),
    ("verify_mj_odd6_json", 0, J + ("verify", "construct_mj_odd6_json.out")),
    ("verify_nv_json", 0, J + ("verify", "construct_nv_json.out")),
    ("verify_tampered_json", 1, J + ("verify", "inputs/pell_tampered.json")),
    ("verify_tampered_text", 1, ("verify", "inputs/pell_tampered.json")),
    ("verify_unknown_kind_json", 1, J + ("verify", "inputs/unknown_kind.json")),
)


def _run(argv, capsys):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_replay(name, code, argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    got_code, out = _run(argv, capsys)
    assert got_code == code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def _capture():
    import contextlib
    import io

    os.chdir(GOLDEN)
    for name, code, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = main(list(argv))
        if got != code:
            raise SystemExit(f"{name}: exit {got}, expected {code}")
        Path(f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
        print(f"{name}: exit {got}, {len(buf.getvalue())} bytes", file=sys.stderr)


if __name__ == "__main__":
    _capture()
