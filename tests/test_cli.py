import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ITEM2_GRAM
from reflekt.binary import BinaryForm, representation_witness
from reflekt.cli import main
from reflekt.errors import CertificateError
from reflekt.serialize import dumps, lattice_to_obj, load_lattice
from reflekt.lattice import Lattice

U = Lattice.hyperbolic_plane()
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def u_file(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(dumps(lattice_to_obj(U)))
    return str(path)


@pytest.fixture
def d8_file(tmp_path):
    path = tmp_path / "d8.json"
    path.write_text(dumps(lattice_to_obj(Lattice.diagonal(1, -8))))
    return str(path)


@pytest.fixture
def u3_file(tmp_path):
    u3 = U.direct_sum(U).direct_sum(U)
    path = tmp_path / "u3.json"
    path.write_text(dumps(lattice_to_obj(u3)))
    return str(path)


def cli(*argv):
    """`reflekt <argv>` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "reflekt", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def unlimited(parse, text):
    """parse(text) with the interpreter's decimal digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return parse(text)
    finally:
        sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


class TestLatticeCommands:
    def test_info_u(self, capsys, u_file):
        code, obj = run_json(capsys, "lattice", "info", u_file)
        assert code == 0
        assert obj == {"signature": [1, 1], "det": -1, "disc_factors": [],
                       "exponent": 1, "unscaled": True}

    def test_info_dense_rank6_finishes(self, tmp_path):
        # a Smith form with unreduced transforms ran for minutes on this matrix
        path = tmp_path / "dense6.json"
        path.write_text(dumps(lattice_to_obj(Lattice(ITEM2_GRAM))))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "reflekt", "--format", "json", "lattice", "info",
             str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["disc_factors"] == [67431652404]
        assert obj["exponent"] == abs(obj["det"]) == 67431652404

    def test_complement(self, capsys, u3_file):
        code, obj = run_json(capsys, "lattice", "complement", u3_file,
                             "--sub", "1,1,0,0,0,0")
        assert code == 0
        assert len(obj["basis"]) == 5

    def test_saturate_and_index(self, capsys, u_file):
        code, obj = run_json(capsys, "lattice", "saturate", u_file, "--sub", "2,2")
        assert code == 0
        assert obj == {"basis": [[1, 1]], "index": 2}
        code, obj = run_json(capsys, "lattice", "index", u_file,
                             "--sub", "2,0", "--sub", "0,1",
                             "--sup", "1,0", "--sup", "0,1")
        assert (code, obj) == (0, {"index": 2})

    def test_norm_vectors(self, capsys, d8_file):
        code, obj = run_json(capsys, "lattice", "norm-vectors", d8_file,
                             "-n", "-4", "--box", "3")
        assert code == 0
        assert obj == {"vectors": [[2, -1], [2, 1]]}

    def test_norm_vectors_past_the_effort_limit_are_refused(self, u3_file):
        # 41^5 prefixes exceed the effort limit 10^6; the walk used to run
        # through all of them
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "reflekt", "--format", "json", "lattice",
             "norm-vectors", u3_file, "-n", "-2", "--box", "20"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "EffortLimitExceeded"


class TestBinaryCommands:
    def test_mu_text_and_json(self, capsys):
        code, out = run(capsys, "binary", "mu", "-D", "8")
        assert (code, out.strip()) == (0, "-4")
        code, obj = run_json(capsys, "binary", "mu", "-D", "8")
        assert obj == {"mu": -4}

    def test_represents(self, capsys):
        code, out = run(capsys, "binary", "represents", "-D", "7", "-n", "-3")
        assert (code, out.strip()) == (0, "true")
        code, obj = run_json(capsys, "binary", "represents", "-f", "1,0,-7",
                             "-n", "-1")
        assert obj == {"represents": False}

    def test_cf_pell_isometry(self, capsys):
        code, obj = run_json(capsys, "binary", "cf", "-D", "7")
        assert obj == {"d": 7, "a0": 2, "period": [1, 1, 1, 4],
                       "q_sequence": [3, 2, 3, 1]}
        code, obj = run_json(capsys, "binary", "pell", "-D", "7")
        assert obj == {"d": 7, "x": 8, "y": 3}
        code, obj = run_json(capsys, "binary", "isometry", "-D", "8")
        assert obj == {"matrix": [[3, 8], [1, 3]]}

    def test_roots(self, capsys):
        code, obj = run_json(capsys, "binary", "roots", "-D", "8")
        assert obj == {"roots": [{"norm": -4, "vector": [2, 1]},
                                 {"norm": -8, "vector": [0, 1]}]}

    @pytest.mark.parametrize("n, expected", [(-10**9, "true"), (-10**12, "false")])
    def test_represents_huge_n_finishes(self, n, expected):
        # square roots of D mod 4|n| by a scan of every residue took time
        # linear in |n|; -10^12 is not a value of x^2 - 161 y^2 mod 7
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "reflekt", "binary", "represents", "-D", "161",
             "-n", str(n)], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected
        f = BinaryForm.from_d(161)
        w = representation_witness(f, n)
        if expected == "true":
            assert f.value(*w) == n
        else:
            assert w is None
            assert n % 7 not in {(x * x - 161 * y * y) % 7
                                 for x in range(7) for y in range(7)}

    def test_represents_unfactorable_n_is_refused(self):
        # 2^89 - 1 is prime, but beyond both trial division's budget and
        # is_prime's range; the unbudgeted trial division never finished
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "reflekt", "--format", "json", "binary",
             "represents", "-D", "161", "-n", str(-(2**89 - 1))],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "EffortLimitExceeded"

    @pytest.mark.parametrize("command,fmt", [("pell", "text"), ("pell", "json"),
                                             ("isometry", "text"), ("isometry", "json")])
    def test_answers_past_the_digit_limit_are_printed_exactly(self, command, fmt):
        # the fundamental unit for 10000141 has 4 911 digits, past the
        # interpreter's default limit of 4 300 for int-to-str conversion
        d = 10000141
        proc = cli("--format", fmt, "binary", command, "-D", str(d))
        assert proc.returncode == 0, proc.stderr
        if fmt == "json":
            obj = unlimited(json.loads, proc.stdout)
            x, y = (obj["x"], obj["y"]) if command == "pell" else \
                (obj["matrix"][0][0], obj["matrix"][1][0])
        else:
            rows = [unlimited(lambda r: [int(v) for v in r.split(",")], line)
                    for line in proc.stdout.split()]
            x, y = rows[0] if command == "pell" else (rows[0][0], rows[1][0])
        assert x * x - d * y * y == 1
        assert x > 10**4300

    @pytest.mark.parametrize("command", ["cf", "pell", "isometry", "mu"])
    def test_period_past_the_cycle_cap_is_refused(self, capsys, monkeypatch,
                                                  command):
        # x^2 - 94y^2 reduces to the principal form (1, 18, -13), whose cycle
        # of 16 reduced forms has no lead -1; every command walks half of it
        # (sqrt(94) has a period of 16 terms), so under a cap of 3 each
        # stops with the same budget error
        from reflekt import binary
        d, refusal = 94, "cycle through (1, 18, -13) is longer than 3 forms"
        monkeypatch.setattr(binary, "_CYCLE_CAP", 3)
        code, out = run(capsys, "--format", "json", "binary", command, "-D", str(d))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "EffortLimitExceeded"
        code = main(["binary", command, "-D", str(d)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {refusal}")

    def test_domain_error_is_exit_1_with_json_object(self, capsys):
        code, out = run(capsys, "--format", "json", "binary", "mu", "-D", "9")
        assert code == 1
        assert "\n" not in out.strip()
        err = json.loads(out)
        assert err["error"]["type"] == "IsotropicFormError"

    def test_conflicting_flags_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["binary", "mu", "-D", "8", "-f", "1,0,-8"])
        assert exc.value.code == 2


class TestRootsCommands:
    def test_check_and_find(self, capsys, d8_file):
        code, out = run(capsys, "roots", "check", d8_file, "-v", "2,1")
        assert (code, out.strip()) == (0, "true")
        code, obj = run_json(capsys, "roots", "find", d8_file, "--box", "3")
        assert obj == {"roots": [{"norm": -8, "vector": [0, 1]},
                                 {"norm": -4, "vector": [2, -1]},
                                 {"norm": -4, "vector": [2, 1]}]}

    def test_reflectivity(self, capsys, d8_file):
        code, obj = run_json(capsys, "roots", "reflectivity", d8_file)
        assert code == 0
        assert obj["status"] == "reflective"
        assert obj["evidence"]["roots"]

    @pytest.mark.parametrize("argv", [("reflectivity", "--budget", "10"),
                                      ("find", "--box", "10")])
    def test_rank6_search_past_the_effort_limit_is_refused(self, u3_file, argv):
        # 21^5 prefixes exceed the effort limit 10^6; the box scan used to
        # walk all 21^6 / 2 vectors of the box
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "reflekt", "roots", argv[0], u3_file, *argv[1:],
             "--format", "json"], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "EffortLimitExceeded"


class TestConstructAndVerify:
    def test_avoid_roots_round_trip(self, capsys, tmp_path):
        code, obj = run_json(capsys, "construct", "avoid-roots", "-n", "2", "-b", "1")
        assert code == 0
        assert obj["a"] == 161
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        code, out = run_json(capsys, "verify", str(path))
        assert (code, out) == (0, {"valid": True})

    def test_verify_rejects_tampered(self, capsys, tmp_path):
        code, obj = run_json(capsys, "construct", "pell-family", "-a", "5")
        obj["mu"] = -7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out = run_json(capsys, "verify", str(path))
        assert code == 1
        assert out["valid"] is False and out["failures"]

    def test_mj_and_nv(self, capsys, tmp_path, u3_file, u_file):
        code, obj = run_json(capsys, "construct", "mj", "--lattice", u3_file,
                             "--h", "1,1,0,0,0,0", "--N", "2", "--count", "1")
        assert code == 0
        assert obj["T"] == 2 and obj["entries"][0]["a"] == 6
        path = tmp_path / "mj.json"
        path.write_text(json.dumps(obj))
        code, out = run_json(capsys, "verify", str(path))
        assert (code, out) == (0, {"valid": True})

        code, obj = run_json(capsys, "construct", "nv-complements",
                             "--lattice", u_file, "-d", "2", "--box", "3")
        assert code == 0
        assert obj["entries"][0]["h"] == [1, 1]

    @pytest.mark.parametrize("flags", [("--N", "0"), ("--N", "2", "--box", "0"),
                                       ("--N", "2", "--effort-limit", "0")])
    def test_nonpositive_knobs_are_domain_errors(self, capsys, u3_file, flags):
        code, out = run(capsys, "--format", "json", "construct", "mj",
                        "--lattice", u3_file, "--h", "1,1,0,0,0,0",
                        "--count", "1", *flags)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidInputError"

    def test_avoid_roots_rejects_zero_effort_limit(self, capsys):
        code, out = run(capsys, "--format", "json", "--effort-limit", "0",
                        "construct", "avoid-roots", "-n", "2", "-b", "1")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidInputError"

    def test_isometry_of_square_d_is_isotropic_error(self, capsys):
        code, out = run(capsys, "--format", "json", "binary", "isometry", "-D", "9")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "IsotropicFormError"

    def test_verify_rejects_non_integer_field(self, capsys, tmp_path):
        code, obj = run_json(capsys, "construct", "pell-family", "-a", "5")
        obj["a"] = "x"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, "--format", "json", "verify", str(path))
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "CertificateError"

    def test_mj_without_partner_fails_fast(self, tmp_path):
        # every vector orthogonal to e~ has even norm, so no isotropic partner
        # exists; the search once walked coefficient boxes 1..10 for minutes
        path = tmp_path / "odd.json"
        path.write_text(dumps(lattice_to_obj(Lattice.diagonal(1, 1, 1, -1, -1, -2))))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "reflekt", "--format", "json", "construct", "mj",
             "--lattice", str(path), "--h", "1,-1,-1,0,0,-1", "--N", "1",
             "--count", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error == {"type": "ConstructionError", "message":
                         "no isotropic partner: no vector orthogonal to e~ has odd norm"}

    def test_missing_n_is_usage_error(self, u3_file):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "mj", "--lattice", u3_file,
                  "--h", "1,1,0,0,0,0", "--count", "1"])
        assert exc.value.code == 2


class TestOutputContracts:
    def test_byte_identical_runs(self, capsys, u3_file):
        argv = ["--format", "json", "construct", "mj", "--lattice", u3_file,
                "--h", "1,1,0,0,0,0", "--N", "2", "--count", "2"]
        code1, out1 = main(argv), capsys.readouterr().out
        code2, out2 = main(argv), capsys.readouterr().out
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_no_floats_anywhere(self, capsys, u3_file, d8_file):
        def walk(x):
            if isinstance(x, float):
                raise AssertionError("float leaked into output")
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            if isinstance(x, list):
                for v in x:
                    walk(v)

        for argv in (["--format", "json", "lattice", "info", d8_file],
                     ["--format", "json", "binary", "cf", "-D", "8"],
                     ["--format", "json", "construct", "mj", "--lattice",
                      u3_file, "--h", "1,1,0,0,0,0", "--N", "1",
                      "--count", "1"]):
            assert main(argv) == 0
            walk(json.loads(capsys.readouterr().out))

    def test_nonexistent_file_is_domain_error(self, capsys):
        code, out = run(capsys, "--format", "json", "lattice", "info", "/nope.json")
        assert code == 1
        # a FileNotFoundError is reported under its base name
        assert json.loads(out)["error"]["type"] == "OSError"

    def test_malformed_lattice_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"gram": [[0, 1], [1, 0], [2, 2]]}')
        code, out = run(capsys, "--format", "json", "lattice", "info", str(path))
        assert code == 1
        path.write_text('{"gram": [[1, 1], [1, 1]]}')
        code, out = run(capsys, "--format", "json", "lattice", "info", str(path))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DegenerateLatticeError"


class TestUnreadableInput:
    """Input that does not parse is a CertificateError, never a traceback."""

    @pytest.mark.parametrize("command", [("lattice", "info"), ("verify",)])
    def test_non_utf8_file(self, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"gram": [[1]]}\xff')
        text = cli(*command, str(path))
        assert text.returncode == 1
        assert text.stderr.startswith(f"error: {path} is not valid JSON: ")
        assert len(text.stderr.splitlines()) == 1
        proc = cli("--format", "json", *command, str(path))
        assert proc.returncode == 1, proc.stderr
        assert len(proc.stdout.splitlines()) == 1
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "CertificateError"
        assert err["message"].startswith(f"{path} is not valid JSON: ")

    @pytest.mark.parametrize("command", [("lattice", "info"), ("verify",)])
    def test_overlong_integer(self, tmp_path, command):
        # past 4 300 digits decimal parsing slows quadratically: refused
        path = tmp_path / "big.json"
        path.write_text('{"gram": [[' + "7" * 5000 + ", 0], [0, -1]]}")
        proc = cli("--format", "json", *command, str(path))
        assert proc.returncode == 1, proc.stderr
        err = json.loads(proc.stdout)["error"]
        assert err == {"type": "CertificateError", "message":
                       f"{path} is not valid JSON: an integer has more than 4300 digits"}
        with pytest.raises(CertificateError, match="more than 4300 digits"):
            load_lattice(str(path))
        path.write_text('{"gram": [[' + "7" * 4300 + ", 0], [0, -1]]}")
        proc = cli("--format", "json", *command, str(path))
        assert proc.returncode == (0 if command == ("lattice", "info") else 1)
        assert "Traceback" not in proc.stderr
