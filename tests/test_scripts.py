"""Smoke runs of the example scripts, which use the public API end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(*argv):
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reflectivity_scan():
    out = _run(SCRIPTS / "reflectivity_scan.py", "--d-max", "30", "--grid", "4")
    assert out.startswith("== diagonal family x^2 - D y^2, D = 2..30\n")
    assert "D=   8  mu=   -4  root norms: " in out
    assert out.endswith("== 0 non-reflective lattices found\n")


def test_mj_demo_certificates_reverify(tmp_path):
    out = _run(SCRIPTS / "mj_demo.py", "--out", tmp_path)
    written = sorted(tmp_path.glob("*.json"))
    assert [p.stem for p in written] == ["rank8_pell", "u3_deg4", "u3_pell", "u3_primes"]
    for path in written:
        assert f"  {path}: OK\n" in out


def test_count_lines(tmp_path):
    rows = [line.split() for line in _run(SCRIPTS / "count_lines.py").splitlines()]
    names = [name for _, name in rows]
    assert names[-1] == "total" and {"binary.py", "__init__.py"} <= set(names)
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])
    # docstrings, comments and blank lines are left out; a statement that
    # spans lines counts each of them
    (tmp_path / "m.py").write_text(
        '"""Module doc."""\n# comment\n\n'
        'def f():\n    """Doc\n    string."""\n'
        '    x = (1,\n         2)  # trailing\n    return x\n')
    assert _run(SCRIPTS / "count_lines.py", tmp_path) == (
        "     4  m.py\n     4  total\n")
