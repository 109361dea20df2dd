"""Command-line front end.

Exit codes: 0 success, 1 domain error (one-line JSON error object in json
mode), 2 usage error.  JSON output is deterministic: sorted keys, fixed
indentation, never any floating point.

A JSON payload holds the library's own values: `serialize.dumps` prints
their tuples as arrays, so no handler copies them.  A reflectivity verdict
prints its status and the evidence fields that are not empty or None.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import binary, construct, roots, serialize
from .arith import DEFAULT_EFFORT_LIMIT
from .construct import DEFAULT_SEARCH_BOX
from .errors import ToolkitError
from .lattice import Sublattice


def _parse_vector(s: str):
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {s!r}")


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(serialize.dumps(payload))
    else:
        print(text)


def _rows_text(rows) -> str:
    return "\n".join(",".join(str(x) for x in r) for r in rows)


def _form_from_args(args) -> binary.BinaryForm:
    if args.d is not None:
        return binary.BinaryForm.from_d(args.d)
    return binary.BinaryForm(*args.form)


def _parse_form(s: str):
    parts = s.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected a,b,c with three integers, got {s!r}")
    return tuple(int(x) for x in parts)


# -- subcommand handlers ------------------------------------------------------

def _cmd_lattice_info(args):
    lat = serialize.load_lattice(args.file)
    disc = lat.discriminant()
    sig = lat.signature()
    payload = {
        "signature": sig,
        "det": lat.determinant(),
        "disc_factors": disc.invariant_factors,
        "exponent": disc.exponent,
        "unscaled": lat.is_unscaled(),
    }
    text = "\n".join([
        f"rank: {lat.rank}",
        f"signature: ({sig[0]}, {sig[1]})",
        f"det: {payload['det']}",
        f"discriminant factors: {list(disc.invariant_factors)}",
        f"exponent: {disc.exponent}",
        f"unscaled: {str(payload['unscaled']).lower()}",
    ])
    _emit(args, payload, text)


def _cmd_lattice_complement(args):
    lat = serialize.load_lattice(args.file)
    sub = Sublattice(lat, tuple(args.sub))
    comp = sub.orthogonal_complement()
    payload = {"basis": comp.basis, "gram": comp.gram_matrix()}
    _emit(args, payload, _rows_text(comp.basis))


def _cmd_lattice_saturate(args):
    lat = serialize.load_lattice(args.file)
    sub = Sublattice(lat, tuple(args.sub))
    sat = sub.saturate()
    payload = {"basis": sat.basis, "index": sub.index_in(sat)}
    _emit(args, payload, _rows_text(sat.basis))


def _cmd_lattice_index(args):
    lat = serialize.load_lattice(args.file)
    sub = Sublattice(lat, tuple(args.sub))
    sup = Sublattice(lat, tuple(args.sup))
    idx = sub.index_in(sup)
    _emit(args, {"index": idx}, str(idx))


def _cmd_lattice_norm_vectors(args):
    lat = serialize.load_lattice(args.file)
    vs = lat.enumerate_norm_vectors(args.n, args.box)
    _emit(args, {"vectors": vs}, _rows_text(vs))


def _cmd_binary_represents(args):
    f = _form_from_args(args)
    ans = binary.represents(f, args.n)
    _emit(args, {"represents": ans}, str(ans).lower())


def _cmd_binary_mu(args):
    f = _form_from_args(args)
    val = binary.mu(f)
    _emit(args, {"mu": val}, str(val))


def _cmd_binary_cf(args):
    cf = binary.cf_sqrt(args.d)
    text = f"sqrt({cf.d}) = [{cf.a0}; {', '.join(str(a) for a in cf.period)}]"
    _emit(args, vars(cf), text)


def _cmd_binary_pell(args):
    s = binary.pell_fundamental(args.d)
    _emit(args, vars(s), f"{s.x},{s.y}")


def _cmd_binary_roots(args):
    f = _form_from_args(args)
    rts = binary.binary_roots(f)
    payload = {"roots": [{"norm": m, "vector": v} for m, v in rts]}
    text = "\n".join(f"{m}: {v[0]},{v[1]}" for m, v in rts) or "(none)"
    _emit(args, payload, text)


def _cmd_binary_isometry(args):
    m = binary.fundamental_automorph(binary.BinaryForm.from_d(args.d))
    _emit(args, {"matrix": m}, _rows_text(m))


def _cmd_roots_check(args):
    lat = serialize.load_lattice(args.file)
    ans = roots.is_root(lat, args.vector)
    _emit(args, {"is_root": ans}, str(ans).lower())


def _cmd_roots_find(args):
    lat = serialize.load_lattice(args.file)
    found = roots.find_roots_in_box(lat, args.box)
    payload = {"roots": [{"vector": v, "norm": lat.norm(v)} for v in found]}
    _emit(args, payload, _rows_text(found) or "(none)")


def _cmd_roots_reflectivity(args):
    lat = serialize.load_lattice(args.file)
    verdict = roots.reflectivity_indicator(lat, budget=args.budget)
    evidence = {k: v for k, v in vars(verdict.evidence).items() if v not in ((), None)}
    _emit(args, {"status": verdict.status, "evidence": evidence}, verdict.status)


def _cmd_construct_avoid_roots(args):
    cert = construct.avoid_roots(args.n, args.b, effort_limit=args.effort_limit)
    payload = serialize.avoid_roots_to_obj(cert)
    primes = ", ".join(f"p_{k}={p}" for k, p in cert.primes)
    _emit(args, payload, f"a = {cert.a} ({primes}); form x^2 - {cert.a * cert.b} y^2")


def _cmd_construct_pell_family(args):
    cert = construct.pell_family(args.a)
    payload = serialize.pell_family_to_obj(cert)
    _emit(args, payload,
          f"d = {cert.d}, mu = {cert.mu}, witness = {cert.witness[0]},{cert.witness[1]}")


def _cmd_construct_mj(args):
    lat = serialize.load_lattice(args.lattice)
    cert = construct.mj_family(lat, args.h, args.N, args.count,
                               strategy=args.strategy,
                               search_box=args.box,
                               effort_limit=args.effort_limit)
    payload = serialize.mj_to_obj(cert)
    lines = [f"T = {cert.t_index}, threshold = {cert.threshold}, m = {cert.m}"]
    for en in cert.entries:
        lines.append(f"a = {en.a}: q(v) = {cert.ambient.norm(en.v)}, "
                     f"mu = {en.mu}, index = {en.index}")
    _emit(args, payload, "\n".join(lines))


def _cmd_construct_nv(args):
    lat = serialize.load_lattice(args.lattice)
    entries = construct.nv_complements(lat, args.d, args.box)
    payload = serialize.nv_to_obj(lat, args.d, args.box, entries)
    lines = []
    for en in entries:
        lines.append(f"h = {','.join(str(x) for x in en.h)}: "
                     f"class {en.fingerprint_class}, det {en.fingerprint[1]}")
    _emit(args, payload, "\n".join(lines) or "(none)")


def _cmd_verify(args):
    failures = serialize.verify_certificate_obj(serialize.load_json(args.certificate))
    if failures:
        _emit(args, {"valid": False, "failures": failures},
              "FAIL\n" + "\n".join(failures))
        return 1
    _emit(args, {"valid": True}, "OK")
    return 0


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflekt",
        description="Exact-arithmetic toolkit for integral quadratic lattices",
        allow_abbrev=False)
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--effort-limit", dest="effort_limit", type=int,
                        default=DEFAULT_EFFORT_LIMIT,
                        help="candidate cap for prime searches (explicit, "
                             "never silent)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # leaf default from clobbering a value given at the top level
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"),
                     default=argparse.SUPPRESS)
    fmt.add_argument("--effort-limit", dest="effort_limit", type=int,
                     default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="lattice invariants and sublattices")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)

    p = lat_sub.add_parser("info", help="signature, determinant, discriminant data", parents=[fmt])
    p.add_argument("file")
    p.set_defaults(func=_cmd_lattice_info)

    p = lat_sub.add_parser("complement", help="orthogonal complement of a sublattice", parents=[fmt])
    p.add_argument("file")
    p.add_argument("--sub", type=_parse_vector, action="append", required=True,
                   metavar="V", help="basis row, repeatable")
    p.set_defaults(func=_cmd_lattice_complement)

    p = lat_sub.add_parser("saturate", help="primitive closure of a sublattice", parents=[fmt])
    p.add_argument("file")
    p.add_argument("--sub", type=_parse_vector, action="append", required=True,
                   metavar="V")
    p.set_defaults(func=_cmd_lattice_saturate)

    p = lat_sub.add_parser("index", help="index of one sublattice in another", parents=[fmt])
    p.add_argument("file")
    p.add_argument("--sub", type=_parse_vector, action="append", required=True,
                   metavar="V")
    p.add_argument("--sup", type=_parse_vector, action="append", required=True,
                   metavar="V", help="basis row of the containing sublattice")
    p.set_defaults(func=_cmd_lattice_index)

    p = lat_sub.add_parser("norm-vectors", help="primitive vectors of a given norm", parents=[fmt])
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--box", type=int, default=DEFAULT_SEARCH_BOX)
    p.set_defaults(func=_cmd_lattice_norm_vectors)

    bin_p = sub.add_parser("binary", help="indefinite binary forms", parents=[fmt])
    bin_sub = bin_p.add_subparsers(dest="subcommand", required=True)

    def add_form_args(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("-D", dest="d", type=int,
                         help="shorthand for the form x^2 - D y^2")
        grp.add_argument("-f", dest="form", type=_parse_form, metavar="a,b,c")

    p = bin_sub.add_parser("represents", help="complete representation decision", parents=[fmt])
    add_form_args(p)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_binary_represents)

    p = bin_sub.add_parser("mu", help="largest negative represented integer", parents=[fmt])
    add_form_args(p)
    p.set_defaults(func=_cmd_binary_mu)

    p = bin_sub.add_parser("cf", help="continued fraction of sqrt(D)", parents=[fmt])
    p.add_argument("-D", dest="d", type=int, required=True)
    p.set_defaults(func=_cmd_binary_cf)

    p = bin_sub.add_parser("pell", help="fundamental solution of x^2 - D y^2 = 1", parents=[fmt])
    p.add_argument("-D", dest="d", type=int, required=True)
    p.set_defaults(func=_cmd_binary_pell)

    p = bin_sub.add_parser("roots", help="achievable negative root norms with witnesses", parents=[fmt])
    add_form_args(p)
    p.set_defaults(func=_cmd_binary_roots)

    p = bin_sub.add_parser("isometry", help="infinite-order isometry of diag(1,-D)",
                           parents=[fmt])
    p.add_argument("-D", dest="d", type=int, required=True)
    p.set_defaults(func=_cmd_binary_isometry)

    rt = sub.add_parser("roots", help="roots and reflectivity of lattices")
    rt_sub = rt.add_subparsers(dest="subcommand", required=True)

    p = rt_sub.add_parser("check", help="test the root condition for a vector", parents=[fmt])
    p.add_argument("file")
    p.add_argument("-v", dest="vector", type=_parse_vector, required=True)
    p.set_defaults(func=_cmd_roots_check)

    p = rt_sub.add_parser("find", help="roots within a coordinate box", parents=[fmt])
    p.add_argument("file")
    p.add_argument("--box", type=int, default=DEFAULT_SEARCH_BOX)
    p.set_defaults(func=_cmd_roots_find)

    p = rt_sub.add_parser("reflectivity", help="reflectivity verdict with evidence", parents=[fmt])
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BOX)
    p.set_defaults(func=_cmd_roots_reflectivity)

    con = sub.add_parser("construct", help="certificate-producing constructions")
    con_sub = con.add_subparsers(dest="subcommand", required=True)

    p = con_sub.add_parser("avoid-roots",
                           help="form missing 0..-n via nonresidue primes", parents=[fmt])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.set_defaults(func=_cmd_construct_avoid_roots)

    p = con_sub.add_parser("pell-family", help="the discriminant a^2-1 family", parents=[fmt])
    p.add_argument("-a", type=int, required=True)
    p.set_defaults(func=_cmd_construct_pell_family)

    p = con_sub.add_parser("mj", help="binary sublattices through a polarization", parents=[fmt])
    p.add_argument("--lattice", required=True)
    p.add_argument("--h", dest="h", type=_parse_vector, required=True)
    p.add_argument("--N", dest="N", type=int, required=True,
                   help="square bound for the classes to avoid (no default)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--strategy", choices=("pell", "primes"), default="pell")
    p.add_argument("--box", type=int, default=DEFAULT_SEARCH_BOX)
    p.set_defaults(func=_cmd_construct_mj)

    p = con_sub.add_parser("nv-complements",
                           help="complements of norm-d vectors with fingerprints", parents=[fmt])
    p.add_argument("--lattice", required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--box", type=int, default=DEFAULT_SEARCH_BOX)
    p.set_defaults(func=_cmd_construct_nv)

    p = sub.add_parser("verify", help="re-run all invariant checks on a certificate", parents=[fmt])
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # answers are exact integers of any length (a Pell unit can have
    # thousands of digits): lift the interpreter's decimal digit limit
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
    except (ToolkitError, OSError) as exc:
        if args.format == "json":
            kind = "OSError" if isinstance(exc, OSError) else type(exc).__name__
            print(json.dumps({"error": {"type": kind, "message": str(exc)}},
                             sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digit_limit)
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
