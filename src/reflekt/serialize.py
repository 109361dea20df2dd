"""Stable JSON formats for lattices, vectors, and certificates.

All numbers are integers or exact rationals rendered as strings like
"3/2"; nothing is ever a float.  Serialization is deterministic (sorted
keys, fixed indentation) so identical objects produce identical bytes.

Each certificate kind is one table mapping JSON keys to attributes and
codecs.  The same table drives encoding and decoding, and decoding rejects
every value of the wrong JSON type (a float or a boolean is never read as
an integer) with CertificateError.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import binary, construct
from .errors import CertificateError, DegenerateLatticeError, InvalidInputError
from .lattice import Lattice

FORMAT_TAG = "reflekt/1"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# -- codecs -------------------------------------------------------------------

class _Codec(NamedTuple):
    """One value to its JSON form and back; decode raises CertificateError."""

    encode: Callable
    decode: Callable


def _integer(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise CertificateError(f"expected an integer, got {x!r}")
    return x


def frac_to_str(x: Fraction) -> str:
    return str(Fraction(x))


def frac_from_str(s) -> Fraction:
    if not isinstance(s, str):
        raise CertificateError(f'expected a rational string like "3/2", got {s!r}')
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateError(f"bad rational value {s!r}: {exc}") from None


def _vector(item: _Codec, length: int | None = None) -> _Codec:
    def decode(obj):
        if not isinstance(obj, list) or length not in (None, len(obj)):
            size = "" if length is None else f" of length {length}"
            raise CertificateError(f"expected a list{size}, got {obj!r}")
        return tuple(item.decode(x) for x in obj)

    return _Codec(lambda v: [item.encode(x) for x in v], decode)


def _choice(*options: str) -> _Codec:
    def decode(x):
        if not isinstance(x, str) or x not in options:
            raise CertificateError(f"expected one of {list(options)}, got {x!r}")
        return x

    return _Codec(lambda x: x, decode)


_INT = _Codec(lambda x: x, _integer)
_INT_VEC = _vector(_INT)
_INT_MAT = _vector(_INT_VEC)
_FRAC_VEC = _vector(_Codec(frac_to_str, frac_from_str))
_INT_TRIPLE = _vector(_INT, 3)
_FORM = _Codec(lambda f: [f.a, f.b, f.c],
              lambda obj: binary.BinaryForm(*_INT_TRIPLE.decode(obj)))


def _record(build: Callable, fields: dict, rename: dict | None = None,
            values: Callable = vars) -> _Codec:
    """A JSON object: each key goes through its codec to one attribute.

    Decoding calls build(**attributes); encoding reads values(obj), a
    mapping from attribute names.  rename maps a JSON key to its attribute
    where the two differ.
    """
    rename = rename or {}

    def encode(obj) -> dict:
        vals = values(obj)
        return {key: codec.encode(vals[rename.get(key, key)])
                for key, codec in fields.items()}

    def decode(obj):
        if not isinstance(obj, dict):
            raise CertificateError(f"expected an object, got {obj!r}")
        attrs = {}
        for key, codec in fields.items():
            if key not in obj:
                raise CertificateError(f"missing key {key!r}")
            try:
                attrs[rename.get(key, key)] = codec.decode(obj[key])
            except (CertificateError, InvalidInputError,
                    DegenerateLatticeError) as exc:
                # a constructor's rejection (a definite form, an asymmetric
                # or singular gram) is a malformed field
                raise CertificateError(f"{key}: {exc}") from None
        return build(**attrs)

    return _Codec(encode, decode)


def _tuple_record(fields: dict) -> _Codec:
    """A record held as a plain tuple of its values, in field order."""
    return _record(lambda **attrs: tuple(attrs.values()), fields,
                   values=lambda t: dict(zip(fields, t)))


# -- lattices -----------------------------------------------------------------

def lattice_to_obj(lat: Lattice) -> dict:
    return {"gram": _INT_MAT.encode(lat.gram)}


def lattice_from_obj(obj) -> Lattice:
    if not isinstance(obj, dict) or "gram" not in obj:
        raise CertificateError('lattice object must be {"gram": [[...]]}')
    try:
        gram = _INT_MAT.decode(obj["gram"])
    except CertificateError:
        gram = None
    if not gram:
        raise CertificateError("gram must be a nonempty matrix of integers")
    return Lattice(gram)


_LATTICE = _Codec(lattice_to_obj, lattice_from_obj)


def _json_int(digits: str) -> int:
    # decimal parsing costs time quadratic in the length, so integers read
    # keep the interpreter's default digit limit even where it is lifted
    limit = sys.int_info.default_max_str_digits
    if len(digits.lstrip("-")) > limit:
        raise ValueError(f"an integer has more than {limit} digits")
    return int(digits)


def load_json(path: str):
    """The parsed content of a JSON file.

    Content that does not parse raises CertificateError: bad JSON, bytes
    that are not UTF-8 and overlong integers all raise ValueError here.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except ValueError as exc:
            raise CertificateError(f"{path} is not valid JSON: {exc}") from None


def load_lattice(path: str) -> Lattice:
    return lattice_from_obj(load_json(path))


# -- certificates -------------------------------------------------------------

_MJ_ENTRY = _record(construct.MjEntry, {
    "a": _INT, "u": _FRAC_VEC, "m_factor": _INT, "v": _INT_VEC,
    "basis": _INT_MAT, "gram": _INT_MAT, "mu": _INT, "index": _INT})

_NV_ENTRY = _record(construct.NvComplementEntry, {
    "h": _INT_VEC, "basis": _INT_MAT, "gram": _INT_MAT,
    "fingerprint": _tuple_record({"rank": _INT, "det": _INT,
                                  "invariant_factors": _INT_VEC,
                                  "signature": _INT_VEC}),
    "fingerprint_class": _INT})

# kind -> (record, validator returning the list of failures)
_KINDS = {
    "avoid_roots": (_record(construct.AvoidRootsCertificate, {
        "n": _INT, "b": _INT, "primes": _vector(_vector(_INT, 2)), "a": _INT,
        "form": _FORM}), construct.validate_avoid_roots),
    "pell_family": (_record(construct.PellFamilyCertificate, {
        "a": _INT, "d": _INT, "mu": _INT, "witness": _vector(_INT, 2)}),
        construct.validate_pell_family),
    "mj_family": (_record(construct.MjCertificate, {
        "ambient": _LATTICE, "h": _INT_VEC, "d": _INT, "N": _INT,
        "strategy": _choice(construct.STRATEGY_PELL, construct.STRATEGY_PRIMES),
        "threshold": _INT, "e": _INT_VEC, "m": _INT, "f_tilde": _FRAC_VEC, "T": _INT,
        "entries": _vector(_MJ_ENTRY)}, rename={"N": "big_n", "T": "t_index"}),
        construct.validate_mj),
    # held as the tuple (lattice, d, box, entries): validate_nv's arguments
    "nv_complements": (_tuple_record({
        "lattice": _LATTICE, "d": _INT, "box": _INT, "entries": _vector(_NV_ENTRY)}),
        lambda args: construct.validate_nv(*args)),
}


def _to_obj(kind: str, cert) -> dict:
    return {"format": FORMAT_TAG, "kind": kind, **_KINDS[kind][0].encode(cert)}


def _from_obj(kind: str, obj):
    try:
        return _KINDS[kind][0].decode(obj)
    except CertificateError as exc:
        raise CertificateError(f"malformed {kind} certificate: {exc}") from None


def avoid_roots_to_obj(cert: construct.AvoidRootsCertificate) -> dict:
    return _to_obj("avoid_roots", cert)


def pell_family_to_obj(cert: construct.PellFamilyCertificate) -> dict:
    return _to_obj("pell_family", cert)


def mj_to_obj(cert: construct.MjCertificate) -> dict:
    return _to_obj("mj_family", cert)


def nv_to_obj(lat: Lattice, d: int, box: int,
              entries: tuple[construct.NvComplementEntry, ...]) -> dict:
    return _to_obj("nv_complements", (lat, d, box, entries))


def verify_certificate_obj(obj) -> list[str]:
    """Re-run all invariant checks for a parsed certificate object."""
    if not isinstance(obj, dict):
        raise CertificateError("certificate must be a JSON object")
    if obj.get("format") != FORMAT_TAG:
        raise CertificateError(
            f"unsupported format tag {obj.get('format')!r}; expected {FORMAT_TAG!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    return _KINDS[kind][1](_from_obj(kind, obj))
