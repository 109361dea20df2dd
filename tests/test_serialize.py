"""Malformed certificates: every field of every kind, every wrong JSON type.

Decoding goes through one field table per kind, so a value of the wrong
type must raise CertificateError, never a bare TypeError or IndexError,
and a float or a boolean is never read as an integer.
"""

import copy
from fractions import Fraction

import pytest

from conftest import U, dsum
from reflekt import construct, serialize
from reflekt.errors import CertificateError

U3 = dsum(U, U, U)

SAMPLES = {
    "avoid_roots": serialize.avoid_roots_to_obj(construct.avoid_roots(2, 1)),
    "pell_family": serialize.pell_family_to_obj(construct.pell_family(5)),
    "mj_family": serialize.mj_to_obj(construct.mj_family(U3, (1, 1, 0, 0, 0, 0), 1, 1)),
    "nv_complements": serialize.nv_to_obj(U, 2, 3, construct.nv_complements(U, 2, 3)),
}


def _paths(obj, prefix=()):
    """Key paths of an object, descending into nested objects and into the
    first element of lists of objects."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from _paths(value[0], prefix + (key, 0))


def _float_of(value):
    """The same value with one number turned into a float, or None."""
    if isinstance(value, int):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except ValueError:
            return None
    if isinstance(value, list) and value:
        first = _float_of(value[0])
        return None if first is None else [first] + value[1:]
    if isinstance(value, dict):
        key = sorted(value)[0]
        inner = _float_of(value[key])
        return None if inner is None else {**value, key: inner}
    return None


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _cases():
    for kind, sample in SAMPLES.items():
        for path in _paths(sample):
            name = f"{kind}:{'.'.join(map(str, path))}"
            for label, bad in (("str", "x"), ("null", None), ("float", 1.5),
                               ("bool", True),
                               ("float_of_valid", _float_of(_get(sample, path)))):
                if bad is not None or label == "null":
                    yield pytest.param(kind, path, bad, id=f"{name}={label}")


def test_samples_verify():
    for sample in SAMPLES.values():
        assert serialize.verify_certificate_obj(copy.deepcopy(sample)) == []


@pytest.mark.parametrize("kind,path,bad", list(_cases()))
def test_wrong_type_is_certificate_error(kind, path, bad):
    obj = copy.deepcopy(SAMPLES[kind])
    _get(obj, path[:-1])[path[-1]] = bad
    with pytest.raises(CertificateError):
        serialize.verify_certificate_obj(obj)


@pytest.mark.parametrize("kind", list(SAMPLES))
def test_missing_key_is_certificate_error(kind):
    for key in SAMPLES[kind]:
        obj = copy.deepcopy(SAMPLES[kind])
        del obj[key]
        with pytest.raises(CertificateError):
            serialize.verify_certificate_obj(obj)


def test_wrong_length_pair_is_certificate_error():
    obj = copy.deepcopy(SAMPLES["pell_family"])
    obj["witness"] = [4]
    with pytest.raises(CertificateError):
        serialize.verify_certificate_obj(obj)

