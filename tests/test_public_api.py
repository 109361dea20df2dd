"""The package's public surface: every name in `reflekt.__all__` exists.

A name left in `__all__` after its definition is removed would break
`from reflekt import *` while plain imports keep working.
"""

import reflekt


def test_every_exported_name_is_an_attribute():
    assert [n for n in reflekt.__all__ if not hasattr(reflekt, n)] == []


def test_all_has_no_duplicates():
    assert len(reflekt.__all__) == len(set(reflekt.__all__))


def test_star_import_succeeds():
    namespace = {}
    exec("from reflekt import *", namespace)
    assert set(reflekt.__all__) <= namespace.keys()

