"""Built-in algebra catalog and the structure-constant file format.

Files are JSON:

    {"dim": 3,
     "basis_names": ["x", "y", "z"],
     "brackets": [{"i": 0, "j": 1, "result": [{"k": 2, "coeff": "1"}]}]}

with i < j and coefficients given as exact rational strings ("3/2", "-1")
or integers. No field may be repeated within an object.
"""

from __future__ import annotations

import json
import re
import sys
from typing import NamedTuple

from .linalg import Scalar, Terms, as_scalar
from .algebra import (LieAlgebra, LieError, _from_brackets, _validate_jacobi,
                      make_lie_algebra)


class CatalogError(KeyError):
    pass


class AlgebraFileError(LieError):
    pass


class CatalogEntry(NamedTuple):
    name: str
    algebra: LieAlgebra


_SL2_BRACKETS = [
    (0, 1, [0, 2, 0]),    # [h, e] = 2e
    (0, 2, [0, 0, -2]),   # [h, f] = -2f
    (1, 2, [1, 0, 0]),    # [e, f] = h
]

# name -> (dim, sparse (i, j, [e_i, e_j]) brackets, basis names); an
# entry's algebra is built, and its Jacobi identity checked, only on request
_ENTRIES = {
    "abelian1": (1, [], None),
    "abelian2": (2, [], None),
    "abelian3": (3, [], None),
    "affine2": (2, [(0, 1, [0, 1])], None),
    "heisenberg3": (3, [(0, 1, [0, 0, 1])], ("x", "y", "z")),
    "sl2": (3, _SL2_BRACKETS, ("h", "e", "f")),
    "sl2_plus_abelian1": (4, [(i, j, vec + [0]) for i, j, vec in _SL2_BRACKETS],
                          ("h", "e", "f", "u")),
}


def _entry(name: str) -> CatalogEntry:
    return CatalogEntry(name, make_lie_algebra(*_ENTRIES[name]))


def catalog() -> list[CatalogEntry]:
    return [_entry(name) for name in _ENTRIES]


def lookup(name: str) -> CatalogEntry:
    # accept "abelian(2)" style spellings
    wanted = name.strip().lower().replace("(", "").replace(")", "")
    if wanted not in _ENTRIES:
        raise CatalogError(f"no catalog algebra named {name!r}")
    return _entry(wanted)


# "p" or "p/q" only: Fraction would also take decimals and exponents, and
# "1e999999999" builds a billion-digit integer before any check runs
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


class _LongInt:
    """A JSON integer with more digits than int() converts
    (sys.get_int_max_str_digits), held so that _is_int names its field."""

    def __repr__(self):
        return "<integer past the digit limit>"


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInt()


def _parse_coeff(text, where: str) -> Scalar:
    if isinstance(text, bool) or isinstance(text, float):
        raise AlgebraFileError(f"{where}: coefficient must be an exact "
                               f"rational string or integer, got {text!r}")
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        try:
            return as_scalar(text)
        except ZeroDivisionError:
            pass
        except ValueError:  # the digits matched, but are too many for int()
            text = _LongInt()
    if _is_int(text, f"{where}: 'coeff'"):
        return text
    raise AlgebraFileError(f"{where}: bad rational literal {text!r}")


def _is_int(x, field: str) -> bool:
    if isinstance(x, _LongInt):
        raise AlgebraFileError(f"{field} has more than "
                               f"{sys.get_int_max_str_digits()} digits")
    # JSON true and false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _unique(pairs: list) -> dict:
    """Each JSON object's fields; json would keep only a repeated key's last
    value, so a repeat is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise AlgebraFileError(f"repeated field {key!r}")
        obj[key] = value
    return obj


def _known(obj: dict, keys: tuple[str, ...], where: str) -> None:
    """Reject a key outside keys: a misspelled one would be ignored."""
    for key in obj:
        if key not in keys:
            raise AlgebraFileError(f"{where}: unknown field {key!r}")


def _list(obj: dict, key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise AlgebraFileError(f"{where}: '{key}' must be a list, got {value!r}")
    return value


def parse_algebra_file(text: str) -> LieAlgebra:
    """Parse and fully validate a JSON structure-constant document into each
    bracket's sorted nonzero (k, c) terms; Jacobi is scanned on every triple."""
    try:
        doc = json.loads(text, parse_int=_json_int, object_pairs_hook=_unique)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise AlgebraFileError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise AlgebraFileError("top level must be an object")
    _known(doc, ("dim", "basis_names", "brackets"), "top level")
    try:
        n = doc["dim"]
    except KeyError:
        raise AlgebraFileError("missing field 'dim'") from None
    if not _is_int(n, "'dim'") or n <= 0:
        raise AlgebraFileError(f"'dim' must be a positive integer, got {n!r}")
    names = doc.get("basis_names")
    if names is not None:
        if (not isinstance(names, list) or len(names) != n
                or not all(isinstance(s, str) for s in names)):
            raise AlgebraFileError(f"'basis_names' must be {n} strings")
        if len(set(names)) != n:
            raise AlgebraFileError(f"'basis_names' has duplicates: {names!r}")
    upper: dict[tuple[int, int], Terms] = {}
    for pos, item in enumerate(_list(doc, "brackets", "top level")):
        where = f"brackets[{pos}]"
        if not isinstance(item, dict):
            raise AlgebraFileError(f"{where}: must be an object")
        _known(item, ("i", "j", "result"), where)
        try:
            i, j = item["i"], item["j"]
        except KeyError as exc:
            raise AlgebraFileError(f"{where}: missing field {exc}") from None
        if not (_is_int(i, f"{where}: 'i'") and _is_int(j, f"{where}: 'j'")):
            raise AlgebraFileError(f"{where}: i and j must be integers")
        if not (0 <= i < n and 0 <= j < n):
            raise AlgebraFileError(f"{where}: indices ({i},{j}) out of range "
                                   f"for dim {n}")
        if i >= j:
            raise AlgebraFileError(f"{where}: requires i < j, got ({i},{j})")
        if (i, j) in upper:
            raise AlgebraFileError(f"{where}: duplicate pair ({i},{j})")
        terms: dict[int, Scalar] = {}
        for term in _list(item, "result", where):
            if isinstance(term, dict):
                _known(term, ("k", "coeff"), where)
            if not isinstance(term, dict) or "k" not in term or "coeff" not in term:
                raise AlgebraFileError(f"{where}: result terms need 'k' and 'coeff'")
            k = term["k"]
            if not _is_int(k, f"{where}: 'k'") or not 0 <= k < n:
                raise AlgebraFileError(f"{where}: k={k!r} out of range for dim {n}")
            if k in terms:
                raise AlgebraFileError(f"{where}: bracket ({i},{j}) gives k={k} twice")
            terms[k] = _parse_coeff(term["coeff"], where)
        upper[i, j] = tuple(sorted([(k, c) for k, c in terms.items() if c]))
    try:
        # the n x n pair table is the first thing built per dimension
        return _validate_jacobi(_from_brackets(n, upper, names))
    except (OverflowError, MemoryError):
        raise AlgebraFileError(f"'dim' {n} is too large") from None


def sparse_brackets(g: LieAlgebra) -> list[dict]:
    """The nonzero brackets [e_i, e_j], i < j, in the file format's form."""
    return [{"i": i, "j": j,
             "result": [{"k": k, "coeff": str(c)} for k, c in terms]}
            for i, row in enumerate(g.pairs)
            for j, terms in enumerate(row[i + 1:], i + 1) if terms]


def serialize_algebra(g: LieAlgebra) -> str:
    """Canonical JSON for a LieAlgebra; round-trips through parse_algebra_file."""
    doc = {"dim": g.dim, "basis_names": list(g.basis_names),
           "brackets": sparse_brackets(g)}
    return json.dumps(doc, indent=2) + "\n"
