"""The sparse integer module under every element class of the library.

A subclass names its context slots in ``_fields`` (a Lie datum, a level, a
face, a degree) and checks one key against that context in ``_validate``.
The public constructor validates every key it is given and drops zero
coefficients.  The one trusted constructor, ``_trusted(terms, *context)``,
takes its terms unchecked and uncopied.  Only library code calls it, on keys
in the basis by construction with no zero coefficient: sums, negatives and
multiples (through ``_new``, with an element's own context), results a
weight walk has reduced into the basis, and boundaries, homotopies, products
and orbit sums of basis keys, never a cached dict itself.  Two elements meet
only with the same class and context; a Lie datum compares by its Lie type.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping


def combine(parts: Iterable[tuple[int, Mapping]]) -> dict:
    """The sum of scale * terms over the (scale, terms) parts, as a new dict
    without zero coefficients."""
    out: dict = {}
    for scale, terms in parts:
        for key, c in terms.items():
            out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


class SparseElt:
    """An integer combination of keys: ``terms`` maps key -> nonzero coefficient."""

    __slots__ = ("terms",)
    _fields: tuple[str, ...] = ()
    _mismatch: type[Exception] = ValueError

    def __init__(self, terms: Mapping[Hashable, int] | None = None):
        terms = terms or {}
        for key in terms:
            self._validate(key)
        self.terms = {key: c for key, c in terms.items() if c}

    def _validate(self, key) -> None:
        """Raise ValueError unless key is a basis key in this context."""

    @classmethod
    def _trusted(cls, terms: dict, *context) -> "SparseElt":
        """An element over trusted terms, with the context in ``_fields`` order."""
        out = object.__new__(cls)
        for name, value in zip(cls._fields, context):
            setattr(out, name, value)
        out.terms = terms
        return out

    def _new(self, terms: dict) -> "SparseElt":
        return self._trusted(terms, *[getattr(self, name) for name in self._fields])

    def _context(self) -> tuple:
        values = (getattr(self, name) for name in self._fields)
        return tuple(getattr(value, "lie_type", value) for value in values)

    def _head(self) -> str:
        return ", ".join(f"{name}={value}" for name, value in zip(self._fields, self._context()))

    def _same_context(self, other: "SparseElt") -> bool:
        """_context() == other._context(), read slot by slot without building
        either tuple; a shared Lie datum is the same object."""
        for name in self._fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and getattr(mine, "lie_type", mine) != getattr(theirs, "lie_type", theirs):
                return False
        return True

    def _check(self, other: "SparseElt") -> None:
        if type(other) is not type(self):
            raise self._mismatch(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if not self._same_context(other):
            raise self._mismatch(
                f"{type(self).__name__} context mismatch: {self._head()} vs {other._head()}"
            )

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._same_context(other)
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "SparseElt") -> "SparseElt":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            total = out.get(key, 0) + c
            if total:
                out[key] = total
            else:
                del out[key]
        return self._new(out)

    def __neg__(self) -> "SparseElt":
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "SparseElt") -> "SparseElt":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "SparseElt":
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:
            return self._new({})
        return self._new({key: scalar * c for key, c in self.terms.items()})

    __mul__ = __rmul__

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*{key}" for key, c in sorted(self.terms.items()))
        return f"{type(self).__name__}({self._head()}: {body or '0'})"
