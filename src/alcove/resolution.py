"""The per-orbit chain complex attached to a face J of the alcove.

Fix a face J and let V be the affine Weyl orbit of its distinguished interior
point.  The degree-p chain group has basis beta_I(x) indexed by subsets I of
the nodes with |I| = p+1 and orbit points x interior to the cone of I.  The
boundary map is

    d beta_I(x) = sum_r (-1)^{r + len(u_r)} beta_{I - {i_r}}(u_r x)

where u_r is the unique element of W_{I - {i_r}} moving x into the closed
cone of I - {i_r}; terms landing on a cone wall vanish.  The module also
provides the augmentation, the degree-raising operators h_i, the chain maps
A_i = id - h_i d - d h_i, a certified cycle-contraction routine built from
them, and exact homology of length-truncated subcomplexes from a checked
algebraic Morse matching.

All of this is independent of a level: the complex only sees the orbit
combinatorics of V.

Points are integers throughout.  A chain key is (I, X): I a strictly
increasing node set and X the integer numerators of the orbit point over
the one denominator D of the orbit context (OrbitComplex.D); D > 0, so the
basis order is that of the points.  Each key is checked once, where it
enters: ChainElt._validate (the node set, in the public constructor), then
OrbitComplex._check_key, the one test that (I, X) is a basis pair (node
range, coordinate count, interior to the cone of I, on the orbit).
element() and the boundary of a key without stored faces reach it, and so
does verify_certificate, which only takes both boundaries.  _check_key
takes the key's start vector of affine._reduce once, for the interior
test, the orbit test and the key's faces: from the orbit walk if it has
reached the point, else built by _start.  OrbitComplex._length,
behind length_of, owns orbit membership and the length bound: a point on
the orbit's length table costs nothing, and one off it is refused above
CERT_MAX_LENGTH before it is reduced, then reduced once and kept.  What
the library builds from basis pairs (sums, boundary, homotopy,
random_cycle, contract_cycle, truncations) is trusted.  Fraction appears
only in element(), which takes a rational point and refuses one off
(1/D) Z^l; a certificate states D once and writes each point as its
numerators X, JSON integers.

The homology path and the verifier do no repeated work.  The bases and
faces of a truncation read each orbit point's wall values and start
vector off the orbit walk (OrbitContext._vectors), and so does
_check_key, so only a key at a point the walk has not reached has its
start vector computed, by _start.  Each key's boundary is stored once per
complex (_faces), as the chain face -> sign, and each length truncation
is built once per complex and shared: its d_p is the list of the stored
boundaries of the degree-p keys, the same dicts.  verify_certificate
keeps one complex per (group, J) in the memo of the LieData, so it checks
each key, and reduces its boundary, once per process.  d o d = 0 is
checked on every entry on these chains: the boundaries of the faces of
each key combine to zero.  Checks and witnesses name keys, never
matrix rows; a key is written as a certificate writes it, its nodes I
and numerators x over D.

The ranks of the boundary maps come from a checked algebraic Morse
matching, not from an elimination, and the homology verdicts follow from
that checked matching, so no rank is compared after it; homology_report
gives the argument.  The H0 augmentation is the one check a verdict adds.
random_cycle computes the dense kernel basis of each d_p of a truncation
once, from (row, coeff) columns over the basis order of degree p - 1.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence

from .affine import OrbitContext, _point_vector, _reduce, _scaled_crossing_length
from .intlinalg import kernel_basis, to_dense
from .lie import (
    CheckFailed,
    FaceIndex,
    LieData,
    LieType,
    _check_face_index,
    _json_list,
    _walls_outside,
    build_lie_data,
    check,
)
from .sparse import SparseElt, combine

# (I, X): a node set and the numerators of an orbit point over the D of the
# complex's orbit context
ChainKey = tuple[FaceIndex, tuple[int, ...]]

# The longest orbit point off the length table that length_of places, as a
# count of crossed affine root hyperplanes: it refuses a longer point, and so
# a longer certificate or chain key, before any reduction runs, because a
# reduction takes one reflection per crossing.
CERT_MAX_LENGTH = 10_000

# The largest rank of a group a certificate may name.  verify_certificate
# refuses a higher rank before it builds any root data: root data and orbit
# context grow with the rank whatever the certificate holds.  An empty
# certificate takes about 0.25 s at rank 20 as a whole process, and 0.8 s at
# rank 40 and 17 s at rank 100 in process (A_l, single runs, 2-core host).
CERT_MAX_RANK = 20


class ChainElt(SparseElt):
    """A finitely supported integer combination of basis pairs (I, X), X the
    numerators of an orbit point over the denominator D of its complex.

    The public constructor refuses a node set I that is not strictly
    increasing or has not degree + 1 nodes; it never reorders one.  Library
    results, canonical by construction, are built with _trusted."""

    __slots__ = _fields = ("J", "degree")

    def __init__(self, J: FaceIndex, degree: int, terms: Mapping[ChainKey, int] | None = None):
        self.J = J
        self.degree = degree
        super().__init__(terms)

    def _validate(self, key: ChainKey) -> None:
        I = key[0]
        if any(a >= b for a, b in zip(I, I[1:])):
            raise ValueError(f"chain key {list(I)} is not strictly increasing")
        if len(I) != self.degree + 1:
            raise ValueError(f"key {I} has wrong size for degree {self.degree}")


@dataclass
class TruncatedComplex:
    """Bases and boundary maps of a length-truncated subcomplex."""

    J: FaceIndex
    N: int
    bases: list[list[ChainKey]]
    # degree p -> d_p: for each key of bases[p], in basis order, its boundary
    # face -> sign, the very dict the complex stores for the key (_faces)
    matrices: dict[int, list[dict[ChainKey, int]]]


class OrbitComplex:
    """The chain complex of one face J, with its orbit context."""

    def __init__(self, data: LieData, J: Sequence[int], base: Sequence | None = None):
        self.data = data
        self.J = _check_face_index(data, J)
        self.ctx = OrbitContext(data, self.J, base)
        self.D = self.ctx.D
        self.full_face = tuple(range(data.rank + 1))
        self._truncations: dict[int, TruncatedComplex] = {}
        self._kernels: dict[tuple[int, int], list[list[int]]] = {}
        self._faces: dict[ChainKey, dict[ChainKey, int]] = {}
        # orbit points off the length table -> their length (length_of)
        self._lengths: dict[tuple[int, ...], int] = {}

    # -- lengths ------------------------------------------------------------

    def length_of(self, x: Sequence[int]) -> int:
        """Length of the orbit point with numerators x; ValueError if x is
        not on the orbit or, off the length table, longer than
        CERT_MAX_LENGTH (see _length)."""
        return self._length(tuple(x), None)

    def _length(self, x: tuple[int, ...], start: list[int] | None) -> int:
        """length_of, given the start vector of x (_start) if the caller has
        it; the one orbit membership test and length bound of the complex.

        A table hit computes nothing.  Off the table the length is the count
        of crossed hyperplanes, refused above CERT_MAX_LENGTH before any
        reduction, because a reduction takes one reflection per crossing;
        x is on the orbit if it then reduces to the base point, and its
        length is kept per complex."""
        known = self.ctx._length.get(x, self._lengths.get(x))
        if known is not None:
            return known
        data = self.data
        start = start or self._start(x)
        length = _scaled_crossing_length(data, x, self.D)
        if length > CERT_MAX_LENGTH:
            raise ValueError(f"x = {list(x)} has length {length}, above the limit {CERT_MAX_LENGTH}")
        vec = _reduce(start, data.point_table, self.full_face)[0]
        if tuple(vec[data.rank + 1 :]) != self.ctx.base:
            raise ValueError(f"x = {list(x)} is not on the orbit of {list(self.J)}")
        self._lengths[x] = length
        return length

    # -- keys and bases ---------------------------------------------------------

    def _start(self, X: Sequence[int]) -> list[int]:
        """The start vector of affine._reduce for the point X / D: D times
        its wall values at nodes 0..l, then X.  ValueError unless X has l
        coordinates, as wall values and a reduction need."""
        if len(X) != self.data.rank:
            raise ValueError(f"x = {list(X)} has {len(X)} coordinates, not {self.data.rank}")
        return _point_vector(self.data, X, self.D)

    def _check_key(self, I: FaceIndex, X: tuple[int, ...]) -> Sequence[int]:
        """The start vector of the key (I, X), I sorted and nonempty: the
        orbit walk's vector of X if the walk has reached it, else _start.
        The one key check of the complex: ValueError naming the key unless
        it is a basis pair, with nodes in 0..l, l coordinates, X / D
        interior to the cone of I and on the orbit (_length)."""
        l = self.data.rank
        if I[0] < 0 or I[-1] > l:
            raise ValueError(f"key {list(I)} has a node outside 0..{l}")
        try:
            start = self.ctx._vectors.get(X) or self._start(X)
            if any(start[i] <= 0 for i in range(l + 1) if i not in I):
                raise ValueError(f"x = {list(X)} is not interior to its cone")
            self._length(X, start)
        except ValueError as exc:
            raise ValueError(f"key {list(I)}, {exc}") from None
        return start

    def basis_elements(self, p: int, n: int) -> list[ChainKey]:
        """Basis pairs (I, X) in degree p with length(X) <= n, X numerators
        over D, ordered by I then by coordinates.  The length bound is
        checked (points_up_to) before the degree."""
        orbit = self.ctx.points_up_to(n)
        if p < 0 or p > self.data.rank:
            return []
        l, vectors = self.data.rank, self.ctx._vectors
        # each orbit point X with the nodes whose wall value at X is <= 0;
        # (I, X) is a basis pair exactly when those nodes all lie in I
        points = [({i for i, v in enumerate(vectors[X][: l + 1]) if v <= 0}, X) for X, _ in orbit]
        out: list[ChainKey] = []
        for I in combinations(range(l + 1), p + 1):
            nodes = set(I)
            out.extend((I, X) for low, X in points if low <= nodes)
        # D > 0, so numerator order is coordinate order
        out.sort()
        return out

    def element(self, I: Sequence[int], x: Sequence, coeff: int = 1) -> ChainElt:
        """The chain coeff * beta_I(x) for a rational point x interior to the
        cone of I; x must lie in (1/D) Z^l, as every orbit point does."""
        I = _check_face_index(self.data, I)
        X = tuple(_numerator(v.numerator, v.denominator, self.D, x) for v in map(Fraction, x))
        self._check_key(I, X)
        return ChainElt(self.J, len(I) - 1, {(I, X): coeff})

    # -- boundary and augmentation ---------------------------------------------

    def boundary(self, c: ChainElt) -> ChainElt:
        if c.degree < 1:
            raise ValueError("boundary needs degree >= 1")
        for key in c.terms:
            if key not in self._faces:
                self._store_faces(key, self._check_key(*key))
        out = combine((coeff, self._faces[key]) for key, coeff in c.terms.items())
        return ChainElt._trusted(out, c.J, c.degree - 1)

    def _store_faces(self, key: ChainKey, start: Sequence[int]) -> dict[ChainKey, int]:
        """Compute and store the terms face -> sign of d beta_I(x) for a basis
        pair: one that has passed _check_key, or one that basis_elements
        built.  start, the start vector of x (from _check_key, or the orbit
        walk's vector of x), is shared by every dropped node; an image is
        the tail of the reduced vector, or x itself if unmoved.  The faces
        are distinct, one per dropped node at most."""
        I, x = key
        data, faces = self.data, {}
        rows, tail = data.point_table, data.rank + 1
        for r in range(len(I)):
            sub = I[:r] + I[r + 1 :]
            vec, word, on_wall = _reduce(start, rows, _walls_outside(data, sub))
            if not on_wall:
                faces[(sub, tuple(vec[tail:]) if word else x)] = (-1) ** (r + len(word))
        self._faces[key] = faces
        return faces

    def augmentation(self, c: ChainElt) -> int:
        """The degree-0 augmentation: beta_i(x) -> (-1)^length(x) when J is
        the full node set, and the zero map otherwise."""
        if c.degree != 0:
            raise ValueError("augmentation needs degree 0")
        if self.J != self.full_face:
            return 0
        return sum(coeff * (-1) ** self.length_of(x) for (_, x), coeff in c.terms.items())

    # -- homotopy machinery -------------------------------------------------------

    def homotopy(self, i: int, c: ChainElt) -> ChainElt:
        """h_i: raise degree by inserting node i, with the sign of its
        position; kills keys already containing i.  Preserves lengths."""
        if not 0 <= i <= self.data.rank:
            raise ValueError(f"node {i} out of range")
        # distinct keys without i stay distinct with i inserted at its
        # position r, so no two terms meet
        out: dict[ChainKey, int] = {}
        for (I, x), coeff in c.terms.items():
            if i not in I:
                r = bisect_left(I, i)
                out[(I[:r] + (i,) + I[r:], x)] = (-1) ** r * coeff
        return ChainElt._trusted(out, c.J, c.degree + 1)

    def deform(self, i: int, c: ChainElt) -> ChainElt:
        """The chain map A_i = id - h_i d - d h_i (degree 0 has d = 0)."""
        out = c
        if c.degree >= 1:
            out = out - self.homotopy(i, self.boundary(c))
        hc = self.homotopy(i, c)
        if hc:
            out = out - self.boundary(hc)
        return out

    def deform_all(self, c: ChainElt) -> ChainElt:
        """A = A_0 A_1 ... A_l; strictly lowers key lengths in degrees
        strictly between 0 and the rank."""
        out = c
        for i in range(self.data.rank, -1, -1):
            out = self.deform(i, out)
        return out

    def contract_cycle(self, c: ChainElt) -> ChainElt:
        """Produce b with boundary(b) = c for a cycle c in an interior
        degree, by accumulating the homotopies along c, Ac, A^2 c, ...

        The result is re-checked exactly; failure raises CheckFailed instead
        of returning an uncertified chain.
        """
        if not 0 < c.degree < self.data.rank:
            raise ValueError("contraction needs degree strictly between 0 and rank")
        if self.boundary(c):
            raise ValueError("chain is not a cycle")
        bounding = ChainElt._trusted({}, c.J, c.degree + 1)
        current = c
        passes = 0
        # the longest key of c bounds the passes
        limit = 2 + max((self.length_of(x) for _, x in c.terms), default=0)
        while current:
            check(passes <= limit, "contraction failed to terminate")
            for i in range(self.data.rank, -1, -1):
                hc = self.homotopy(i, current)
                bounding = bounding + hc
                if hc:
                    current = current - self.boundary(hc)
            passes += 1
        check(self.boundary(bounding) == c, "contraction certificate failed verification")
        return bounding

    # -- truncated linear algebra ----------------------------------------------------

    def truncated(self, n: int) -> TruncatedComplex:
        """Bases and boundary maps of the subcomplex of keys with length
        <= n; checks that consecutive maps compose to zero.

        d_p is the list of the stored faces (_faces) of the keys of degree
        p, the same dicts, not copies; a key whose faces are stored already
        is not recomputed.  The result is built once per n and shared by
        later calls, so callers must not mutate its bases or matrices.
        """
        cached = self._truncations.get(n)
        if cached is not None:
            return cached
        l, vectors, stored = self.data.rank, self.ctx._vectors, self._faces
        bases = [self.basis_elements(p, n) for p in range(l + 1)]
        # the boundary never raises lengths, so faces stay inside; basis pairs
        # need no key check
        matrices = {p: [stored[key] if key in stored else self._store_faces(key, vectors[key[1]])
                        for key in bases[p]] for p in range(1, l + 1)}
        for p in range(2, l + 1):
            check_d_squared_zero(stored, zip(bases[p], matrices[p]), p)
        tc = TruncatedComplex(self.J, n, bases, matrices)
        self._truncations[n] = tc
        return tc

    def random_cycle(self, p: int, n: int, rng, max_terms: int = 4) -> ChainElt:
        """A random integer cycle in degree p of the length-n truncation."""
        if not 0 <= p <= self.data.rank:
            raise ValueError(f"degree p must be between 0 and {self.data.rank}, not {p}")
        if max_terms < 0:
            raise ValueError(f"max_terms must be >= 0, not {max_terms}")
        tc = self.truncated(n)
        if p < 1:
            return ChainElt(self.J, p)
        basis = tc.bases[p]
        ker = self._kernels.get((n, p))
        if ker is None:
            # the kernel basis is computed densely, as the sampled cycles (and
            # so the certificates) depend on its exact vectors; callers must
            # not mutate it
            row = {key: i for i, key in enumerate(tc.bases[p - 1])}
            columns = [[(row[face], sign) for face, sign in faces.items()] for faces in tc.matrices[p]]
            ker = kernel_basis(to_dense(columns, len(row)), len(basis))
            self._kernels[(n, p)] = ker
        vectors = rng.sample(ker, min(max_terms, len(ker)))
        scales = [rng.randint(-3, 3) for _ in vectors]
        terms = combine((scale, {basis[idx]: v for idx, v in enumerate(vec) if v})
                        for scale, vec in zip(scales, vectors) if scale)
        return ChainElt._trusted(terms, self.J, p)

    # -- homology -----------------------------------------------------------------------

    def _matched_ranks(self, tc: TruncatedComplex) -> dict[int, int]:
        """rank d_p for p = 1..l, read off the matching that h_{e(x)} names
        once it has passed its checks on the boundaries tc.matrices (see
        homology_report); CheckFailed with a witness otherwise."""
        l = self.data.rank
        vectors, lengths, bases = self.ctx._vectors, self.ctx._length, tc.bases
        cell = _cell_str
        # e(x), the least node with a positive wall value at x; one exists,
        # as the wall values of x weighted by the marks sum to D > 0
        first = {x: next(i for i, v in enumerate(vectors[x][: l + 1]) if v > 0)
                 for x, _ in self.ctx.points_up_to(tc.N)}

        def fail(p: int, witness: str):
            raise CheckFailed(f"Morse matching check failed in degree {p}: {witness}")

        ranks = {}
        for p in range(1, l + 1):
            pairs = 0
            # each upper cell (U, x), e(x) in U, has its lower cell (K, x),
            # K = U - {e(x)}, among its faces with coefficient +-1; every
            # other face matched upward has a shorter point, so no gradient
            # path closes up
            for (U, x), faces in zip(bases[p], tc.matrices[p]):
                e = first[x]
                if e not in U:
                    continue
                K = tuple(i for i in U if i != e)
                length, matched = lengths[x], False
                for (F, y), coeff in faces.items():
                    if y == x and F == K:
                        if coeff not in (1, -1):
                            fail(p, f"the matched face {cell((K, x))} of {cell((U, x))} has coefficient {coeff}")
                        matched = True
                    elif first[y] not in F and lengths[y] >= length:
                        fail(p, f"the face {cell((F, y))} of {cell((U, x))} is matched upward "
                                f"but has length {lengths[y]}, not below {length}")
                if not matched:
                    fail(p, f"the matched face {cell((K, x))} is missing from the boundary of {cell((U, x))}")
                pairs += 1
            # distinct upper cells have distinct lower cells, so the count
            # shows that every cell matched upward has its upper cell
            if pairs != sum(first[x] not in I for I, x in bases[p - 1]):
                keys = set(bases[p])
                I, x = next((I, x) for I, x in bases[p - 1]
                            if first[x] not in I and (tuple(sorted(I + (first[x],))), x) not in keys)
                fail(p - 1, f"the upper cell of {cell((I, x))} is not in the basis")
            ranks[p] = pairs
        critical = [key for key in bases[0] if key[0] == (first[key[1]],)]
        expected = [((0,), self.ctx.base)] if self.J == self.full_face else []
        if critical != expected:
            fail(0, f"critical cells {', '.join(map(cell, critical)) or 'none'}, "
                    f"expected {', '.join(map(cell, expected)) or 'none'}")
        return ranks

    def homology_report(self, n: int) -> dict:
        """Exact homology data of the length-n truncation, with verdicts
        against the expected acyclicity pattern: vanishing in degrees > 0,
        injectivity at the top, and H_0 = Z (detected by the augmentation)
        exactly for the full face, H_0 = 0 otherwise.

        The ranks come from the contraction the homotopies name, not from
        an elimination.  Let e(x) be the least node with a positive wall
        value at x; a basis pair (I, x) with e(x) not in I is matched with
        (I + {e(x)}, x), the pair h_{e(x)} sends it to.  _matched_ranks
        checks the matching on the stored boundaries before it is used:
        every upper cell is in the basis, every matched coefficient is +-1,
        every other face of an upper cell that is itself matched upward has
        a strictly shorter point (so the matching is acyclic), and the
        critical (unmatched) cells are ({0}, base point) for the full face
        and none otherwise.  Then the complex is chain homotopy equivalent
        over Z to a Morse complex on the critical cells (algebraic Morse
        theory: Forman, Adv. Math. 134, 1998; Kozlov, C. R. Math. 340,
        2005; Skoldberg, Trans. AMS 358, 2006), so the homology is Z in
        degree 0 or zero, there is no torsion, and rank d_p is the number
        of degree p-1 cells matched upward.  The ranks are proved, not
        sampled, and there is no second, eliminating route: a failed check
        raises CheckFailed naming the degree, the key and the coefficient
        or face, and the CLI exits 4 on it.

        So each verdict follows from its degree once the matching has
        passed: rank_ker - rank_im_above is the number of critical cells of
        degree p, 1 at p = 0 for the full face and 0 everywhere else (at
        0 < p < l by the pair counts, at p = l as no top cell is matched
        upward, at p = 0 by the critical-cell check).  The one check left
        here is the H0 augmentation: it reads the sign (-1)^length of each
        degree-0 point from the orbit's length table and tests the boundary
        of every degree-1 key against it; only it can make a verdict fail."""
        if n < 1:
            raise ValueError("truncation bound must be >= 1")
        tc = self.truncated(n)
        # rank d_p for p = 1..l; d_0 is zero
        ranks = self._matched_ranks(tc)
        all_ok, h0 = True, "H0=0"
        if self.J == self.full_face:
            # the augmentation kills the boundary of every degree-1 key; its
            # sign on a basis pair depends on the point only
            eps = {x: (-1) ** self.length_of(x) for _, x in tc.bases[0]}
            all_ok = all(sum(coeff * eps[y] for (_, y), coeff in faces.items()) == 0
                         for faces in tc.matrices[1])
            h0 = "H0=Z" if all_ok else "H0!=Z"
        verdicts = [h0] + ["exact"] * (self.data.rank - 1) + ["injective"]
        degrees = [
            {
                "p": p,
                "dim": len(basis),
                "rank_ker": len(basis) - ranks.get(p, 0),
                "rank_im_above": ranks.get(p + 1, 0),
                # the checked matching leaves no torsion
                "torsion": [],
                "verdict": verdict,
            }
            for p, (basis, verdict) in enumerate(zip(tc.bases, verdicts))
        ]
        return {
            "group": str(self.data.lie_type),
            "J": list(self.J),
            "N": n,
            "degrees": degrees,
            "H0": "Z" if self.J == self.full_face else "0",
            "all_ok": all_ok,
        }


def _cell_str(key: ChainKey) -> str:
    """A chain key as a certificate writes its term: the nodes I and the
    numerators x over D."""
    return f"(I = {list(key[0])}, x = {list(key[1])})"


def check_d_squared_zero(
    lower: Mapping[Hashable, Mapping[Hashable, int]],
    upper: Iterable[tuple[Hashable, Mapping[Hashable, int]]],
    p: int,
) -> None:
    """Raise CheckFailed unless d_{p-1} d_p is zero on every key of degree
    p: upper holds the pairs (key, boundary) of d_p, and lower maps each
    face to its boundary.  Every entry of every d d key is tested, and the
    witness names the key, a face key where d d key is nonzero, and the
    value, each key written by _cell_str."""
    for key, faces in upper:
        total: dict = {}
        for face, b in faces.items():
            for low, a in lower[face].items():
                # key hashes are most of the time: an entry that cancels is
                # popped, not read and written back
                value = total.pop(low, 0) + a * b
                if value:
                    total[low] = value
        if total:
            low, value = next(iter(total.items()))
            raise CheckFailed(f"d composed with d is nonzero at degree {p}: the boundary of the boundary "
                              f"of {_cell_str(key)} has coefficient {value} at {_cell_str(low)}")


# ---------------------------------------------------------------------------
# certificates


def chain_to_json(c: ChainElt) -> list[dict]:
    """Chain terms with their points written as the key numerators X over
    the D of the complex."""
    return [{"I": list(I), "x": list(x), "coeff": coeff} for (I, x), coeff in sorted(c.terms.items())]


def _numerator(p: int, q: int, D: int, x: Iterable) -> int:
    """D * p / q, the numerator over D of the coordinate p / q (q > 0) of
    the point x.  Every orbit point of a complex lies in (1/D) Z^l, so one
    off it raises ValueError."""
    if p * D % q:
        raise ValueError(
            f"point ({', '.join(map(str, x))}) is off the lattice (1/{D}) Z^l of the orbit"
        )
    return p * D // q


def chain_from_json(J: FaceIndex, degree: int, doc: Iterable[Mapping]) -> ChainElt:
    """Read chain terms as chain_to_json writes them: nodes, numerators and
    coefficients JSON integers; ChainElt refuses a node set that is not
    strictly increasing."""
    terms: dict[ChainKey, int] = {}
    for item in doc:
        I, x, coeff = item["I"], item["x"], item["coeff"]
        if not (_is_int_list(I) and _is_int_list(x) and type(coeff) is int):
            raise ValueError("a chain term needs integer nodes I, integer numerators x and an integer coeff")
        key = (tuple(I), tuple(x))
        terms[key] = terms.get(key, 0) + coeff
    return ChainElt(J, degree, terms)


def _is_int_list(v) -> bool:
    """Whether v is a JSON list of integers; a bool or a float is none."""
    return type(v) is list and all(type(i) is int for i in v)


def certificate_json(complex_: OrbitComplex, cycle: ChainElt, bounding: ChainElt) -> str:
    """The contraction certificate of cycle = d bounding as the text of
    json.dumps(doc, indent=2), doc = {group, J, degree, D, "cycle":
    chain_to_json(cycle), "bounding": chain_to_json(bounding)}.  The text
    is laid out, not encoded from doc: each distinct node tuple and
    numerator tuple is rendered once (lie._json_list), and each chain term,
    in chain_to_json's order, fills one term template."""
    cells: dict[tuple[int, ...], str] = {}

    def cell(v: tuple[int, ...]) -> str:
        text = cells.get(v)
        if text is None:
            text = cells[v] = _json_list(map(str, v), 3)
        return text

    term = '{\n      "I": %s,\n      "x": %s,\n      "coeff": %d\n    }'

    def chain(c: ChainElt) -> str:
        return _json_list((term % (cell(I), cell(x), coeff) for (I, x), coeff in sorted(c.terms.items())), 1)

    head = '{\n  "group": %s,\n  "J": %s,\n  "degree": %d,\n  "D": %d,\n  "cycle": %s,\n  "bounding": %s\n}'
    return head % (json.dumps(str(complex_.data.lie_type)), _json_list(map(str, complex_.J), 1),
                   cycle.degree, complex_.D, chain(cycle), chain(bounding))


def verify_certificate(text: str) -> dict:
    """Re-check a contraction certificate {group, J, degree, D, cycle,
    bounding}, each chain term {I, x, coeff} with x the numerators of its
    point over D.  ValueError on any defect: a field of the wrong JSON type
    (every node, numerator and coeff must be an integer), a D other than
    that of the orbit of J, a key that is no basis pair, or a bounding
    chain whose boundary is not the cycle.

    The group, rank, J, degree and D are checked on every call.  The
    complex is the one of (group, canonical J) in data._memo, made on the
    first call for it: a key it has stored passed _check_key when it came
    in, so each key is checked, and its boundary reduced, once per process;
    both boundaries are still taken in full and compared."""
    try:
        doc = json.loads(text)
        group, J, degree = doc["group"], doc["J"], doc["degree"]
        if not (type(group) is str and _is_int_list(J) and type(degree) is int):
            raise ValueError("group must be a string, J a list of integers and degree an integer")
        lie_type = LieType.parse(group)
        if lie_type.rank > CERT_MAX_RANK:
            raise ValueError(f"group {lie_type} has rank {lie_type.rank}, above the limit {CERT_MAX_RANK}")
        data = build_lie_data(lie_type)
        J = tuple(J)
        if len(set(J)) != len(J):
            raise ValueError(f"face {list(J)} repeats a node")
        if not 0 < degree < data.rank:
            raise ValueError(f"degree {degree} is not strictly between 0 and {data.rank}")
        J = _check_face_index(data, J)
        # a key the complex has stored passed _check_key when it came in
        complex_ = data._memo.get(("complex", J))
        if complex_ is None:
            complex_ = data._memo["complex", J] = OrbitComplex(data, J)
        # every point is read as numerators over D, so any other D misreads them
        D = doc["D"]
        if type(D) is not int or D != complex_.D:
            raise ValueError(f"D must be {complex_.D}, the denominator of the orbit of {list(complex_.J)}")
        cycle = chain_from_json(J, degree, doc["cycle"])
        bounding = chain_from_json(J, degree + 1, doc["bounding"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    # the boundaries check every key of both chains as a basis pair before
    # either verdict
    try:
        d_cycle, d_bounding = complex_.boundary(cycle), complex_.boundary(bounding)
    except ValueError as exc:
        raise ValueError(f"certificate {exc}") from None
    if d_cycle:
        raise ValueError("certificate cycle is not a cycle")
    if d_bounding != cycle:
        raise ValueError("certificate bounding chain does not bound the cycle")
    return {"group": doc["group"], "J": list(complex_.J), "degree": degree, "ok": True}
