"""Exact root-system and alcove data for compact simple simply connected Lie groups.

Supported types: A_l (l>=1), B_l (l>=2), C_l (l>=2), D_l (l>=4), E_6/7/8,
F_4, G_2.  All arithmetic is exact.  The root datum and the face data are
computed on integers, and the two Gram matrices are kept only as integer
numerators over one denominator.  Fraction values are built only for the
rational fields (Root.half_norm, rho_sharp, alcove_vertices and the points
of FaceData) and at the public edges (pairing, basic_pairing, b_flat,
b_sharp, wall_value, alcove_face_of), where b_flat and b_sharp divide once
per coordinate.

Conventions, fixed once and used everywhere:

* Cartan matrix entry ``cartan[i][j] = <alpha_j, alpha_i_vee>`` (row indexed
  by the coroot).
* A ``Weight`` is an integer tuple of coordinates in the fundamental-weight
  basis; a ``RationalWeight`` allows Fraction coordinates in the same basis.
* A ``CartanPoint`` is a tuple of Fractions: coordinates in the simple-coroot
  basis of the Cartan subalgebra t.  The fundamental weights and the simple
  coroots are dual bases, so the natural pairing of a weight with a point is
  the plain dot product of coordinate tuples.
* The integral lattice of the group is the coroot lattice (the group is
  simply connected); integral points of t are integer-coordinate CartanPoints.
* The basic inner product B is normalized so that B(theta, theta) = 2 for the
  highest root theta; equivalently, the shortest nonzero vector of the coroot
  lattice has squared length 2.
* Walls of the fundamental alcove are indexed by nodes 0..l of the extended
  Dynkin diagram, node 0 being the affine node (alpha_0 = -theta); the wall
  functional on a point xi is <alpha_i, xi> + delta_{i,0}.  Alcove vertex i
  is the vertex opposite wall i; vertex 0 is the origin, and vertex i >= 1
  corresponds to the simple root alpha_i (fundamental coweight over its mark).
  The face Delta_I spanned by the vertices in I is cut out by vanishing of
  exactly the walls outside I.

Scaled points xi = X / D, integer numerators over one denominator D > 0
(_scaled), have one owner here: D times their wall values (_scaled_walls) and
their face (_scaled_face) feed every face, cone and key test and start every
greedy reduction of a point (affine._reduce) and the orbit walk
(affine._walk), so no other place computes the wall values of a point.
Points the walk reached take their wall values from the walk, which moves
them by a row of point_table per reflection.

weyl_elements lists a W_I as integer affine maps on weights.  No library
path calls it: alternating sums over W_I walk signed orbits
(affine.weyl_orbit), and the enumeration stays as the tests' reference.

lie_data_to_json is the root datum as a document of ints and 'p/q'
strings (_frac_str); the CLI prints it, like every document, with
json.dumps(doc, indent=2).  _json_list is the one layout of a list at a
depth of such a document, for the writers that splice cells rendered once
into templates (fusion.fusion_table_json, resolution.certificate_json).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .intlinalg import mat_inv, mat_mul, mat_vec

Weight = tuple[int, ...]
RationalWeight = tuple[Fraction, ...]
CartanPoint = tuple[Fraction, ...]
FaceIndex = tuple[int, ...]


class InvalidLieTypeError(ValueError):
    """Raised for series/rank combinations outside the classification."""


class OutsideAlcoveError(ValueError):
    """Raised when a point is outside the closed fundamental alcove."""

    def __init__(self, wall: int, value: Fraction):
        self.wall = wall
        self.value = value
        super().__init__(f"point violates alcove wall {wall}: value {value} < 0")


class CheckFailed(AssertionError):
    """An exact internal check failed: a derived invariant of the library,
    such as d o d = 0, the Morse matching, Freudenthal integrality or the
    centre fold, or an acceptance criterion.  The message names the check
    and its witness."""


def check(ok: bool, message: str) -> None:
    """Raise CheckFailed(message) unless ok: the one way library code fails
    an internal check.  Unlike assert, python -O does not remove it."""
    if not ok:
        raise CheckFailed(message)


_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


@dataclass(frozen=True, order=True)
class LieType:
    """A simple Lie type, e.g. LieType('A', 2) or LieType.parse('g2')."""

    series: str
    rank: int

    def __post_init__(self):
        series = self.series.upper()
        object.__setattr__(self, "series", series)
        rank = self.rank
        ok = (
            (series == "A" and rank >= 1)
            or (series in ("B", "C") and rank >= 2)
            or (series == "D" and rank >= 4)
            or (series == "E" and rank in (6, 7, 8))
            or (series == "F" and rank == 4)
            or (series == "G" and rank == 2)
        )
        if not ok:
            hint = " (use A3)" if (series == "D" and rank == 3) else ""
            raise InvalidLieTypeError(f"invalid Lie type {series}{rank}{hint}")

    @classmethod
    def parse(cls, text: str) -> "LieType":
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise InvalidLieTypeError(f"cannot parse Lie type {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def cartan_matrix(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i_vee> (Bourbaki numbering)."""
    series, n = lie_type.series, lie_type.rank
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(pairs: Iterable[tuple[int, int]]):
        for i, j in pairs:
            A[i][j] = -1
            A[j][i] = -1

    if series == "A":
        chain((i, i + 1) for i in range(n - 1))
    elif series == "B":
        chain((i, i + 1) for i in range(n - 2))
        # alpha_n short: <alpha_{n-1}, alpha_n_vee> = -2
        A[n - 1][n - 2] = -2
        A[n - 2][n - 1] = -1
    elif series == "C":
        chain((i, i + 1) for i in range(n - 2))
        # alpha_n long: <alpha_n, alpha_{n-1}_vee> = -2
        A[n - 2][n - 1] = -2
        A[n - 1][n - 2] = -1
    elif series == "D":
        chain((i, i + 1) for i in range(n - 2))
        chain([(n - 3, n - 1)])
    elif series == "E":
        chain([(0, 2), (2, 3), (1, 3)])
        chain((i, i + 1) for i in range(3, n - 1))
    elif series == "F":
        A[0][1] = A[1][0] = -1
        A[1][2] = -1
        A[2][1] = -2
        A[2][3] = A[3][2] = -1
    elif series == "G":
        # alpha_1 short, alpha_2 long
        A[0][1] = -3
        A[1][0] = -1
    return tuple(tuple(row) for row in A)


def positive_roots_of_cartan(A: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Positive roots of a finite-type Cartan matrix, as coefficient vectors
    over the simple roots, ordered by height.

    Each root b carries its weight coordinates A b, whose entry i is the
    pairing <b, alpha_i_vee>.  b + alpha_i (add column i of A) is a root iff
    the depth p of the alpha_i-string below b exceeds that pairing."""
    n = len(A)
    columns = [tuple(row[i] for row in A) for i in range(n)]
    seen = {tuple(int(j == i) for j in range(n)): columns[i] for i in range(n)}
    frontier = sorted(seen)
    while frontier:
        new = []
        for b in frontier:
            weight = seen[b]
            for i in range(n):
                p = 0  # the depth: b - (p + 1) alpha_i is a root
                while p < b[i] and b[:i] + (b[i] - p - 1,) + b[i + 1 :] in seen:
                    p += 1
                if p > weight[i]:
                    up = b[:i] + (b[i] + 1,) + b[i + 1 :]
                    if up not in seen:
                        seen[up] = tuple([x + c for x, c in zip(weight, columns[i])])
                        new.append(up)
        frontier = sorted(new)
    return sorted(seen, key=lambda b: (sum(b), b))


def _symmetrizer(A: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Ratios d_i = (alpha_i, alpha_i)/2 with long roots normalized to d = 1."""
    n = len(A)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and A[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * A[i][j] / A[j][i]
                    stack.append(j)
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[union-attr]


class Root(NamedTuple):
    """A positive root: simple-root coefficients, fundamental-weight
    coordinates, coroot coordinates of its coroot, and half squared length."""

    coeffs: tuple[int, ...]
    weight: Weight
    coroot: tuple[int, ...]
    half_norm: Fraction


ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]


def _scaled_matrix(M: Sequence[Sequence[Fraction]]) -> ScaledMatrix:
    """A rational matrix as (numerators, den) with M = numerators / den, den
    the lcm of the entries' denominators."""
    den = lcm(*(x.denominator for row in M for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in M), den


def _weyl_order(heights: Iterable[int]) -> int:
    """Order of the Weyl group of a root system from the heights of its
    positive roots over its simple roots.

    |W| is the product of e + 1 over the exponents e, and exactly as many
    exponents are >= h as there are positive roots of height h (Kostant,
    Amer. J. Math. 81, 1959).  Both hold component by component, so the
    height counts of a reducible system give its order too, and no
    classification table is needed.
    """
    count = Counter(heights)
    order = 1
    for h, n in count.items():
        order *= (h + 1) ** (n - count.get(h + 1, 0))
    return order


@dataclass(frozen=True)
class LieData:
    """Immutable root-system database for one Lie type.

    Field summary (l = rank):
      cartan          l x l integer matrix, [i][j] = <alpha_j, alpha_i_vee>
      positive_roots  all positive roots, by height; last one is the highest
      marks           coefficients of the highest root over the simple roots
      comarks         coroot coordinates of the coroot of the highest root
      rho             Weyl vector (1, ..., 1)
      rho_sharp       B-sharp of rho, in coroot coordinates
      dual_coxeter    h_vee = 1 + <theta, rho_sharp>
      gram_coroot_scaled
                      Gram matrix of B on the simple coroots, as (integer
                      numerators N_c, denominator D_c)
      gram_weight_scaled
                      Gram matrix of B-dual on the fundamental weights, as
                      (N_w, D_w); the two matrices are mutually inverse
      node_root       weight coordinates of alpha_i for nodes i = 0..l
      node_coroot     coroot coordinates of alpha_i_vee for nodes i = 0..l
      weight_table    row i: <alpha_i, alpha_j_vee> for j = 0..l, column i of
                      the extended Cartan matrix; a weight's wall values
                      move by -c times it under reflection at node i
      point_table     row i: <alpha_j, alpha_i_vee> for j = 0..l, row i of
                      the extended Cartan matrix, then node_coroot[i]; a
                      point's wall values and numerators move by -c times it
      alcove_vertices vertex i of the fundamental alcove, i = 0..l
      _memo           every result cached for this type, keyed (kind, *args),
                      as ("face", I), ("walls", I), ("fusion", k, lam, mu) or
                      ("complex", J), the orbit complex that
                      resolution.verify_certificate keeps; not compared
    """

    lie_type: LieType
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    rho: Weight
    rho_sharp: CartanPoint
    dual_coxeter: int
    gram_coroot_scaled: ScaledMatrix
    gram_weight_scaled: ScaledMatrix
    node_root: tuple[Weight, ...]
    node_coroot: tuple[tuple[int, ...], ...]
    weight_table: tuple[tuple[int, ...], ...]
    point_table: tuple[tuple[int, ...], ...]
    alcove_vertices: tuple[CartanPoint, ...]
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]


_DATA_CACHE: dict[LieType | str, LieData] = {}


def build_lie_data(lie_type: LieType | str) -> LieData:
    """Construct (and cache) the full exact root datum for a Lie type, on
    integers.  A type string is a cache key too, so each is parsed once."""
    cached = _DATA_CACHE.get(lie_type)
    if cached is not None:
        return cached
    key = lie_type
    if isinstance(key, str):
        lie_type = LieType.parse(key)
        if lie_type in _DATA_CACHE:
            cached = _DATA_CACHE[key] = _DATA_CACHE[lie_type]
            return cached

    n = lie_type.rank
    A = cartan_matrix(lie_type)
    inv, inv_den = _scaled_matrix(mat_inv(A))
    # e = L d for the least such integer L, so the symmetrized Cartan matrix
    # S = e A is integral: S[i][j] = L (alpha_i, alpha_j)
    (e,), L = _scaled_matrix([_symmetrizer(A)])

    def root_record(coeffs: tuple[int, ...]) -> Root:
        weight = tuple(sum(A[r][j] * coeffs[j] for j in range(n)) for r in range(n))
        # q = coeffs S coeffs = L (beta, beta), and beta_vee = 2 beta / (beta, beta)
        q = sum(c * x * w for c, x, w in zip(coeffs, e, weight))
        coroot = tuple(2 * c * x for c, x in zip(coeffs, e))
        check(all(c % q == 0 for c in coroot), f"the coroot of the root {coeffs} is not integral")
        return Root(coeffs, weight, tuple(c // q for c in coroot), Fraction(q, 2 * L))

    roots = tuple(root_record(c) for c in positive_roots_of_cartan(A))
    theta = roots[-1]
    check(theta.half_norm == 1, "highest root must be long under B")
    marks = theta.coeffs
    comarks = theta.coroot

    # B(alpha_i_vee, alpha_j_vee) = A[j][i] / d_i, so the inverse, B-dual on
    # the fundamental weights, is A^-1[j][i] d_j (inv / inv_den)
    gram_coroot_scaled = _scaled_matrix([[Fraction(A[j][i] * L, e[i]) for j in range(n)] for i in range(n)])
    gram_weight_scaled = _scaled_matrix(
        [[Fraction(inv[j][i] * e[j], inv_den * L) for j in range(n)] for i in range(n)]
    )

    rho = (1,) * n
    # rho_sharp = B_sharp(rho) = R / D, and h_vee = 1 + <theta, rho_sharp>
    gram, D = gram_weight_scaled
    R = [sum(row) for row in gram]
    h_vee = 1 + sum(comarks)
    check(sum(map(mul, theta.weight, R)) == D * (h_vee - 1), "dual Coxeter number mismatch")

    node_root = (tuple(-w for w in theta.weight),) + tuple(
        tuple(A[r][s] for r in range(n)) for s in range(n)
    )
    node_coroot = (tuple(-c for c in comarks),) + tuple(
        tuple(1 if j == s else 0 for j in range(n)) for s in range(n)
    )
    # the extended Cartan matrix, [i][j] = <alpha_j, alpha_i_vee> at nodes 0..l
    ext = [tuple([sum(map(mul, root, coroot)) for root in node_root]) for coroot in node_coroot]

    vertices = [(Fraction(0),) * n]
    for s in range(n):
        vertices.append(tuple(Fraction(x, inv_den * marks[s]) for x in inv[s]))

    data = LieData(
        lie_type=lie_type,
        rank=n,
        cartan=A,
        positive_roots=roots,
        marks=marks,
        comarks=comarks,
        rho=rho,
        rho_sharp=tuple(Fraction(x, D) for x in R),
        dual_coxeter=h_vee,
        gram_coroot_scaled=gram_coroot_scaled,
        gram_weight_scaled=gram_weight_scaled,
        node_root=node_root,
        node_coroot=node_coroot,
        weight_table=tuple(zip(*ext)),
        point_table=tuple(row + coroot for row, coroot in zip(ext, node_coroot)),
        alcove_vertices=tuple(vertices),
    )
    _DATA_CACHE[lie_type] = _DATA_CACHE[key] = data
    return data


# ---------------------------------------------------------------------------
# pairings, B-flat / B-sharp


def pairing(mu: Sequence, xi: Sequence) -> Fraction:
    """Natural pairing <mu, xi> of a weight vector with a Cartan point.

    Fundamental weights and simple coroots are dual bases, so this is the
    plain dot product of the coordinate tuples.
    """
    if len(mu) != len(xi):
        raise ValueError("rank mismatch")
    return sum((Fraction(a) * b for a, b in zip(mu, xi)), Fraction(0))


def basic_pairing(data: LieData, v: Sequence, w: Sequence) -> Fraction:
    """B(v, w) for two Cartan points in coroot coordinates: <b_flat(v), w>."""
    return pairing(b_flat(data, v), w)


def _gram_apply(scaled: ScaledMatrix, v: Sequence) -> tuple[Fraction, ...]:
    """The l x l matrix N / den applied to v, one division per coordinate."""
    gram, den = scaled
    if len(v) != len(gram):
        raise ValueError("rank mismatch")
    v = [Fraction(x) for x in v]
    return tuple(sum(map(mul, row, v)) / den for row in gram)


def b_flat(data: LieData, xi: Sequence) -> RationalWeight:
    """B-flat: t -> t*, coroot coordinates to fundamental-weight coordinates."""
    return _gram_apply(data.gram_coroot_scaled, xi)


def b_sharp(data: LieData, mu: Sequence) -> CartanPoint:
    """B-sharp: t* -> t, inverse of b_flat."""
    return _gram_apply(data.gram_weight_scaled, mu)


# ---------------------------------------------------------------------------
# walls, alcove membership, faces


def _scaled(data: LieData, xi: Sequence) -> tuple[list[int], int]:
    """Integer numerators X and one common denominator D > 0 with xi = X / D."""
    if len(xi) != data.rank:
        raise ValueError("rank mismatch")
    coords = [Fraction(x) for x in xi]
    D = lcm(*(c.denominator for c in coords))
    return [c.numerator * (D // c.denominator) for c in coords], D


def _scaled_walls(data: LieData, X: Sequence[int], D: int) -> list[int]:
    """D times the wall values at X / D, nodes 0..l: root * X, plus D at node 0."""
    values = [sum(map(mul, root, X)) for root in data.node_root]
    values[0] += D
    return values


def _scaled_face(data: LieData, X: Sequence[int], D: int) -> FaceIndex:
    """The face index of X / D: the nodes whose wall value is positive.
    Raises OutsideAlcoveError at the first negative wall value."""
    face = []
    for i, v in enumerate(_scaled_walls(data, X, D)):
        if v < 0:
            raise OutsideAlcoveError(i, Fraction(v, D))
        if v:
            face.append(i)
    return tuple(face)


def _sharp_scaled(data: LieData, w: Sequence[int], level: int) -> tuple[list[int], int]:
    """B_sharp(w) / level as integer numerators X over one denominator D:
    with gram_weight_scaled = (N_w, D_w), X = N_w w and D = D_w level."""
    gram, den = data.gram_weight_scaled
    return [sum(map(mul, row, w)) for row in gram], den * level


def wall_value(data: LieData, i: int, xi: Sequence) -> Fraction:
    """Value of the alcove wall functional <alpha_i, .> + delta_{i,0} at a point."""
    if not 0 <= i <= data.rank:
        raise ValueError(f"wall index {i} out of range")
    X, D = _scaled(data, xi)
    return Fraction(_scaled_walls(data, X, D)[i], D)


def alcove_face_of(data: LieData, xi: Sequence) -> FaceIndex:
    """The face index I with xi in the relative interior of Delta_I.

    Raises OutsideAlcoveError (carrying the violated wall) if xi is not in
    the closed fundamental alcove.
    """
    return _scaled_face(data, *_scaled(data, xi))


def _check_face_index(data: LieData, I: Sequence[int]) -> FaceIndex:
    I = tuple(sorted(set(I)))
    if not I:
        raise ValueError("face index must be nonempty")
    if I[0] < 0 or I[-1] > data.rank:
        raise ValueError(f"face index {I} out of range 0..{data.rank}")
    return I


def _walls_outside(data: LieData, I: FaceIndex) -> tuple[int, ...]:
    """The nodes outside the node tuple I: the walls of the cone of I, which
    generate W_I.  Cached per LieData as ("walls", I) when first asked for:
    rank l has 2^(l+1) - 1 node sets, too many to list ahead at rank 20."""
    walls = data._memo.get(("walls", I))
    if walls is None:
        walls = data._memo["walls", I] = tuple([i for i in range(data.rank + 1) if i not in I])
    return walls


@dataclass(frozen=True)
class FaceData:
    """Data attached to the alcove face Delta_I.

    The roots of the nodes outside I form the simple system of the
    centralizer subgroup attached to the face, and the reflections in those
    walls generate the finite group W_I.
    """

    I: FaceIndex
    rho_I: RationalWeight
    nu_I: RationalWeight
    nu_I_sharp: CartanPoint
    coroot_lattice_basis: tuple[tuple[int, ...], ...]
    weyl_order: int


def face_data(data: LieData, I: Sequence[int]) -> FaceData:
    """Face data for nonempty I, cached per LieData."""
    I = _check_face_index(data, I)
    cached = data._memo.get(("face", I))
    if cached is not None:
        return cached

    n, h_vee = data.rank, data.dual_coxeter
    basis = tuple(data.node_coroot[a] for a in _walls_outside(data, I))
    # the positive roots of the subsystem, as (weight, height over its simple
    # roots), read off those of G: the roots with no simple root of I, and
    # when node 0 is outside I, alpha_0 + theta - gamma of weight -gamma for
    # each gamma that agrees with theta on I
    nodes, theta = [i - 1 for i in I if i], data.highest_root
    sub = [(r.weight, sum(r.coeffs)) for r in data.positive_roots if not any(r.coeffs[i] for i in nodes)]
    if I[0]:
        top = 1 + sum(theta.coeffs)
        sub += [([-x for x in r.weight], top - sum(r.coeffs)) for r in data.positive_roots
                if all(r.coeffs[i] == theta.coeffs[i] for i in nodes)]
    # 2 rho_I, the sum of the positive roots of the subsystem (a zero row
    # keeps it l long when there is none), and 2 (rho - rho_I)
    two_rho_I = [*map(sum, zip([0] * n, *[w for w, _ in sub]))]
    shift = [2 * r - x for r, x in zip(data.rho, two_rho_I)]
    # nu_I_sharp = B_sharp(rho - rho_I) / h_vee must expose exactly the walls
    # in I; this validates the root filter behind rho_I
    X, D = _sharp_scaled(data, shift, 2 * h_vee)
    check(_scaled_face(data, X, D) == I, f"{data.lie_type}: nu_I_sharp is not interior to the face {I}")
    # rho - rho_I pairs integrally with the coroot lattice
    for lam in basis:
        check(sum(map(mul, shift, lam)) % 2 == 0, f"{data.lie_type}: rho - rho_I of {I} is not integral on {lam}")

    face = FaceData(
        I=I,
        rho_I=tuple(Fraction(x, 2) for x in two_rho_I),
        nu_I=tuple(Fraction(x, 2 * h_vee) for x in shift),
        nu_I_sharp=tuple(Fraction(x, D) for x in X),
        coroot_lattice_basis=basis,
        weyl_order=_weyl_order(h for _, h in sub),
    )
    data._memo["face", I] = face
    return face


# ---------------------------------------------------------------------------
# the finite reflection groups W_I as explicit affine maps on weights


class WeylElt(NamedTuple):
    """An element of a W_I as an integer affine map on weights: the level-m
    action is nu -> lin @ nu + m * trans."""

    word: tuple[int, ...]
    sign: int
    lin: tuple[tuple[int, ...], ...]
    trans: Weight

    @property
    def length(self) -> int:
        return len(self.word)


def _generator_map(data: LieData, i: int):
    n = data.rank
    a = data.node_root[i]   # weight coordinates of alpha_i
    g = data.node_coroot[i]  # coroot coordinates of alpha_i_vee
    lin = tuple(
        tuple(int(r == c) - a[r] * g[c] for c in range(n))
        for r in range(n)
    )
    trans = tuple(-a[r] if i == 0 else 0 for r in range(n))
    return lin, trans


_WEYL_ENUMERATION_LIMIT = 2_000_000


def _bounded_weyl_order(data: LieData, I: FaceIndex) -> int:
    """|W_I|, refused beyond _WEYL_ENUMERATION_LIMIT: listing or walking a
    couple of million elements or more would take hours and gigabytes."""
    order = face_data(data, I).weyl_order
    if order > _WEYL_ENUMERATION_LIMIT:
        raise ValueError(
            f"W_{list(I)} of {data.lie_type} has {order} elements; "
            "explicit enumeration is not supported at this size"
        )
    return order


def weyl_elements(data: LieData, I: Sequence[int]) -> tuple[WeylElt, ...]:
    """All elements of W_I by breadth-first closure over its generators.

    No library path calls this: alternating sums over W_I walk signed
    orbits (affine.weyl_orbit).  It stays as an independent reference for
    tests.  W_I is generated by the reflections in the walls outside I; it
    is finite for nonempty I but its order grows quickly with the rank, so
    this is computed lazily, cached, and refused beyond the size limit.
    """
    I = _check_face_index(data, I)
    cached = data._memo.get(("weyl", I))
    if cached is not None:
        return cached
    order = _bounded_weyl_order(data, I)

    n = data.rank
    gens = {i: _generator_map(data, i) for i in _walls_outside(data, I)}
    ident = WeylElt(
        word=(),
        sign=1,
        lin=tuple(tuple(int(r == c) for c in range(n)) for r in range(n)),
        trans=(0,) * n,
    )
    seen = {(ident.lin, ident.trans): ident}
    frontier = [ident]
    while frontier:
        new = []
        for elt in frontier:
            for i, (lin, trans) in gens.items():
                nlin = mat_mul(lin, elt.lin)
                ntrans = tuple(
                    x + y for x, y in zip(mat_vec(lin, elt.trans), trans)
                )
                key = (nlin, ntrans)
                if key in seen:
                    continue
                cand = WeylElt(
                    word=(i,) + elt.word,
                    sign=-elt.sign,
                    lin=nlin,
                    trans=ntrans,
                )
                seen[key] = cand
                new.append(cand)
        frontier = new
    elements = tuple(sorted(seen.values(), key=lambda e: (e.length, e.word)))
    check(len(elements) == order, f"{data.lie_type}: W_{I} has {len(elements)} elements, not {order}")
    data._memo["weyl", I] = elements
    return elements


def apply_weight(elt: WeylElt, nu: Sequence[int], m: int) -> Weight:
    """Level-m action of a Weyl element on a weight."""
    return tuple(x + m * t for x, t in zip(mat_vec(elt.lin, nu), elt.trans))


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x: Fraction | int, D: int = 1) -> str:
    """x / D in lowest terms (x int or Fraction) as 'p/q', or 'p' if whole."""
    if not isinstance(x, int):
        x, D = x.numerator, x.denominator * D
    g = gcd(x, D)
    return str(x // g) if g == D else f"{x // g}/{D // g}"


def _json_list(items: Iterable[str], depth: int) -> str:
    """The text json.dumps(..., indent=2) gives a list nested depth levels
    deep in a document, from its items rendered at depth + 1: one item per
    line, two spaces deeper than the line that holds the list; "[]" when
    there is none.  A list of ints v is _json_list(map(str, v), depth)."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return "[" + pad + body + "\n" + "  " * depth + "]" if body else "[]"


def lie_data_to_json(data: LieData) -> dict:
    """JSON-compatible dump of the root datum; fractions as 'p/q' strings."""
    (coroot, coroot_den), (weight, weight_den) = data.gram_coroot_scaled, data.gram_weight_scaled
    return {
        "type": str(data.lie_type),
        "rank": data.rank,
        "cartan_matrix": [list(row) for row in data.cartan],
        "positive_roots": [list(r.weight) for r in data.positive_roots],
        "highest_root": list(data.highest_root.weight),
        "marks": list(data.marks),
        "comarks": list(data.comarks),
        "rho": list(data.rho),
        "dual_coxeter": data.dual_coxeter,
        "gram_coroot": [[_frac_str(x, coroot_den) for x in row] for row in coroot],
        "gram_weight": [[_frac_str(x, weight_den) for x in row] for row in weight],
        "alcove_vertices": [[_frac_str(x) for x in v] for v in data.alcove_vertices],
    }
