"""Exact root-system and alcove data for compact simple simply connected Lie groups.

Supported types: A_l (l>=1), B_l (l>=2), C_l (l>=2), D_l (l>=4), E_6/7/8,
F_4, G_2.  All arithmetic is exact rational.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, NamedTuple, Sequence

from .intlinalg import det, fmat, identity, mat_inv, mat_mul, mat_vec

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
    over the simple roots, ordered by height."""
    n = len(A)
    seen = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = sorted(seen)
    while frontier:
        new = []
        for b in frontier:
            for i in range(n):
                pairing = sum(b[j] * A[i][j] for j in range(n))
                # alpha_i-string through b: depth p already enumerated, so
                # b + alpha_i is a root iff p - pairing > 0
                p = 0
                cur = list(b)
                while True:
                    cur[i] -= 1
                    if tuple(cur) in seen:
                        p += 1
                    else:
                        break
                if p - pairing > 0:
                    up = list(b)
                    up[i] += 1
                    t = tuple(up)
                    if t not in seen:
                        seen.add(t)
                        new.append(t)
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


def _weyl_order_of_cartan(A: Sequence[Sequence[int]]) -> int:
    """Order of the Weyl group of a finite-type Cartan matrix.

    Uses |W| = prod over connected components of n! * (product of marks of
    the highest root) * det(Cartan), which needs no classification tables.
    """
    n = len(A)
    if n == 0:
        return 1
    unseen = set(range(n))
    order = 1
    while unseen:
        comp = [unseen.pop()]
        queue = list(comp)
        while queue:
            i = queue.pop()
            for j in list(unseen):
                if A[i][j] != 0:
                    unseen.discard(j)
                    comp.append(j)
                    queue.append(j)
        comp.sort()
        sub = [[A[i][j] for j in comp] for i in comp]
        roots = positive_roots_of_cartan(sub)
        marks = roots[-1]
        prod = 1
        for m in marks:
            prod *= m
        comp_det = det(sub)
        assert comp_det.denominator == 1 and comp_det > 0
        order *= factorial(len(comp)) * prod * int(comp_det)
    return order


@dataclass(frozen=True)
class LieData:
    """Immutable root-system database for one Lie type.

    Field summary (l = rank):
      cartan          l x l integer matrix, [i][j] = <alpha_j, alpha_i_vee>
      cartan_inv      exact inverse of cartan
      d               symmetrizer, d_i = (alpha_i, alpha_i)/2, long = 1
      positive_roots  all positive roots, by height; last one is the highest
      marks           coefficients of the highest root over the simple roots
      comarks         coroot coordinates of the coroot of the highest root
      rho             Weyl vector (1, ..., 1)
      rho_sharp       B-sharp of rho, in coroot coordinates
      dual_coxeter    h_vee = 1 + <theta, rho_sharp>
      gram_coroot     Gram matrix of B on the simple coroots
      gram_weight     Gram matrix of B-dual on the fundamental weights
      gram_coroot_scaled, gram_weight_scaled
                      the same two matrices as (integer numerators,
                      denominator) pairs
      node_root       weight coordinates of alpha_i for nodes i = 0..l
      node_coroot     coroot coordinates of alpha_i_vee for nodes i = 0..l
      node_d          (alpha_i, alpha_i)/2 for nodes i = 0..l
      theta_pairing   <alpha_i, theta_vee> for nodes i = 0..l
      alcove_vertices vertex i of the fundamental alcove, i = 0..l
    """

    lie_type: LieType
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    cartan_inv: tuple[tuple[Fraction, ...], ...]
    d: tuple[Fraction, ...]
    positive_roots: tuple[Root, ...]
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    rho: Weight
    rho_sharp: CartanPoint
    dual_coxeter: int
    gram_coroot: tuple[tuple[Fraction, ...], ...]
    gram_weight: tuple[tuple[Fraction, ...], ...]
    gram_coroot_scaled: ScaledMatrix
    gram_weight_scaled: ScaledMatrix
    node_root: tuple[Weight, ...]
    node_coroot: tuple[tuple[int, ...], ...]
    node_d: tuple[Fraction, ...]
    theta_pairing: tuple[int, ...]
    alcove_vertices: tuple[CartanPoint, ...]
    _face_cache: dict = field(default_factory=dict, compare=False, repr=False)
    _weyl_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    def __hash__(self):
        return hash(self.lie_type)


_DATA_CACHE: dict[LieType, LieData] = {}


def build_lie_data(lie_type: LieType | str) -> LieData:
    """Construct (and cache) the full exact root datum for a Lie type."""
    if isinstance(lie_type, str):
        lie_type = LieType.parse(lie_type)
    cached = _DATA_CACHE.get(lie_type)
    if cached is not None:
        return cached

    n = lie_type.rank
    A = cartan_matrix(lie_type)
    A_inv = mat_inv(A)
    d = _symmetrizer(A)

    def root_record(coeffs: tuple[int, ...]) -> Root:
        weight = tuple(sum(A[r][j] * coeffs[j] for j in range(n)) for r in range(n))
        # (beta, beta)/2 from the Gram matrix S[i][j] = d_i * cartan[i][j]
        half = (
            sum(
                coeffs[i] * coeffs[j] * d[i] * A[i][j]
                for i in range(n)
                for j in range(n)
            )
            / 2
        )
        coroot_frac = tuple(coeffs[j] * d[j] / half for j in range(n))
        assert all(c.denominator == 1 for c in coroot_frac), coeffs
        return Root(coeffs, weight, tuple(int(c) for c in coroot_frac), half)

    roots = tuple(root_record(c) for c in positive_roots_of_cartan(A))
    theta = roots[-1]
    assert theta.half_norm == 1, "highest root must be long under B"
    marks = theta.coeffs
    comarks = theta.coroot

    gram_coroot = fmat(
        [[Fraction(A[j][i]) / d[i] for j in range(n)] for i in range(n)]
    )
    gram_weight = mat_inv(gram_coroot)

    rho = (1,) * n
    rho_sharp = mat_vec(gram_weight, rho)
    h_vee = 1 + sum(theta.weight[j] * rho_sharp[j] for j in range(n))
    assert h_vee.denominator == 1
    h_vee = int(h_vee)
    assert h_vee == 1 + sum(comarks), "dual Coxeter number mismatch"

    node_root = (tuple(-w for w in theta.weight),) + tuple(
        tuple(A[r][s] for r in range(n)) for s in range(n)
    )
    node_coroot = (tuple(-c for c in comarks),) + tuple(
        tuple(1 if j == s else 0 for j in range(n)) for s in range(n)
    )
    node_d = (Fraction(1),) + d

    vertices = [tuple(Fraction(0) for _ in range(n))]
    for s in range(n):
        vertices.append(tuple(A_inv[s][j] / marks[s] for j in range(n)))

    data = LieData(
        lie_type=lie_type,
        rank=n,
        cartan=A,
        cartan_inv=A_inv,
        d=d,
        positive_roots=roots,
        marks=marks,
        comarks=comarks,
        rho=rho,
        rho_sharp=rho_sharp,
        dual_coxeter=h_vee,
        gram_coroot=gram_coroot,
        gram_weight=gram_weight,
        gram_coroot_scaled=_scaled_matrix(gram_coroot),
        gram_weight_scaled=_scaled_matrix(gram_weight),
        node_root=node_root,
        node_coroot=node_coroot,
        node_d=node_d,
        theta_pairing=tuple(sum(c * r for c, r in zip(comarks, root)) for root in node_root),
        alcove_vertices=tuple(vertices),
    )
    _DATA_CACHE[lie_type] = data
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
    """B(v, w) for two Cartan points in coroot coordinates."""
    if len(v) != data.rank or len(w) != data.rank:
        raise ValueError("rank mismatch")
    return pairing(mat_vec(data.gram_coroot, v), w)


def b_flat(data: LieData, xi: Sequence) -> RationalWeight:
    """B-flat: t -> t*, coroot coordinates to fundamental-weight coordinates."""
    if len(xi) != data.rank:
        raise ValueError("rank mismatch")
    return mat_vec(data.gram_coroot, tuple(Fraction(x) for x in xi))

def b_sharp(data: LieData, mu: Sequence) -> CartanPoint:
    """B-sharp: t* -> t, inverse of b_flat."""
    if len(mu) != data.rank:
        raise ValueError("rank mismatch")
    return mat_vec(data.gram_weight, tuple(Fraction(x) for x in mu))


# ---------------------------------------------------------------------------
# walls, alcove membership, faces


def wall_value(data: LieData, i: int, xi: Sequence) -> Fraction:
    """Value of the alcove wall functional <alpha_i, .> + delta_{i,0} at a point."""
    if not 0 <= i <= data.rank:
        raise ValueError(f"wall index {i} out of range")
    value = pairing(data.node_root[i], xi)
    return value + 1 if i == 0 else value


def alcove_face_of(data: LieData, xi: Sequence) -> FaceIndex:
    """The face index I with xi in the relative interior of Delta_I.

    Raises OutsideAlcoveError (carrying the violated wall) if xi is not in
    the closed fundamental alcove.
    """
    strict = []
    for i in range(data.rank + 1):
        v = wall_value(data, i, xi)
        if v < 0:
            raise OutsideAlcoveError(i, v)
        if v > 0:
            strict.append(i)
    return tuple(strict)


def _check_face_index(data: LieData, I: Sequence[int]) -> FaceIndex:
    I = tuple(sorted(set(I)))
    if not I:
        raise ValueError("face index must be nonempty")
    if I[0] < 0 or I[-1] > data.rank:
        raise ValueError(f"face index {I} out of range 0..{data.rank}")
    return I


@dataclass(frozen=True)
class FaceData:
    """Data attached to the alcove face Delta_I.

    ``nodes_complement`` lists the nodes outside I; their roots form the
    simple system of the centralizer subgroup attached to the face, and the
    reflections in those walls generate the finite group W_I.
    """

    I: FaceIndex
    nodes_complement: tuple[int, ...]
    rho_I: RationalWeight
    nu_I: RationalWeight
    nu_I_sharp: CartanPoint
    coroot_lattice_basis: tuple[tuple[int, ...], ...]
    weyl_order: int


def face_data(data: LieData, I: Sequence[int]) -> FaceData:
    """Face data for nonempty I, cached per LieData."""
    I = _check_face_index(data, I)
    cached = data._face_cache.get(I)
    if cached is not None:
        return cached

    n = data.rank
    comp = tuple(i for i in range(n + 1) if i not in I)
    sub = [
        [
            int(pairing(data.node_root[b], data.node_coroot[a]))
            for b in comp
        ]
        for a in comp
    ]
    half_sum = [Fraction(0)] * n
    if comp:
        for coeffs in positive_roots_of_cartan(sub):
            for a, c in enumerate(coeffs):
                if c:
                    for r in range(n):
                        half_sum[r] += Fraction(c, 2) * data.node_root[comp[a]][r]
    rho_I = tuple(half_sum)
    nu_I = tuple((Fraction(r) - ri) / data.dual_coxeter for r, ri in zip(data.rho, rho_I))
    nu_sharp = b_sharp(data, nu_I)
    # nu_I_sharp must expose exactly the walls in I; this validates the
    # subsystem enumeration behind rho_I
    assert alcove_face_of(data, nu_sharp) == I, (data.lie_type, I)

    basis = tuple(data.node_coroot[a] for a in comp)
    for lam in basis:
        val = pairing(tuple(Fraction(r) - ri for r, ri in zip(data.rho, rho_I)), lam)
        assert val.denominator == 1, (I, lam)

    face = FaceData(
        I=I,
        nodes_complement=comp,
        rho_I=rho_I,
        nu_I=nu_I,
        nu_I_sharp=nu_sharp,
        coroot_lattice_basis=basis,
        weyl_order=_weyl_order_of_cartan(sub),
    )
    data._face_cache[I] = face
    return face


# ---------------------------------------------------------------------------
# the finite reflection groups W_I as explicit affine maps


class WeylElt(NamedTuple):
    """An element of a W_I, stored as affine maps in both pictures.

    ``lin``/``trans`` act on Cartan points (standard affine action on t);
    ``wlin``/``wtrans`` act on weights, where the translation scales with
    the level: the level-m action is nu -> wlin @ nu + m * wtrans.
    """

    word: tuple[int, ...]
    sign: int
    lin: tuple[tuple[Fraction, ...], ...]
    trans: CartanPoint
    wlin: tuple[tuple[Fraction, ...], ...]
    wtrans: Weight

    @property
    def length(self) -> int:
        return len(self.word)


def _generator_maps(data: LieData, i: int):
    n = data.rank
    a = data.node_root[i]   # weight coordinates of alpha_i
    g = data.node_coroot[i]  # coroot coordinates of alpha_i_vee
    lin = tuple(
        tuple(Fraction(1 if r == c else 0) - Fraction(g[r]) * a[c] for c in range(n))
        for r in range(n)
    )
    trans = tuple(Fraction(-g[r]) if i == 0 else Fraction(0) for r in range(n))
    wlin = tuple(
        tuple(Fraction(1 if r == c else 0) - Fraction(a[r]) * g[c] for c in range(n))
        for r in range(n)
    )
    wtrans = tuple((-a[r]) if i == 0 else 0 for r in range(n))
    return lin, trans, wlin, wtrans


_WEYL_ENUMERATION_LIMIT = 2_000_000


def weyl_elements(data: LieData, I: Sequence[int]) -> tuple[WeylElt, ...]:
    """All elements of W_I by breadth-first closure over its generators.

    W_I is generated by the reflections in the walls outside I; it is finite
    for nonempty I but its order grows quickly with the rank, so this is
    computed lazily and cached.  Orders beyond a couple of million elements
    are refused rather than silently consuming hours and gigabytes.
    """
    I = _check_face_index(data, I)
    cached = data._weyl_cache.get(I)
    if cached is not None:
        return cached
    order = face_data(data, I).weyl_order
    if order > _WEYL_ENUMERATION_LIMIT:
        raise ValueError(
            f"W_{list(I)} of {data.lie_type} has {order} elements; "
            "explicit enumeration is not supported at this size"
        )

    n = data.rank
    gens = {
        i: _generator_maps(data, i)
        for i in range(n + 1)
        if i not in I
    }
    ident = WeylElt(
        word=(),
        sign=1,
        lin=identity(n),
        trans=tuple(Fraction(0) for _ in range(n)),
        wlin=identity(n),
        wtrans=(0,) * n,
    )
    seen = {(ident.lin, ident.trans): ident}
    frontier = [ident]
    while frontier:
        new = []
        for elt in frontier:
            for i, (lin, trans, wlin, wtrans) in gens.items():
                nlin = mat_mul(lin, elt.lin)
                ntrans = tuple(
                    x + y for x, y in zip(mat_vec(lin, elt.trans), trans)
                )
                key = (nlin, ntrans)
                if key in seen:
                    continue
                nwlin = mat_mul(wlin, elt.wlin)
                nwtrans_f = tuple(
                    x + y for x, y in zip(mat_vec(wlin, elt.wtrans), wtrans)
                )
                assert all(Fraction(x).denominator == 1 for x in nwtrans_f)
                cand = WeylElt(
                    word=(i,) + elt.word,
                    sign=-elt.sign,
                    lin=nlin,
                    trans=ntrans,
                    wlin=nwlin,
                    wtrans=tuple(int(x) for x in nwtrans_f),
                )
                seen[key] = cand
                new.append(cand)
        frontier = new
    elements = tuple(sorted(seen.values(), key=lambda e: (e.length, e.word)))
    face = face_data(data, I)
    assert len(elements) == face.weyl_order, (data.lie_type, I)
    data._weyl_cache[I] = elements
    return elements


def apply_point(elt: WeylElt, xi: Sequence) -> CartanPoint:
    """Standard affine action of a Weyl element on a Cartan point."""
    moved = mat_vec(elt.lin, tuple(Fraction(x) for x in xi))
    return tuple(a + b for a, b in zip(moved, elt.trans))


def apply_weight(elt: WeylElt, nu: Sequence[int], m: int) -> Weight:
    """Level-m action of a Weyl element on a weight."""
    moved = mat_vec(elt.wlin, nu)
    out = tuple(a + m * b for a, b in zip(moved, elt.wtrans))
    assert all(Fraction(x).denominator == 1 for x in out)
    return tuple(int(x) for x in out)


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def lie_data_to_json(data: LieData) -> dict:
    """JSON-compatible dump of the root datum; fractions as 'p/q' strings."""
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
        "gram_coroot": [[_frac_str(x) for x in row] for row in data.gram_coroot],
        "gram_weight": [[_frac_str(x) for x in row] for row in data.gram_weight],
        "alcove_vertices": [[_frac_str(x) for x in v] for v in data.alcove_vertices],
    }
