"""The affine Weyl group: level-m action on weights, dominantization with
sign, signed orbits of the finite groups W_I, the standard affine action on
the Cartan subalgebra, and orbit enumeration with the length function.

The group is generated by the simple affine reflections indexed by the nodes
0..l of the extended Dynkin diagram.  On weights at level m the reflection is

    nu -> nu - (<nu, alpha_i_vee> + m * delta_{i,0}) * alpha_i

and on Cartan points (standard action on t)

    xi -> xi - (<alpha_i, xi> + delta_{i,0}) * alpha_i_vee.

A weight is a tuple of l ints, its fundamental-weight coordinates.  Its wall
values at nodes 0..l, nu[i-1] at node i >= 1 and m - <nu, theta_vee> at
node 0, have one owner, _wall_vector, which builds the vector every
reduction and walk of a weight starts from.  _weight_walls refuses a
non-weight with ValueError and then calls it; every level, cone and
dominance test, and each term of dominantize_terms, reads the values there.
Weights the library built go to _wall_vector unchecked: fusion's
Freudenthal recursion, weight systems and product kernel.  The walls of the
cone of a face index I, the nodes outside I, are lie._walls_outside; a
caller's wall list is checked by _wall_list.

One greedy loop, _reduce, does every reduction ("reflect at the lowest
violated listed wall").  It walks a vector that starts with the l+1 wall
values: a reflection at node i with wall value c subtracts c times row i of
a LieData table, so no wall value is recomputed inside the loop.  A weight
enters as (c0, *nu) and reflects by weight_table, the columns of the
extended Cartan matrix; a point X / D (integer numerators over one
denominator) enters as _point_vector, lie._scaled_walls(X, D) followed by
X, and reflects by point_table, the rows followed by the coroot.  The image
is the tail of the vector, and D never changes.  One loop, _shifted_images,
reduces a sum of terms with signs: each level-0 wall vector is added to
one base vector, which carries the level and the rho shift, and the images
are unshifted and accumulated.  dominantize_terms runs it for the
weight-side maps of the library and fusion's simple currents, and fusion's
Klimyk and Kac-Walton kernel runs it over a cached weight system;
dominantize_walls reduces one weight.

One walk, _walk, goes the other way, for weights and points alike: it
yields an orbit one layer at a time, as vectors in the form of _reduce,
reflecting each vector at every listed wall whose value is positive, so
each image is one step longer.  weyl_orbit is this walk from (c0, *nu), a
weight in the closed cone of at most l listed walls (so the group is
finite), and signs each point by its depth; a fusion weight system keeps
the walk's vectors themselves.  Every alternating sum over a W_I is this
walk, so no group element is ever listed.

Orbits live entirely in these integers.  An OrbitContext fixes D as the lcm
of the base point's denominators, and every point of the orbit lies in
(1/D) Z^l, so its BFS layers and length table hold numerator tuples.  Its
layers are the walk from the base point's vector at all l+1 walls, and it
keeps each point's vector, so the orbit complex reads the wall values of
every point the walk reached off it.  The length as a count of crossed
hyperplanes (_scaled_crossing_length) reads numerators too.  Fraction
appears only at the edges: orbit_up_to_length returns Fraction points, and
cone_position, reduce_point_to_cone, reduce_point_to_alcove and
crossing_length are thin wrappers that scale a Fraction point once with
lie._scaled and return Fraction points by lie._unscaled.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .lie import (
    CartanPoint,
    LieData,
    Weight,
    _check_face_index,
    _scaled,
    _scaled_face,
    _scaled_walls,
    _unscaled,
    _walls_outside,
    face_data,
)


class SignedWeight(NamedTuple):
    """A dominantized weight with the sign and word length of the reduction.

    sign is 0 exactly when the orbit meets a reflection wall (the weight is
    then annihilated by skew-symmetrization); otherwise sign = (-1)^word_length.
    """

    weight: Weight
    sign: int
    word_length: int


class OrbitPoint(NamedTuple):
    """An orbit point and its length.  OrbitContext gives the point as
    integer numerators over its denominator D; orbit_up_to_length gives
    Fraction coordinates."""

    point: tuple
    length: int


def _wall_vector(data: LieData, nu: Sequence[int], m: int = 0) -> tuple[int, ...]:
    """(m - <nu, theta_vee>, *nu), the wall values of a weight at level m at
    nodes 0..l: the vector _reduce and _walk start from.  Unchecked, for
    weights the library built; _weight_walls checks a caller's weight."""
    return (m - sum(map(mul, data.comarks, nu)), *nu)


def _weight_walls(data: LieData, nu: Sequence[int], m: int) -> tuple[int, ...]:
    """<nu, alpha_i_vee> + m * delta_{i,0} at nodes 0..l; ValueError unless nu has l
    coordinates, each an int and none a bool.  c0 is an int when every
    coordinate is one, and a float or Fraction coordinate makes it none; a
    bool keeps it an int, so bools are looked for apart: (0, True) equals
    and hashes like (0, 1), and would reach that weight's cache entries."""
    if len(nu) != data.rank:
        raise ValueError(f"weight {tuple(nu)} has {len(nu)} coordinates, not {data.rank}")
    vec = _wall_vector(data, nu, m)
    if type(vec[0]) is not int or bool in map(type, nu):
        raise ValueError(f"weight {tuple(nu)} has a coordinate that is not an int")
    return vec


def weight_wall_value(data: LieData, nu: Sequence[int], i: int, m: int) -> int:
    """<nu, alpha_i_vee> + m * delta_{i,0}; nonnegative for all i on the
    level-m alcove region."""
    if not 0 <= i <= data.rank:
        raise ValueError(f"wall index {i} out of range")
    return _weight_walls(data, nu, m)[i]


def affine_reflect_weight(data: LieData, i: int, nu: Sequence[int], m: int) -> Weight:
    """Simple affine reflection at wall i, acting on a weight at level m."""
    c = weight_wall_value(data, nu, i, m)
    root = data.node_root[i]
    return tuple(x - c * r for x, r in zip(nu, root))


def _wall_list(data: LieData, walls: Iterable[int], m: int) -> list[int]:
    """The listed walls sorted, each once.  ValueError for an entry that is
    not an int (a bool or a float is none), a node outside 0..l, or all l+1
    walls at a level m < 1: they bound a fundamental domain only at m >= 1,
    and a reduction there would never end."""
    walls = [*walls]
    if {*map(type, walls)} - {int}:
        raise ValueError(f"wall list {walls} has an entry that is not an int")
    walls = sorted(set(walls))
    if walls and (walls[0] < 0 or walls[-1] > data.rank):
        raise ValueError(f"wall list {walls} has a node outside 0..{data.rank}")
    if m < 1 and len(walls) > data.rank:
        raise ValueError("level must be >= 1")
    return walls


def _reduce(
    vec: Sequence[int], rows: Sequence[Sequence[int]], walls: Sequence[int]
) -> tuple[Sequence[int], list[int], bool]:
    """The greedy reduction: reflect at the lowest violated listed wall until
    no listed wall value is negative.

    vec starts with the l+1 wall values; a reflection at node i with wall
    value c subtracts c * rows[i] from all of vec.  Returns (vec, word,
    whether the image lies on a listed wall), the last read off the final
    pass.  vec itself is never changed.
    """
    word: list[int] = []
    while True:
        on_wall = False
        for i in walls:
            c = vec[i]
            if c < 0:
                vec = [v - c * r for v, r in zip(vec, rows[i])]
                word.append(i)
                break
            if c == 0:
                on_wall = True
        else:
            return vec, word, on_wall


def dominantize_walls(
    data: LieData, nu: Sequence[int], m: int, walls: Iterable[int]
) -> SignedWeight:
    """Reduce a weight into the region where the listed wall values are >= 0,
    by greedy reflection at the lowest violated wall.

    Sign is 0 if the result lies on one of the listed walls, otherwise the
    parity of the number of reflections performed.  ValueError for a
    non-weight, a wall that is not an int in 0..l, or all l+1 walls at a
    level m < 1.
    """
    walls = _wall_list(data, walls, m)
    vec, word, on_wall = _reduce(_weight_walls(data, nu, m), data.weight_table, walls)
    count = len(word)
    return SignedWeight(tuple(vec[1:]), 0 if on_wall else (-1) ** count, count)


def _shifted_images(
    data: LieData, base: Sequence[int], vectors: Mapping[tuple[int, ...], int], walls: Sequence[int], shift: int
) -> dict[Weight, int]:
    """The signed term reduction: sum of sign * c at rep - shift * rho over
    the level-0 wall vectors tau -> c, where (rep, sign) reduces base + tau
    into the cone of the checked walls; terms landing on a wall drop out.
    base is the wall vector of the weight every term is moved by, at the
    level of the reduction."""
    rows, out = data.weight_table, {}
    for tau, c in vectors.items():
        vec, word, on_wall = _reduce([*map(add, base, tau)], rows, walls)
        if not on_wall:
            key = tuple([x - shift for x in vec[1:]] if shift else vec[1:])
            out[key] = out.get(key, 0) + (-c if len(word) & 1 else c)
    return {w: c for w, c in out.items() if c}


def dominantize_terms(
    data: LieData, terms: Mapping[Weight, int], m: int, walls: Iterable[int], shift: int
) -> dict[Weight, int]:
    """Sum of sign * c at rep - shift over the terms c * nu, where (rep, sign)
    reduces nu + shift * rho into the cone of the listed walls at level m;
    terms landing on a wall drop out.  shift is 1 for the rho-shifted action
    (quotient map, induction, Klimyk) and 0 for the level-m action.  The
    walls and each term's weight are checked as in dominantize_walls."""
    walls = _wall_list(data, walls, m)
    vectors = {_weight_walls(data, nu, 0): c for nu, c in terms.items()}
    return _shifted_images(data, _wall_vector(data, [shift] * data.rank, m), vectors, walls, shift)


def _walk(
    start: Sequence[int], rows: Sequence[Sequence[int]], walls: Sequence[int]
) -> Iterator[list[tuple[int, ...]]]:
    """The upward orbit walk: yields the orbit of start one layer at a time,
    layer 0 being [start], as vectors in the form of _reduce.

    From each vector of a layer it reflects at every listed wall whose value
    c is positive (vec - c * rows[i]) and keeps the first of equal images,
    in walk order.  A point on the same side of wall i as the cone or
    alcove goes one step further from it, and no shorter (Humphreys,
    Reflection Groups and Coxeter Groups, 4.5), so an image can only meet
    images of its own layer.  The wall values are a function of the rest of
    the vector, so equal images are equal vectors.
    """
    layer = [tuple(start)]
    while layer:
        yield layer
        images: dict[tuple[int, ...], None] = {}
        for vec in layer:
            for i in walls:
                c = vec[i]
                if c > 0:
                    images[tuple([v - c * r for v, r in zip(vec, rows[i])])] = None
        layer = [*images]


def weyl_orbit(
    data: LieData, nu: Sequence[int], m: int, walls: Iterable[int]
) -> dict[Weight, int]:
    """The orbit of a weight in the closed cone of the listed walls under the
    finite group those walls generate at level m, each point with its sign.

    The orbit is the walk (_walk) from (c0, *nu) by weight_table.  Every
    orbit point is reached, because a point outside the cone has a negative
    wall value and reflecting there leads back towards nu.  Every path to a
    point has the same length, the length of the shortest element carrying
    nu there, so its sign (-1)^depth is well defined; on a free orbit it is
    sign(w).  Keys are in walk order, by depth.  Raises ValueError if nu is
    outside the closed cone, if a wall is not an int in 0..l, or if all l+1
    walls are listed (that group is infinite).
    """
    walls = _wall_list(data, walls, m)
    if len(walls) > data.rank:
        raise ValueError("all l+1 walls generate an infinite group")
    values = _weight_walls(data, nu, m)
    if any(values[i] < 0 for i in walls):
        raise ValueError(f"{tuple(nu)} is outside the closed cone of walls {walls}")
    orbit = {}
    for depth, layer in enumerate(_walk(values, data.weight_table, walls)):
        sign = -1 if depth & 1 else 1
        for vec in layer:
            orbit[vec[1:]] = sign
    return orbit


# ---------------------------------------------------------------------------
# standard affine action on t, cones, orbit enumeration


def _point_vector(data: LieData, X: Sequence[int], D: int) -> list[int]:
    """D times the wall values of the point X / D at nodes 0..l, then X: the
    vector _reduce and _walk start from for a point, as _wall_vector is for
    a weight."""
    return [*_scaled_walls(data, X, D), *X]


def _reduce_scaled(
    data: LieData, X: Sequence[int], D: int, walls: Sequence[int]
) -> tuple[tuple[int, ...], list[int], bool]:
    """Greedy reflection of X / D at the lowest violated wall of the sorted
    list walls until no listed wall value is negative.  Returns (image
    numerators, word, whether the image lies on a listed wall).

    The point enters _reduce as D times its wall values followed by X: a
    reflection xi -> xi - (c / D) * coroot is X -> X - c * coroot on
    numerators, so the denominator D never changes.
    """
    vec, word, on_wall = _reduce(_point_vector(data, X, D), data.point_table, walls)
    return tuple(vec[data.rank + 1 :]), word, on_wall


def _scaled_crossing_length(data: LieData, X: Sequence[int], D: int) -> int:
    """The number of affine root hyperplanes <beta, .> = n (beta positive, n
    integer) strictly separating X / D from the interior of the fundamental
    alcove, which equals the length of X / D in its orbit.

    On the open alcove every positive root takes a value strictly between 0
    and 1.  So with b = <beta, X>, the crossed hyperplanes are n = 1 ..
    ceil(b / D) - 1 when b > 0, and n = floor(b / D) + 1 .. 0 when b <= 0;
    hyperplanes through the point itself are not crossed.
    """
    total = 0
    for root in data.positive_roots:
        b = sum(map(mul, root.weight, X))
        total += -(-b // D) - 1 if b > 0 else -(b // D)
    return total


def cone_position(data: LieData, xi: Sequence, I: Sequence[int]) -> str:
    """Position of a point against the cone cut out by the walls outside I:
    'interior', 'boundary', or 'outside'."""
    outside = _walls_outside(data, _check_face_index(data, I))
    walls = _scaled_walls(data, *_scaled(data, xi))
    values = [walls[i] for i in outside]
    if any(v < 0 for v in values):
        return "outside"
    return "boundary" if 0 in values else "interior"


def reduce_point_to_cone(
    data: LieData, xi: Sequence, I: Sequence[int]
) -> tuple[tuple[int, ...], CartanPoint, int]:
    """Move a point into the closed cone of I by reflections in the walls
    outside I (greedy, lowest index first).

    Returns (word, image, parity); the image is the unique representative of
    the W_I-orbit in the closed cone, and parity = (-1)^len(word).
    """
    I = _check_face_index(data, I)
    X, D = _scaled(data, xi)
    X, word, _ = _reduce_scaled(data, X, D, _walls_outside(data, I))
    return tuple(word), _unscaled(X, D), (-1) ** len(word)


def reduce_point_to_alcove(data: LieData, xi: Sequence) -> tuple[tuple[int, ...], CartanPoint]:
    """Move a point into the closed fundamental alcove by greedy reflection
    at the lowest violated wall; the word length equals the number of
    separating hyperplanes crossed."""
    X, D = _scaled(data, xi)
    X, word, _ = _reduce_scaled(data, X, D, range(data.rank + 1))
    return tuple(word), _unscaled(X, D)


def crossing_length(data: LieData, x: Sequence) -> int:
    """Length of a point in its orbit, as the number of affine root
    hyperplanes strictly separating it from the interior of the fundamental
    alcove."""
    return _scaled_crossing_length(data, *_scaled(data, x))


class OrbitContext:
    """Breadth-first enumeration of the affine Weyl orbit V of the base point
    of a face, with the word-length function.

    The default base point for face J is nu_J_sharp; any point in the
    relative interior of Delta_J gives the same combinatorics.  Every orbit
    point is kept as integer numerators X over the one denominator D of the
    base point: a reflection sends X to X - (sum root * X + D delta_{i,0})
    coroot, which stays integral.  ``base``, the layers and the length table
    all hold numerator tuples.

    The layers are those of the walk (_walk) from the base point's vector,
    D times its wall values then X, by point_table at all l+1 walls.  Every
    orbit point but the base lies outside the closed alcove, so it has a
    negative wall value, and reflecting there gives a point one shorter
    from which the walk reaches it.  _vectors keeps the vector of each
    point reached, so its wall values are never computed again.
    """

    def __init__(self, data: LieData, J: Sequence[int], base: Sequence | None = None):
        self.data = data
        self.J = _check_face_index(data, J)
        if base is None:
            X, self.D = _scaled(data, face_data(data, self.J).nu_I_sharp)
        else:
            X, self.D = _scaled(data, base)
            if _scaled_face(data, X, self.D) != self.J:
                raise ValueError("base point is not interior to the face")
        self.base: tuple[int, ...] = tuple(X)
        self._walk = _walk(_point_vector(data, X, self.D), data.point_table, range(data.rank + 1))
        [start] = next(self._walk)
        self._layers: list[list[tuple[int, ...]]] = [[self.base]]
        self._length: dict[tuple[int, ...], int] = {self.base: 0}
        self._vectors: dict[tuple[int, ...], tuple[int, ...]] = {self.base: start}

    def ensure_length(self, n: int) -> None:
        tail = self.data.rank + 1
        while len(self._layers) <= n:
            depth, layer = len(self._layers), []
            for vec in next(self._walk):
                X = vec[tail:]
                self._length[X] = depth
                self._vectors[X] = vec
                layer.append(X)
            # D > 0, so numerator order is coordinate order
            self._layers.append(sorted(layer))

    def points_up_to(self, n: int) -> list[OrbitPoint]:
        """Orbit points of length <= n as numerators over D, by length and
        then by coordinates.  The one check of a length bound, the -N of
        orbit and contract: ValueError for n < 0."""
        if n < 0:
            raise ValueError(f"truncation bound -N must be >= 0, not {n}")
        self.ensure_length(n)
        out = []
        for length, layer in enumerate(self._layers[: n + 1]):
            out.extend(OrbitPoint(x, length) for x in layer)
        return out


def orbit_up_to_length(data: LieData, J: Sequence[int], n: int) -> list[OrbitPoint]:
    """All orbit points of length <= n, with Fraction coordinates, ordered
    lexicographically by coordinates."""
    ctx = OrbitContext(data, J)
    return [OrbitPoint(_unscaled(X, ctx.D), length) for X, length in sorted(ctx.points_up_to(n))]
