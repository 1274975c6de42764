"""The affine Weyl group: level-m action on weights, dominantization with
sign, signed orbits of the finite groups W_I, the standard affine action on
the Cartan subalgebra, and orbit enumeration with the length function.

The group is generated by the simple affine reflections indexed by the nodes
0..l of the extended Dynkin diagram.  On weights at level m the reflection is

    nu -> nu - (<nu, alpha_i_vee> + m * delta_{i,0}) * alpha_i

and on Cartan points (standard action on t)

    xi -> xi - (<alpha_i, xi> + delta_{i,0}) * alpha_i_vee.

A weight is a tuple of l ints, its fundamental-weight coordinates.  Its wall
values at nodes 0..l have one owner, _weight_walls: nu[i-1] at node i >= 1
and m - <nu, theta_vee> at node 0.  Every level, cone and dominance test
reads them there, and a non-weight is refused there with ValueError.  Only
the trusted loops over weights the library built (_walk, the weyl_orbit step,
fusion's dominant-weight search) read coordinates themselves.  The walls of
the cone of a face index I, the nodes outside I, are lie._walls_outside.

Two greedy loops ("reflect at the lowest violated listed wall") do every
reduction.  On weights, the walk _walk keeps the node-0 wall value up to date,
moving it by c <alpha_i, theta_vee> (LieData.theta_pairing) on each reflection
instead of recomputing a dot product.  dominantize_terms sorts its walls once
and walks every term, with an optional rho shift, for every weight-side map of
the library; dominantize_walls is the same walk for one weight.  On Cartan
points, _reduce_scaled works on integer numerators X over one common
denominator D: a wall value is the integer sum root * X (plus D at node 0), a
reflection is X -> X - c * coroot, and D never changes.  Like _walk, it
reports whether its image lies on a listed wall, from its last pass.  It stays
a separate loop because its wall values are dot products at every node, which
the weight walk avoids.

weyl_orbit walks the other way: from a weight in the closed cone of the
listed walls (at most l of them, so the group is finite) it reflects only
at walls with a positive value, and signs each point by its depth.  Every
alternating sum over a W_I is this walk, so no group element is ever listed.

Orbits live entirely in these integers.  An OrbitContext fixes D as the lcm
of the base point's denominators, and every point of the orbit lies in
(1/D) Z^l, so its BFS layers and length table hold numerator tuples; its
search reflects at the nonzero walls of lie._scaled_walls.  The length as a
count of crossed hyperplanes (_scaled_crossing_length) reads numerators
too.  Fraction appears only at the edges: orbit_up_to_length returns
Fraction points, and cone_position, reduce_point_to_cone,
reduce_point_to_alcove and crossing_length are thin wrappers that scale a
Fraction point once with lie._scaled.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .lie import (
    CartanPoint,
    LieData,
    Weight,
    _check_face_index,
    _scaled,
    _scaled_face,
    _scaled_walls,
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


def _weight_walls(data: LieData, nu: Sequence[int], m: int) -> tuple[int, ...]:
    """<nu, alpha_i_vee> + m * delta_{i,0} at nodes 0..l; ValueError unless nu has l
    coordinates and c0 is an int, as it is exactly when every coordinate is one."""
    if len(nu) != data.rank:
        raise ValueError(f"weight {tuple(nu)} has {len(nu)} coordinates, not {data.rank}")
    c0 = m - sum(map(mul, data.comarks, nu))
    if type(c0) is not int:
        raise ValueError(f"weight {tuple(nu)} has a coordinate that is not an int")
    return (c0, *nu)


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


def _walk(
    data: LieData, out: list[int], m: int, node0: bool, nodes: Sequence[int]
) -> SignedWeight:
    """The greedy weight reduction, at the walls given as node0 (whether
    node 0 is listed) and the sorted listed nodes i >= 1.

    In fundamental-weight coordinates alpha_i_vee pairs with nu as the
    coordinate nu[i-1] for i >= 1, so those wall values are read off the
    coordinates.  Only node 0 needs the comarks: its wall value
    c0 = m - <nu, theta_vee> is computed once, and a reflection
    nu -> nu - c alpha_i moves it by c <alpha_i, theta_vee>.  Each pass
    reflects at the lowest violated listed wall.  Sign is 0 if the result
    lies on a listed wall (a zero wall value in the final pass), otherwise
    the parity of the number of reflections performed.
    """
    node_root = data.node_root
    if node0:
        theta, c0 = data.theta_pairing, m - sum(map(mul, data.comarks, out))
    else:
        theta, c0 = (0,) * len(node_root), 0  # c0 stays 0, node 0 unread
    count = 0
    while True:
        if c0 < 0:
            out = [x - c0 * r for x, r in zip(out, node_root[0])]
            c0 += c0 * theta[0]
            count += 1
            continue
        on_wall = node0 and not c0
        for i in nodes:
            c = out[i - 1]
            if c < 0:
                out = [x - c * r for x, r in zip(out, node_root[i])]
                c0 += c * theta[i]
                count += 1
                break
            if c == 0:
                on_wall = True
        else:
            return SignedWeight(tuple(out), 0 if on_wall else (-1) ** count, count)


def _split_walls(walls: list[int]) -> tuple[bool, list[int]]:
    """A sorted wall list as (node 0 listed, the listed nodes i >= 1)."""
    return walls[:1] == [0], [i for i in walls if i]


def dominantize_walls(
    data: LieData, nu: Sequence[int], m: int, walls: Iterable[int]
) -> SignedWeight:
    """Reduce a weight into the region where the listed wall values are >= 0,
    by greedy reflection at the lowest violated wall.

    Sign is 0 if the result lies on one of the listed walls, otherwise the
    parity of the number of reflections performed.
    """
    return _walk(data, list(nu), m, *_split_walls(sorted(walls)))


def dominantize_terms(
    data: LieData, terms: Mapping[Weight, int], m: int, walls: Iterable[int], shift: int
) -> dict[Weight, int]:
    """Sum of sign * c at rep - shift over the terms c * nu, where (rep, sign)
    reduces nu + shift * rho into the cone of the listed walls at level m;
    terms landing on a wall drop out.  shift is 1 for the rho-shifted action
    (quotient map, induction, Klimyk) and 0 for the level-m action.  All l+1
    walls bound a fundamental domain only at level m >= 1."""
    walls = sorted(walls)
    if m < 1 and len(walls) > data.rank:
        raise ValueError("level must be >= 1")
    node0, nodes = _split_walls(walls)
    out: dict[Weight, int] = {}
    for nu, c in terms.items():
        rep, sign, _ = _walk(data, [x + shift for x in nu], m, node0, nodes)
        if sign:
            key = tuple([x - shift for x in rep]) if shift else rep
            out[key] = out.get(key, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def weyl_orbit(
    data: LieData, nu: Sequence[int], m: int, walls: Iterable[int]
) -> dict[Weight, int]:
    """The orbit of a weight in the closed cone of the listed walls under the
    finite group those walls generate at level m, each point with its sign.

    The walk goes down from nu: it reflects at a listed wall only where the
    wall value c is positive, moving the point by -c alpha_i.  At a node
    i >= 1 the wall value is the coordinate w[i-1], as in _walk.  Every
    orbit point is reached, because a point outside the cone has a negative
    wall value and reflecting there leads back towards nu.  Every path to a
    point has the same length, the length of the shortest element carrying
    nu there, so its sign (-1)^depth is well defined; on a free orbit it is
    sign(w).  Keys are in walk order, by depth.  Raises ValueError if nu is
    outside the closed cone, or if all l+1 walls are listed (that group is
    infinite).
    """
    walls = sorted(set(walls))
    if len(walls) > data.rank:
        raise ValueError("all l+1 walls generate an infinite group")
    nu = tuple(nu)
    values = _weight_walls(data, nu, m)
    if any(values[i] < 0 for i in walls):
        raise ValueError(f"{nu} is outside the closed cone of walls {walls}")
    node_root, comarks = data.node_root, data.comarks
    orbit = {nu: 1}
    frontier, sign = [nu], 1
    while frontier:
        sign = -sign
        new = []
        for w in frontier:
            for i in walls:
                c = w[i - 1] if i else m - sum(map(mul, comarks, w))
                if c > 0:
                    img = tuple([x - c * r for x, r in zip(w, node_root[i])])
                    if img not in orbit:
                        orbit[img] = sign
                        new.append(img)
        frontier = new
    return orbit


def dominantize(data: LieData, nu: Sequence[int], m: int) -> SignedWeight:
    """Reduce a weight into the closed level-m alcove region (walls 0..l), m >= 1."""
    if m < 1:
        raise ValueError("level must be >= 1")
    _weight_walls(data, nu, m)
    return dominantize_walls(data, nu, m, range(data.rank + 1))


# ---------------------------------------------------------------------------
# standard affine action on t, cones, orbit enumeration


def _reduce_scaled(
    data: LieData, X: Sequence[int], D: int, walls: Sequence[int]
) -> tuple[tuple[int, ...], list[int], bool]:
    """Greedy reflection of X / D at the lowest violated listed wall until no
    listed wall value is negative.  Returns (image numerators, word, whether
    the image lies on a listed wall), the last read off the final pass.

    The scaled wall value c = D times the wall value at X / D is the integer
    sum root * X, plus D at node 0.  The reflection
    xi -> xi - (c / D) * coroot is X -> X - c * coroot on numerators, so the
    denominator D never changes.
    """
    node_root, node_coroot = data.node_root, data.node_coroot
    word: list[int] = []
    while True:
        on_wall = False
        for i in walls:
            c = sum(map(mul, node_root[i], X))
            if i == 0:
                c += D
            if c < 0:
                X = [x - c * g for x, g in zip(X, node_coroot[i])]
                word.append(i)
                break
            if c == 0:
                on_wall = True
        else:
            return tuple(X), word, on_wall


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
    return tuple(word), tuple(Fraction(x, D) for x in X), (-1) ** len(word)


def reduce_point_to_alcove(data: LieData, xi: Sequence) -> tuple[tuple[int, ...], CartanPoint]:
    """Move a point into the closed fundamental alcove by greedy reflection
    at the lowest violated wall; the word length equals the number of
    separating hyperplanes crossed."""
    X, D = _scaled(data, xi)
    X, word, _ = _reduce_scaled(data, X, D, range(data.rank + 1))
    return tuple(word), tuple(Fraction(x, D) for x in X)


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
        self._layers: list[list[tuple[int, ...]]] = [[self.base]]
        self._length: dict[tuple[int, ...], int] = {self.base: 0}

    def ensure_length(self, n: int) -> None:
        data, D, length = self.data, self.D, self._length
        while len(self._layers) <= n:
            depth = len(self._layers)
            new: list[tuple[int, ...]] = []
            for X in self._layers[-1]:
                for c, coroot in zip(_scaled_walls(data, X, D), data.node_coroot):
                    if not c:
                        continue  # X lies on this wall
                    Y = tuple([x - c * g for x, g in zip(X, coroot)])
                    if Y not in length:
                        length[Y] = depth
                        new.append(Y)
            if not new:
                break
            # D > 0, so numerator order is coordinate order
            self._layers.append(sorted(new))

    def points_up_to(self, n: int) -> list[OrbitPoint]:
        """Orbit points of length <= n as numerators over D, by length and
        then by coordinates."""
        self.ensure_length(n)
        out = []
        for length, layer in enumerate(self._layers[: n + 1]):
            out.extend(OrbitPoint(x, length) for x in layer)
        return out


def orbit_up_to_length(data: LieData, J: Sequence[int], n: int) -> list[OrbitPoint]:
    """All orbit points of length <= n, with Fraction coordinates, ordered
    lexicographically by coordinates."""
    if n < 0:
        raise ValueError("length bound must be >= 0")
    ctx = OrbitContext(data, J)
    return [
        OrbitPoint(tuple(Fraction(x, ctx.D) for x in op.point), op.length)
        for op in sorted(ctx.points_up_to(n))
    ]
