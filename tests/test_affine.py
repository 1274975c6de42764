import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from operator import mul
from pathlib import Path

import pytest

from alcove.affine import (
    OrbitContext,
    OrbitPoint,
    SignedWeight,
    _reduce,
    _reduce_scaled,
    _scaled_crossing_length,
    _walk,
    _walls_outside,
    _weight_walls,
    affine_reflect_weight,
    cone_position,
    crossing_length,
    dominantize_terms,
    dominantize_walls,
    orbit_up_to_length,
    reduce_point_to_alcove,
    reduce_point_to_cone,
    weight_wall_value,
    weyl_orbit,
)
from alcove.acceptance import RANK_LE_8
from alcove.fusion import CharacterElt, FusionElt, LevelRepElt, in_level, is_dominant, level_weights
from alcove.groupring import AntiInvariant, GroupRingElt, expand, to_cone_basis
from alcove.lie import (
    _scaled_walls,
    apply_weight,
    build_lie_data,
    face_data,
    pairing,
    weyl_elements,
)
from alcove import lie

RANK_LE_2 = ["A1", "A2", "B2", "C2", "G2"]


def brute_force_dominantize(data, nu, m, max_len=20):
    """Oracle: breadth-first search over all reflection words."""
    nu = tuple(nu)
    seen = {nu: 0}
    frontier = [nu]
    for depth in range(1, max_len + 1):
        new = []
        for w in frontier:
            for i in range(data.rank + 1):
                img = affine_reflect_weight(data, i, w, m)
                if img not in seen:
                    seen[img] = depth
                    new.append(img)
        frontier = new
    rep = [w for w in seen if all(weight_wall_value(data, w, i, m) >= 0 for i in range(data.rank + 1))]
    assert len(rep) == 1
    rep = rep[0]
    on_wall = any(weight_wall_value(data, rep, i, m) == 0 for i in range(data.rank + 1))
    sign = 0 if on_wall else (-1) ** seen[rep]
    return rep, sign, seen[rep]


# -- affine reflections on weights --------------------------------------------

def test_reflect_weight_examples():
    a1 = build_lie_data("A1")
    assert affine_reflect_weight(a1, 0, (4,), 3) == (2,)
    assert affine_reflect_weight(a1, 1, (1,), 3) == (-1,)
    a2 = build_lie_data("A2")
    assert affine_reflect_weight(a2, 2, (3, 0), 5) == (3, 0)  # on the wall


def test_reflect_weight_involutive():
    rng = random.Random(3)
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for _ in range(20):
            nu = tuple(rng.randint(-5, 5) for _ in range(d.rank))
            m = rng.randint(1, 5)
            i = rng.randint(0, d.rank)
            assert affine_reflect_weight(d, i, affine_reflect_weight(d, i, nu, m), m) == nu


def test_reflect_weight_errors():
    d = build_lie_data("A1")
    with pytest.raises(ValueError):
        affine_reflect_weight(d, 2, (1,), 3)


# -- dominantize_walls at walls 0..l, the alcove reduction ---------------------

def test_dominantize_examples():
    d = build_lie_data("A1")
    assert dominantize_walls(d, (4,), 3, range(d.rank + 1)) == ((2,), -1, 1)
    assert dominantize_walls(d, (3,), 3, range(d.rank + 1)) == ((3,), 0, 0)
    assert dominantize_walls(d, (7,), 3, range(d.rank + 1)) == ((1,), 1, 2)


def test_dominantize_against_bruteforce():
    rng = random.Random(11)
    for name in ["A1", "A2", "C2"]:
        d = build_lie_data(name)
        for _ in range(25):
            nu = tuple(rng.randint(-4, 6) for _ in range(d.rank))
            m = rng.randint(1, 4)
            got = dominantize_walls(d, nu, m, range(d.rank + 1))
            rep, sign, _ = brute_force_dominantize(d, nu, m)
            assert got.weight == rep
            assert got.sign == sign


def test_dominantize_sign_flip_property():
    rng = random.Random(5)
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for _ in range(30):
            nu = tuple(rng.randint(-5, 7) for _ in range(d.rank))
            m = rng.randint(1, 6)
            i = rng.randint(0, d.rank)
            a = dominantize_walls(d, nu, m, range(d.rank + 1))
            b = dominantize_walls(d, affine_reflect_weight(d, i, nu, m), m, range(d.rank + 1))
            assert a.weight == b.weight
            if a.sign == 0:
                assert b.sign == 0
            elif affine_reflect_weight(d, i, nu, m) != nu:
                assert b.sign == -a.sign


def test_dominantize_idempotent_on_regular_output():
    rng = random.Random(17)
    d = build_lie_data("B2")
    for _ in range(30):
        nu = tuple(rng.randint(-6, 8) for _ in range(2))
        m = rng.randint(1, 5)
        out = dominantize_walls(d, nu, m, range(d.rank + 1))
        again = dominantize_walls(d, out.weight, m, range(d.rank + 1))
        assert again.weight == out.weight
        assert again.word_length == 0


# -- the weight kernel against the loops it replaced ----------------------------

# Oracles, bodies as they stood before the three greedy weight loops were
# collapsed onto one kernel: the general loop built on weight_wall_value, the
# Freudenthal dominant representative and the strict Klimyk reduction.


def head_dominantize_walls(data, nu, m, walls):
    """Reduce a weight into the region where the listed wall values are >= 0,
    by greedy reflection at the lowest violated wall.

    Sign is 0 if the result lies on one of the listed walls, otherwise the
    parity of the number of reflections performed.
    """
    walls = tuple(sorted(walls))
    out = tuple(nu)
    count = 0
    while True:
        violated = None
        for i in walls:
            if weight_wall_value(data, out, i, m) < 0:
                violated = i
                break
        if violated is None:
            break
        out = affine_reflect_weight(data, violated, out, m)
        count += 1
    on_wall = any(weight_wall_value(data, out, i, m) == 0 for i in walls)
    sign = 0 if on_wall else (-1) ** count
    return SignedWeight(out, sign, count)


def head_dominant_rep(data, w):
    out = tuple(w)
    while True:
        neg = next((j for j, x in enumerate(out) if x < 0), None)
        if neg is None:
            return tuple(int(x) for x in out)
        c = out[neg]
        root = data.node_root[neg + 1]
        out = tuple(x - c * r for x, r in zip(out, root))


def head_dominantize_linear_strict(data, v):
    """Reduce by the classical Weyl action; sign 0 on a chamber wall."""
    out = tuple(v)
    sign = 1
    while True:
        neg = next((j for j, x in enumerate(out) if x < 0), None)
        if neg is None:
            break
        c = out[neg]
        root = data.node_root[neg + 1]
        out = tuple(x - c * r for x, r in zip(out, root))
        sign = -sign
    if any(x == 0 for x in out):
        return out, 0
    return out, sign


KERNEL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_dominantize_walls_matches_head_loop(name):
    """Weight, sign and word length agree on every nonempty wall subset and
    every level m in 0..h_vee+3.  All l+1 walls at level 0 bound no
    fundamental domain (the group is then the finite Weyl group acting
    linearly), and neither loop terminates there, so that one case is left
    out."""
    d = build_lie_data(name)
    rng = random.Random(f"kernel-{name}")
    nodes = range(d.rank + 1)
    for size in range(1, d.rank + 2):
        for walls in itertools.combinations(nodes, size):
            for m in range(d.dual_coxeter + 4):
                if m == 0 and size == d.rank + 1:
                    continue
                for _ in range(4):
                    nu = tuple(rng.randint(-6, 6) for _ in range(d.rank))
                    got = dominantize_walls(d, nu, m, walls)
                    assert got == head_dominantize_walls(d, nu, m, walls)


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_dominantize_walls_matches_head_linear_loops(name):
    d = build_lie_data(name)
    rng = random.Random(f"linear-{name}")
    walls = range(1, d.rank + 1)
    for _ in range(200):
        nu = tuple(rng.randint(-6, 6) for _ in range(d.rank))
        got = dominantize_walls(d, nu, 0, walls)
        assert got == head_dominantize_walls(d, nu, 0, walls)
        assert got.weight == head_dominant_rep(d, nu)
        assert (got.weight, got.sign) == head_dominantize_linear_strict(d, nu)


def head_shift_reduce(data, terms, m, walls, shift):
    """Oracle: the shift-dominantize-unshift loop as the quotient map,
    holomorphic induction, re-skewing and the Klimyk rule each wrote it."""
    out = {}
    for mu, c in terms.items():
        shifted = tuple(x + shift for x in mu)
        rep, sign, _ = head_dominantize_walls(data, shifted, m, walls)
        if sign == 0:
            continue
        key = tuple(x - shift for x in rep)
        out[key] = out.get(key, 0) + sign * c
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3"])
def test_dominantize_terms_matches_loop(name):
    d = build_lie_data(name)
    rng = random.Random(f"terms-{name}")
    nodes = range(d.rank + 1)
    for _ in range(60):
        walls = sorted(rng.sample(nodes, rng.randint(1, d.rank + 1)))
        m = rng.randint(1, d.dual_coxeter + 3)
        shift = rng.choice([0, 1])
        terms = {
            tuple(rng.randint(-5, 5) for _ in range(d.rank)): rng.choice([-2, -1, 1, 3])
            for _ in range(rng.randint(0, 8))
        }
        got = dominantize_terms(d, terms, m, walls, shift)
        assert got == head_shift_reduce(d, terms, m, walls, shift)
        assert all(got.values())


# -- the one-pass walk against the per-pass loop it replaced ---------------------


def per_pass_dominantize_walls(data, nu, m, walls):
    """Oracle, the body of dominantize_walls before the walk: it re-sorts its
    walls per call and recomputes the node-0 wall value as a dot product on
    every pass."""
    walls = sorted(walls)
    comarks, node_root = data.comarks, data.node_root
    out = list(nu)
    count = 0
    while True:
        on_wall = False
        for i in walls:
            c = out[i - 1] if i else m - sum(a * x for a, x in zip(comarks, out))
            if c < 0:
                out = [x - c * r for x, r in zip(out, node_root[i])]
                count += 1
                break
            if c == 0:
                on_wall = True
        else:
            return SignedWeight(tuple(out), 0 if on_wall else (-1) ** count, count)


def random_kernel_case(rng, d):
    """A random (nu, m, walls) on which the greedy loop terminates: any
    nonempty wall subset, except all l+1 walls at level 0."""
    nodes = range(d.rank + 1)
    while True:
        walls = rng.sample(nodes, rng.randint(1, d.rank + 1))
        m = rng.randint(0, d.dual_coxeter + 4)
        if m or len(walls) <= d.rank:
            break
    nu = tuple(rng.randint(-9, 9) for _ in range(d.rank))
    return nu, m, walls


def test_walk_matches_per_pass_loop_on_random_cases():
    """Weight, sign and word length agree on 31,200 seeded cases, with the
    wall lists unsorted; dominantize_terms agrees term by term."""
    rng = random.Random("one-pass-walk")
    for name in KERNEL_TYPES:
        d = build_lie_data(name)
        for _ in range(2600):
            nu, m, walls = random_kernel_case(rng, d)
            assert dominantize_walls(d, nu, m, walls) == per_pass_dominantize_walls(d, nu, m, walls)
        for _ in range(40):
            _, m, walls = random_kernel_case(rng, d)
            shift = rng.choice([0, 1])
            terms = {
                tuple(rng.randint(-6, 6) for _ in range(d.rank)): rng.choice([-2, -1, 1, 3])
                for _ in range(12)
            }
            expected = {}
            for mu, c in terms.items():
                rep, sign, _ = per_pass_dominantize_walls(d, [x + shift for x in mu], m, walls)
                if sign:
                    key = tuple(x - shift for x in rep)
                    expected[key] = expected.get(key, 0) + sign * c
            expected = {w: c for w, c in expected.items() if c}
            assert dominantize_terms(d, terms, m, walls, shift) == expected


def test_dominantize_terms_needs_positive_level_on_all_walls():
    d = build_lie_data("A2")
    with pytest.raises(ValueError):
        dominantize_terms(d, {(1, 0): 1}, 0, range(3), 1)
    # a proper wall subset at level 0 is the finite linear action
    assert dominantize_terms(d, {(1, 0): 1}, 0, (1, 2), 1) == {(1, 0): 1}


# -- the signed orbit walk against enumerated W_I -------------------------------


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_weyl_orbit_matches_enumeration(name):
    """Every face, seeded cone points (regular and on walls) at levels in
    [-2, 6]: the walk lists the orbit of the enumerated W_I, each point with
    the sign of the shortest element carrying nu there."""
    rng = random.Random(1011)
    d = build_lie_data(name)
    for r in range(1, d.rank + 2):
        for I in itertools.combinations(range(d.rank + 1), r):
            walls = _walls_outside(d, I)
            elements = weyl_elements(d, I)  # by length, then word
            for _ in range(8):
                m = rng.randint(-2, 6)
                raw = tuple(rng.randint(-4, 5) for _ in range(d.rank))
                nu = dominantize_walls(d, raw, m, walls).weight
                expected = {}
                for w in elements:
                    expected.setdefault(apply_weight(w, nu, m), w.sign)
                assert weyl_orbit(d, nu, m, walls) == expected, (I, nu, m)


def test_weyl_orbit_rejections():
    d = build_lie_data("A2")
    with pytest.raises(ValueError, match="infinite"):
        weyl_orbit(d, (0, 0), 3, range(3))
    with pytest.raises(ValueError, match="outside the closed cone"):
        weyl_orbit(d, (2, 2), 3, (0, 1))  # node 0 value 3 - 4 < 0
    # regular at level 3: a free orbit of |W_I| = 6 points
    assert weyl_orbit(d, (1, 1), 3, (0, 1)) == {
        (1, 1): 1, (-1, 2): -1, (2, 2): -1, (1, 4): 1, (-2, 4): 1, (-1, 5): -1,
    }
    # on wall 0: half the points, signs by depth
    assert weyl_orbit(d, (1, 2), 3, (0, 1)) == {(1, 2): 1, (-1, 3): -1, (0, 4): 1}


# -- level action --------------------------------------------------------------

# The word actions and the orbit-point cone reduction are used only here; they
# moved from alcove.affine with their bodies unchanged.


def level_action(data, word, nu, m):
    """Apply a word of simple affine reflections (leftmost letter last)."""
    out = tuple(nu)
    for i in reversed(tuple(word)):
        out = affine_reflect_weight(data, i, out, m)
    return out


def linear_weyl_action(data, word, nu):
    """Apply the linear parts only (reflection in alpha_i through the origin
    for every letter, including i = 0)."""
    out = tuple(F(x) for x in nu)
    for i in reversed(tuple(word)):
        c = pairing(out, data.node_coroot[i])
        out = tuple(x - c * r for x, r in zip(out, data.node_root[i]))
    return out


def fraction_wall_value(data, i, xi):
    """Oracle: the wall functional <alpha_i, xi> + delta_{i,0} as a Fraction
    pairing, apart from the integer wall values that lie.wall_value reads."""
    return pairing(data.node_root[i], xi) + (1 if i == 0 else 0)


def reflect_point(data, i, xi):
    """Oracle: the simple affine reflection at wall i, standard action on t,
    in Fraction arithmetic."""
    if not 0 <= i <= data.rank:
        raise ValueError(f"wall index {i} out of range")
    c = fraction_wall_value(data, i, xi)
    coroot = data.node_coroot[i]
    return tuple(F(x) - c * g for x, g in zip(xi, coroot))


def fraction_crossing_length(data, x):
    """Oracle: the number of affine root hyperplanes <beta, .> = n strictly
    separating x from an interior point of the fundamental alcove, counted
    in Fraction arithmetic."""
    probe = face_data(data, tuple(range(data.rank + 1))).nu_I_sharp
    total = 0
    for root in data.positive_roots:
        a = pairing(root.weight, probe)
        b = pairing(root.weight, x)
        lo, hi = min(a, b), max(a, b)
        count = math.floor(hi) - math.ceil(lo) + 1
        if hi == math.floor(hi):
            count -= 1
        if lo == math.ceil(lo):
            count -= 1
        total += max(count, 0)
    return total


def fraction_orbit(data, J, n):
    """Oracle: breadth-first search of the orbit of nu_J_sharp in Fraction
    arithmetic; the layers of lengths 0..n, each sorted."""
    base = face_data(data, J).nu_I_sharp
    seen = {base}
    layers = [[base]]
    for _ in range(n):
        new = []
        for x in layers[-1]:
            for i in range(data.rank + 1):
                y = reflect_point(data, i, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        layers.append(sorted(new))
    return layers


def head_orbit_layers(data, X, D, n):
    """Oracle: the breadth-first search OrbitContext.ensure_length ran before
    the shared walk, on numerators X over D; reflects at every nonzero wall
    value of _scaled_walls and keeps images not seen at any length.  The
    layers of lengths 0..n, each sorted."""
    length = {tuple(X): 0}
    layers = [[tuple(X)]]
    for depth in range(1, n + 1):
        new = []
        for X in layers[-1]:
            for c, coroot in zip(_scaled_walls(data, X, D), data.node_coroot):
                if not c:
                    continue  # X lies on this wall
                Y = tuple([x - c * g for x, g in zip(X, coroot)])
                if Y not in length:
                    length[Y] = depth
                    new.append(Y)
        layers.append(sorted(new))
    return layers


def unscaled(X, D):
    return tuple(F(x, D) for x in X)


class OracleOrbitContext(OrbitContext):
    """OrbitContext with the orbit-point lookup and cone reduction."""

    def orbit_point(self, point, search_up_to):
        point = tuple(point)
        self.ensure_length(search_up_to)
        if point not in self._length:
            raise ValueError(f"{point} not in the orbit within length {search_up_to}")
        return OrbitPoint(point, self._length[point])

    def reduce_to_cone(self, x, I):
        """reduce_point_to_cone on an orbit point (numerators over D), with
        the image's length.

        The image never has larger length than x, so the search is bounded.
        """
        word, image, parity = reduce_point_to_cone(self.data, unscaled(x.point, self.D), I)
        assert all((v * self.D).denominator == 1 for v in image)
        img = self.orbit_point(tuple(int(v * self.D) for v in image), x.length)
        assert img.length <= x.length
        return word, img, parity


def test_level_action_examples():
    d = build_lie_data("A1")
    assert level_action(d, (), (1,), 3) == (1,)
    assert level_action(d, (0,), (1,), 3) == (5,)
    assert level_action(d, (0, 0), (4,), 7) == (4,)


def test_level_action_shift_formula():
    # for words in the generators of W_I, the level action agrees with
    # w(nu - m nu_I) + m nu_I where w acts by linear reflections
    rng = random.Random(23)
    for name in ["A1", "A2", "C2"]:
        d = build_lie_data(name)
        for I in [(0,), (d.rank,), tuple(range(d.rank + 1))]:
            f = face_data(d, I)
            gens = [i for i in range(d.rank + 1) if i not in I]
            if not gens:
                continue
            for _ in range(15):
                word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
                nu = tuple(rng.randint(-4, 5) for _ in range(d.rank))
                m = rng.randint(1, 4)
                direct = level_action(d, word, nu, m)
                shifted = tuple(F(x) - m * v for x, v in zip(nu, f.nu_I))
                closed = tuple(
                    x + m * v for x, v in zip(linear_weyl_action(d, word, shifted), f.nu_I)
                )
                assert tuple(F(x) for x in direct) == closed


def test_level_action_letter_out_of_range():
    d = build_lie_data("A1")
    with pytest.raises(ValueError):
        level_action(d, (5,), (1,), 2)


# -- orbits ---------------------------------------------------------------------

def test_orbit_a1_examples():
    d = build_lie_data("A1")
    pts = orbit_up_to_length(d, (0, 1), 0)
    assert [(p.point, p.length) for p in pts] == [((F(1, 4),), 0)]

    pts = orbit_up_to_length(d, (0, 1), 2)
    got = {p.point[0]: p.length for p in pts}
    assert got == {F(1, 4): 0, F(-1, 4): 1, F(3, 4): 1, F(5, 4): 2, F(-3, 4): 2}
    # canonical order: lexicographic on coordinates
    assert [p.point[0] for p in pts] == sorted(got)

    pts = orbit_up_to_length(d, (1,), 1)
    assert {(p.point[0], p.length) for p in pts} == {(F(1, 2), 0), (F(-1, 2), 1)}


def test_negative_length_bound_raises():
    # OrbitContext.points_up_to holds the one check of a length bound
    d = build_lie_data("A2")
    with pytest.raises(ValueError, match="^truncation bound -N must be >= 0, not -1$"):
        OrbitContext(d, (0, 1, 2)).points_up_to(-1)
    with pytest.raises(ValueError, match="^truncation bound -N must be >= 0, not -2$"):
        orbit_up_to_length(d, (0, 1, 2), -2)


def test_orbit_closed_under_generators():
    for name in ["A1", "A2", "C2"]:
        d = build_lie_data(name)
        for J in [(0,), tuple(range(d.rank + 1))]:
            n = 4
            pts = orbit_up_to_length(d, J, n)
            lengths = {p.point: p.length for p in pts}
            for p in pts:
                if p.length >= n:
                    continue
                for i in range(d.rank + 1):
                    img = reflect_point(d, i, p.point)
                    assert img in lengths
                    assert abs(lengths[img] - p.length) <= 1


@pytest.mark.parametrize("name", RANK_LE_2)
def test_length_equals_hyperplane_crossings(name):
    d = build_lie_data(name)
    for J in [(0,), (d.rank,), tuple(range(d.rank + 1))]:
        for p in orbit_up_to_length(d, J, 6):
            assert crossing_length(d, p.point) == p.length


def test_orbit_base_point_override():
    d = build_lie_data("A1")
    ctx = OrbitContext(d, (0, 1), base=(F(1, 6),))
    assert ctx.D == 6
    assert ctx.points_up_to(1)[0].point == (1,)
    with pytest.raises(ValueError):
        OrbitContext(d, (0, 1), base=(F(1, 2),))  # on a wall, face is {1}


# -- cones -----------------------------------------------------------------------

def test_cone_position_examples():
    d = build_lie_data("A1")
    assert cone_position(d, (F(1, 4),), (0,)) == "interior"
    assert cone_position(d, (F(0),), (0,)) == "boundary"
    assert cone_position(d, (F(-1, 4),), (0, 1)) == "interior"
    assert cone_position(d, (F(-1, 4),), (0,)) == "outside"


def test_reduce_to_cone_examples():
    d = build_lie_data("A1")
    word, image, parity = reduce_point_to_cone(d, (F(-1, 4),), (0,))
    assert word == (1,) and image == (F(1, 4),) and parity == -1
    word, image, parity = reduce_point_to_cone(d, (F(-1, 4),), (1,))
    assert word == () and image == (F(-1, 4),) and parity == 1
    # already in the cone: identity
    word, image, parity = reduce_point_to_cone(d, (F(1, 4),), (0,))
    assert word == () and parity == 1


def test_reduce_to_cone_unique_and_idempotent():
    for name in ["A2", "C2"]:
        d = build_lie_data(name)
        ctx = OracleOrbitContext(d, tuple(range(d.rank + 1)))
        for p in ctx.points_up_to(4):
            for size in (1, 2):
                for I in itertools.combinations(range(d.rank + 1), size):
                    word, image, parity = ctx.reduce_to_cone(p, I)
                    position = cone_position(d, unscaled(image.point, ctx.D), I)
                    assert position in ("interior", "boundary")
                    assert image.length <= p.length
                    word2, image2, parity2 = ctx.reduce_to_cone(image, I)
                    assert word2 == () and image2 == image and parity2 == 1
                    if image.point == p.point:
                        assert word == ()


def test_reduce_to_cone_length_strict_unless_fixed():
    d = build_lie_data("A2")
    ctx = OracleOrbitContext(d, (0, 1, 2))
    for p in ctx.points_up_to(4):
        for I in [(0,), (1,), (0, 1)]:
            _, image, _ = ctx.reduce_to_cone(p, I)
            if image.point != p.point:
                assert image.length < p.length


# -- integer cone reductions against the Fraction versions ----------------------

def fraction_cone_position(data, xi, I):
    """Oracle: the Fraction wall-value test of a point against the cone of I."""
    on_wall = False
    for i in range(data.rank + 1):
        if i in I:
            continue
        v = fraction_wall_value(data, i, xi)
        if v < 0:
            return "outside"
        if v == 0:
            on_wall = True
    return "boundary" if on_wall else "interior"


def fraction_reduce(data, xi, walls):
    """Oracle: greedy Fraction reflection at the lowest violated listed wall."""
    out = tuple(F(x) for x in xi)
    word = []
    while True:
        violated = next((i for i in walls if fraction_wall_value(data, i, out) < 0), None)
        if violated is None:
            return tuple(word), out
        out = reflect_point(data, violated, out)
        word.append(violated)


def assert_cone_reductions_agree(data, xi):
    nodes = range(data.rank + 1)
    word, image = reduce_point_to_alcove(data, xi)
    assert (word, image) == fraction_reduce(data, xi, nodes)
    assert all(type(v) is F for v in image)
    for size in range(1, data.rank + 2):
        for I in itertools.combinations(nodes, size):
            assert cone_position(data, xi, I) == fraction_cone_position(data, xi, I)
            walls = [i for i in nodes if i not in I]
            word, image, parity = reduce_point_to_cone(data, xi, I)
            assert (word, image) == fraction_reduce(data, xi, walls)
            assert parity == (-1) ** len(word)
            assert all(type(v) is F for v in image)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_integer_cone_reductions_match_fraction_oracle_on_orbits(name):
    d = build_lie_data(name)
    for size in range(1, d.rank + 2):
        for J in itertools.combinations(range(d.rank + 1), size):
            for p in orbit_up_to_length(d, J, 4):
                assert_cone_reductions_agree(d, p.point)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_integer_cone_reductions_match_fraction_oracle_on_random_points(name):
    d = build_lie_data(name)
    rng = random.Random(2024)
    for _ in range(60):
        xi = tuple(F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(d.rank))
        assert_cone_reductions_agree(d, xi)
    # integer and mixed inputs are read as exact rationals
    assert_cone_reductions_agree(d, tuple(range(-1, d.rank - 1)))


def test_cone_reductions_reject_rank_mismatch():
    d = build_lie_data("A2")
    for call in (
        lambda: cone_position(d, (F(1, 3),), (0,)),
        lambda: reduce_point_to_cone(d, (F(1, 3),), (0,)),
        lambda: reduce_point_to_alcove(d, (F(1, 3), F(0), F(0))),
    ):
        with pytest.raises(ValueError):
            call()


# -- the integer orbit against the Fraction oracles -------------------------------

ORACLE_TYPES = ["A1", "A2", "B2", "C2", "G2", "A3", "B3"]


def all_faces(data):
    nodes = range(data.rank + 1)
    for size in range(1, data.rank + 2):
        yield from itertools.combinations(nodes, size)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_integer_orbit_matches_fraction_bfs(name):
    d = build_lie_data(name)
    for J in all_faces(d):
        ctx = OrbitContext(d, J)
        assert unscaled(ctx.base, ctx.D) == face_data(d, J).nu_I_sharp
        assert ctx.D == math.lcm(*(v.denominator for v in face_data(d, J).nu_I_sharp))
        got = ctx.points_up_to(4)
        assert all(type(v) is int for op in got for v in op.point)
        layers = fraction_orbit(d, J, 4)
        # same points, same lengths, and the same order within each layer
        assert [(unscaled(op.point, ctx.D), op.length) for op in got] == [
            (x, length) for length, layer in enumerate(layers) for x in layer
        ]
        for op in got:
            x = unscaled(op.point, ctx.D)
            assert _scaled_crossing_length(d, op.point, ctx.D) == op.length
            assert fraction_crossing_length(d, x) == op.length
            assert crossing_length(d, x) == op.length
        assert orbit_up_to_length(d, J, 4) == sorted(
            (OrbitPoint(x, length) for length, layer in enumerate(layers) for x in layer),
            key=lambda op: op.point,
        )


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_integer_interior_test_matches_cone_position(name):
    d = build_lie_data(name)
    rng = random.Random(707)
    for J in all_faces(d):
        ctx = OrbitContext(d, J)
        D = ctx.D
        on_orbit = [op.point for op in ctx.points_up_to(2)]
        # lattice points of (1/D) Z^l, most of them off the orbit
        lattice = [tuple(rng.randint(-4 * D, 4 * D) for _ in range(d.rank)) for _ in range(12)]
        for X in on_orbit + lattice:
            x = unscaled(X, D)
            # the integer wall values are D times the Fraction ones
            assert _scaled_walls(d, X, D) == [
                D * fraction_wall_value(d, i, x) for i in range(d.rank + 1)
            ]
            for I in all_faces(d):
                assert cone_position(d, x, I) == fraction_cone_position(d, x, I)
    # rational points with unrelated denominators
    for _ in range(40):
        x = tuple(F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(d.rank))
        for I in all_faces(d):
            assert cone_position(d, x, I) == fraction_cone_position(d, x, I)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_reduce_scaled_on_wall_flag_matches_a_fresh_interior_test(name):
    # the flag comes from the last pass of the reduction; a fresh Fraction
    # test of the image against the same cone must agree, on orbit points
    # (often on walls) and on random lattice points
    d = build_lie_data(name)
    rng = random.Random(913)
    points = []
    for J in all_faces(d):
        ctx = OrbitContext(d, J)
        points += [(op.point, ctx.D) for op in ctx.points_up_to(2)]
    for _ in range(30):
        D = rng.randint(1, 12)
        points.append((tuple(rng.randint(-5 * D, 5 * D) for _ in range(d.rank)), D))
    flags = set()
    for X, D in points:
        for I in all_faces(d):
            image, word, on_wall = _reduce_scaled(d, X, D, _walls_outside(d, I))
            position = fraction_cone_position(d, unscaled(image, D), I)
            assert position != "outside"
            assert on_wall == (position == "boundary")
            flags.add(on_wall)
    assert flags == {True, False}


@pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2", "B3"])
def test_crossing_length_matches_fraction_oracle_off_the_orbit(name):
    d = build_lie_data(name)
    rng = random.Random(708)
    for _ in range(80):
        x = tuple(F(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(d.rank))
        assert crossing_length(d, x) == fraction_crossing_length(d, x)


# -- the one owner of weight wall values ----------------------------------------

# Oracle: the body of weight_wall_value before _weight_walls owned the wall
# values of weights, a dot product with the coroot of node i.


def dot_wall_value(data, nu, i, m):
    value = sum(a * b for a, b in zip(nu, data.node_coroot[i]))
    return value + m if i == 0 else value


def dot_walls(data, nu, m):
    return tuple(dot_wall_value(data, nu, i, m) for i in range(data.rank + 1))


def accepts(make):
    try:
        make()
    except ValueError:
        return False
    return True


def test_walls_outside_has_one_owner():
    assert _walls_outside is lie._walls_outside
    d = build_lie_data("B3")
    assert _walls_outside(d, (0, 2)) == (1, 3)
    assert _walls_outside(d, range(4)) == ()


@pytest.mark.parametrize("name", RANK_LE_8)
def test_weight_walls_match_dot_product_oracle(name):
    d = build_lie_data(name)
    rng = random.Random(f"weight walls {name}")
    for _ in range(30):
        nu = tuple(rng.randint(-6, 6) for _ in range(d.rank))
        m = rng.randint(-3, 9)
        expect = dot_walls(d, nu, m)
        assert _weight_walls(d, nu, m) == _weight_walls(d, list(nu), m) == expect
        i = rng.randint(0, d.rank)
        assert weight_wall_value(d, nu, i, m) == expect[i]


@pytest.mark.parametrize("name", RANK_LE_8)
def test_cone_tests_match_dot_product_oracle(name):
    """Dominance, level, cone and regularity tests, each on the weights of a
    seeded random sample, negatives included, against the dot-product walls."""
    d = build_lie_data(name)
    rng = random.Random(f"cone tests {name}")
    nodes = range(d.rank + 1)
    for _ in range(30):
        nu = tuple(rng.randint(-3, 4) for _ in range(d.rank))
        k = rng.randint(0, 4)
        m = k + d.dual_coxeter
        walls = dot_walls(d, nu, k)
        dominant = all(walls[i] >= 0 for i in nodes if i)
        level = all(v >= 0 for v in walls)
        assert is_dominant(d, nu) == accepts(lambda: CharacterElt(d, {nu: 1})) == dominant
        assert in_level(d, nu, k) == accepts(lambda: FusionElt(d, k, {nu: 1})) == level
        I = tuple(sorted(rng.sample(nodes, rng.randint(1, d.rank + 1))))
        outside = [i for i in nodes if i not in I]
        in_cone = all(walls[i] >= 0 for i in outside)
        assert accepts(lambda: LevelRepElt(d, I, k, {nu: 1})) == in_cone
        regular = all(dot_wall_value(d, nu, i, m) >= 1 for i in outside)
        assert accepts(lambda: AntiInvariant(d, m, I, {nu: 1})) == regular
        if len(outside) <= d.rank and not all(dot_wall_value(d, nu, i, m) >= 0 for i in outside):
            with pytest.raises(ValueError, match="outside the closed cone"):
                weyl_orbit(d, nu, m, outside)
    k = 2 if d.rank <= 4 else 1
    box = itertools.product(range(k + 1), repeat=d.rank)
    assert level_weights(d, k) == [nu for nu in box if min(dot_walls(d, nu, k)) >= 0]


@pytest.mark.parametrize("name", RANK_LE_2)
def test_weyl_orbit_and_cone_basis_match_dot_product_oracle(name):
    """weyl_orbit walks from a point exactly when the oracle puts it in the
    closed cone, and to_cone_basis of a sum of signed orbits keeps exactly
    the terms the oracle calls regular."""
    d = build_lie_data(name)
    rng = random.Random(f"cone basis {name}")
    for I in all_faces(d):
        outside = [i for i in range(d.rank + 1) if i not in I]
        if len(outside) > d.rank:
            continue
        m = rng.randint(0, 5)
        phi = GroupRingElt(d, m)
        for _ in range(10):
            nu = tuple(rng.randint(-4, 4) for _ in range(d.rank))
            closed = all(dot_wall_value(d, nu, i, m) >= 0 for i in outside)
            assert accepts(lambda: weyl_orbit(d, nu, m, outside)) == closed
            if all(dot_wall_value(d, nu, i, m) >= 1 for i in outside):
                phi = phi + GroupRingElt(d, m, weyl_orbit(d, nu, m, outside))
        regular = {w: c for w, c in phi.terms.items()
                   if all(dot_wall_value(d, w, i, m) >= 1 for i in outside)}
        assert to_cone_basis(phi, I).terms == regular
        assert expand(to_cone_basis(phi, I)) == phi


def test_weight_walls_refuse_what_is_not_a_weight():
    d = build_lie_data("A2")
    for bad in [(1,), (1, 0, 0), (), (1.0, 0), (0, 0.5), (F(1), 0), (F(1, 2), 1), (True, 0), (0, False)]:
        with pytest.raises(ValueError):
            _weight_walls(d, bad, 1)
        with pytest.raises(ValueError):
            weight_wall_value(d, bad, 1, 1)
    with pytest.raises(ValueError, match="coordinates, not 2"):
        _weight_walls(d, (1, 0, 0), 1)
    with pytest.raises(ValueError, match="not an int"):
        _weight_walls(d, (1.0, 0), 1)
    with pytest.raises(ValueError, match="out of range"):
        weight_wall_value(d, (1, 0), 3, 1)
    for bad in [(1,), (1.5, 0)]:
        with pytest.raises(ValueError):
            affine_reflect_weight(d, 1, bad, 1)
        with pytest.raises(ValueError):
            weyl_orbit(d, bad, 1, (1,))
        with pytest.raises(ValueError):
            dominantize_walls(d, bad, 1, range(d.rank + 1))


# -- the one greedy loop against the two it replaced ------------------------------

# Oracles: the bodies of the weight walk _walk (with its wall split) and of
# the point reduction _reduce_scaled before both became one loop over a vector
# of wall values.  theta_pairing was a LieData field then.


def theta_pairing(data):
    return tuple(sum(c * r for c, r in zip(data.comarks, root)) for root in data.node_root)


def split_walk(data, out, m, walls):
    walls = sorted(walls)
    return head_walk(data, out, m, walls[:1] == [0], [i for i in walls if i])


def head_walk(data, out, m, node0, nodes):
    node_root = data.node_root
    if node0:
        theta, c0 = theta_pairing(data), m - sum(map(mul, data.comarks, out))
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


def head_reduce_scaled(data, X, D, walls):
    node_root, node_coroot = data.node_root, data.node_coroot
    word = []
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


def one_loop_wall_sets(data):
    """Walls 1..l, all l+1 walls, and up to rank 3 the walls outside every
    face that has some."""
    nodes = range(data.rank + 1)
    sets = [tuple(nodes[1:]), tuple(nodes)]
    if data.rank <= 3:
        sets += [_walls_outside(data, I) for I in all_faces(data) if len(I) <= data.rank]
    return sets


@pytest.mark.parametrize("name", RANK_LE_8)
def test_one_loop_matches_weight_walk_oracle(name):
    """Image, word length, sign and on-wall flag of seeded weights, negatives
    included: at level 0 on walls 1..l, at every level 1..h_vee + 3 on all
    l+1 walls, and on the walls outside every face up to rank 3.  The
    rho-shifted start of dominantize_terms agrees too."""
    d = build_lie_data(name)
    rng = random.Random(f"one loop weights {name}")
    cases = [(0, tuple(range(1, d.rank + 1)))]
    cases += [(m, tuple(range(d.rank + 1))) for m in range(1, d.dual_coxeter + 4)]
    cases += [(rng.randint(0, 6), walls) for walls in one_loop_wall_sets(d)[2:]]
    for m, walls in cases:
        for _ in range(3):
            nu = tuple(rng.randint(-6, 6) for _ in range(d.rank))
            expect = split_walk(d, list(nu), m, walls)
            vec, word, on_wall = _reduce(_weight_walls(d, nu, m), d.weight_table, walls)
            assert (tuple(vec[1:]), len(word), on_wall) == (
                expect.weight, expect.word_length, expect.sign == 0), (nu, m, walls)
            assert dominantize_walls(d, nu, m, walls) == expect
            rep, sign, _ = split_walk(d, [x + 1 for x in nu], m, walls)
            shifted = {tuple(x - 1 for x in rep): sign} if sign else {}
            assert dominantize_terms(d, {nu: 1}, m, walls, 1) == shifted


@pytest.mark.parametrize("name", RANK_LE_8)
def test_one_loop_matches_point_reduction_oracle(name):
    """Image numerators, word and on-wall flag of seeded lattice points X / D,
    negatives included, on walls 1..l, on all l+1 walls and on the walls
    outside every face up to rank 3."""
    d = build_lie_data(name)
    rng = random.Random(f"one loop points {name}")
    for walls in one_loop_wall_sets(d):
        for _ in range(10):
            D = rng.randint(1, 12)
            X = tuple(rng.randint(-5 * D, 5 * D) for _ in range(d.rank))
            assert _reduce_scaled(d, X, D, walls) == head_reduce_scaled(d, X, D, walls), (X, D)


# -- one upward walk for points and weights -----------------------------------


def head_weyl_orbit(data, nu, m, walls):
    """Oracle: the signed orbit walk weyl_orbit ran before the shared walk,
    reading wall values off the weight coordinates; walls as _wall_list
    returns them."""
    node_root, comarks = data.node_root, data.comarks
    nu = tuple(nu)
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


RANK_LE_4 = [name for name in RANK_LE_8 if int(name[1:]) <= 4]


@pytest.mark.parametrize("name", RANK_LE_4)
def test_walk_layers_match_the_orbit_search_oracle(name):
    """Every face, lengths 0..3: each layer of the walk, sorted, is the
    oracle's layer, and so is each layer of the context; each stored vector
    is _scaled_walls of its point followed by the point."""
    d = build_lie_data(name)
    tail = d.rank + 1
    for J in all_faces(d):
        ctx = OrbitContext(d, J)
        expect = head_orbit_layers(d, ctx.base, ctx.D, 3)
        start = [*_scaled_walls(d, ctx.base, ctx.D), *ctx.base]
        walked = itertools.islice(_walk(start, d.point_table, range(tail)), 4)
        assert [sorted(vec[tail:] for vec in layer) for layer in walked] == expect, J
        ctx.ensure_length(3)
        assert ctx._layers == expect, J
        assert ctx._length == {X: n for n, layer in enumerate(expect) for X in layer}
        for X, vec in ctx._vectors.items():
            assert vec == (*_scaled_walls(d, X, ctx.D), *X), (J, X)


@pytest.mark.parametrize("name", RANK_LE_4)
def test_weyl_orbit_matches_the_coordinate_walk_oracle(name):
    """Every face, seeded cone points (regular and on walls) at levels in
    [-2, 6]: the same keys in the same walk order, with the same signs."""
    d = build_lie_data(name)
    rng = random.Random(f"walk weights {name}")
    for I in all_faces(d):
        walls = _walls_outside(d, I)
        for _ in range(4):
            m = rng.randint(-2, 6)
            raw = tuple(rng.randint(-4, 5) for _ in range(d.rank))
            nu = dominantize_walls(d, raw, m, walls).weight
            got = weyl_orbit(d, nu, m, walls)
            assert [*got.items()] == [*head_weyl_orbit(d, nu, m, walls).items()], (I, nu, m)


def test_wall_lists_are_checked_where_they_enter():
    d = build_lie_data("A2")
    for walls in [(-1,), (3,), (0, 1, 3), (-1, 1)]:
        with pytest.raises(ValueError, match="has a node outside 0..2"):
            dominantize_walls(d, (1, 1), 3, walls)
        with pytest.raises(ValueError, match="has a node outside 0..2"):
            dominantize_terms(d, {(-2, 1): 1}, 3, walls, 0)
        with pytest.raises(ValueError, match="has a node outside 0..2"):
            weyl_orbit(d, (1, 1), 3, walls)
    for m in (0, -1):
        with pytest.raises(ValueError, match="level must be >= 1"):
            dominantize_walls(d, (1, 0), m, [2, 1, 0])
    # a repeated wall is listed once: walls 1 and 2 at level 0 are the
    # finite linear action, and (0, 0, 1) generates a finite group
    assert dominantize_terms(d, {(1, 0): 1}, 0, [1, 1, 2], 1) == {(1, 0): 1}
    assert dominantize_walls(d, (-1, 0), 0, [2, 1, 1]) == dominantize_walls(d, (-1, 0), 0, [1, 2])
    assert weyl_orbit(d, (1, 1), 3, (0, 0, 1)) == weyl_orbit(d, (1, 1), 3, (0, 1))


@pytest.mark.parametrize("walls", [[True], [1.0], [1, True], (0, 2.0), ["1"], [None], [F(1)]])
def test_wall_list_entries_must_be_ints(walls):
    # True once read as node 1, and 1.0 raised TypeError as a tuple index
    d = build_lie_data("A2")
    with pytest.raises(ValueError, match="has an entry that is not an int$"):
        dominantize_walls(d, (-1, 0), 3, walls)
    with pytest.raises(ValueError, match="has an entry that is not an int$"):
        dominantize_terms(d, {(-2, 1): 1}, 3, walls, 0)
    with pytest.raises(ValueError, match="has an entry that is not an int$"):
        weyl_orbit(d, (1, 1), 3, walls)


ENDLESS_WALL_LISTS = """
from alcove.affine import dominantize_terms, dominantize_walls, weyl_orbit
from alcove.lie import build_lie_data

d = build_lie_data("A2")
for call in (lambda: weyl_orbit(d, (1, 1), 3, (-1,)),
             lambda: dominantize_terms(d, {(-2, 1): 1}, 3, (-1,), 0),
             lambda: dominantize_walls(d, (1, 0), 0, range(3))):
    try:
        call()
    except ValueError as exc:
        print(exc)
"""


def test_endless_wall_lists_are_refused_before_any_walk():
    # a negative node once read the wall value and the root of different
    # nodes, and all l+1 walls at level 0 bound no fundamental domain: each
    # walked without end, so the calls run in a child process that a
    # timeout ends
    proc = subprocess.run(
        [sys.executable, "-c", ENDLESS_WALL_LISTS],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.splitlines() == ["wall list [-1] has a node outside 0..2"] * 2 + [
        "level must be >= 1"]
