"""The double-description polytope core against brute-force oracles.

Vertices, facets and triangulations from `polyhedra` are compared with the
subset-enumeration oracles in `conftest.py` on seeded random polytopes of
ranks 2-5: random hulls and inequality systems, non-simple bodies (cube and
cross-polytope cells), lower-dimensional Reeb slices and empty systems.
Cuts refined from a body's vertices are compared with the same system built
from scratch, and the integer volumes and first moments with simplex sums.
Every constructor's integer vertex form is compared with the one derived
from independently computed Fraction vertices.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

from conftest import (brute_hull, brute_pulling, brute_vertices, first_moment, min_form,
                      permutation_det)
from reebvol.arith import dot, mat_vec, primitive, rank_of, unimodular_completion
from reebvol.plconcave import linearity_subdivision
from reebvol.polyhedra import (
    Cone,
    Polytope,
    check_consistency,
    cut,
    dual_cone,
    polytope_from_halfspaces,
    polytope_from_vertices,
    reeb_slice,
    triangulate,
    triangulate_cone,
    unimodular_image,
    volume,
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def oracle_simplex_volume(points):
    rows = [tuple(x - y for x, y in zip(v, points[0])) for v in points[1:]]
    return abs(permutation_det(rows)) / math.factorial(len(rows))


def assert_triangulation_matches_oracle(p):
    """Same simplices as the brute-force pulling triangulation, and volumes
    that add up to the oracle's."""
    index = {v: i for i, v in enumerate(p.vertices)}
    oracle = brute_pulling(list(p.vertices))
    expected = tuple(sorted(tuple(sorted(index[v] for v in s)) for s in oracle))
    assert triangulate(p).simplices == expected
    assert volume(p) == sum(oracle_simplex_volume(s) for s in oracle)


def cube(n, r=1):
    return [(tuple(int(i == j) for j in range(n)), r) for i in range(n)] + [
        (tuple(-int(i == j) for j in range(n)), r) for i in range(n)
    ]


def cross(n):
    return [(s, 1) for s in itertools.product((-1, 1), repeat=n)]


# -- random hulls --------------------------------------------------------------


@st.composite
def point_sets(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.integers(n + 1, n + (3 if n == 5 else 5)))
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=k, max_size=k, unique=True))
    assume(rank_of([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]]) == n)
    return n, pts


@seed(20240611)
@SETTINGS
@given(point_sets())
def test_hull_and_vertices_match_oracles(case):
    n, pts = case
    p = polytope_from_vertices(pts)
    verts, facets = brute_hull(pts)
    assert list(p.vertices) == verts
    assert list(p.halfspaces) == facets
    again = polytope_from_halfspaces(n, p.halfspaces)
    assert list(again.vertices) == verts
    assert again.halfspaces == p.halfspaces
    if n <= 4:
        assert_triangulation_matches_oracle(p)


@st.composite
def zero_one_polytopes(draw, min_rank=4):
    """Random 0/1-polytopes of ranks ``min_rank``-5: their faces are often
    not simplices, and two facets may meet in a face of lower dimension
    than a ridge, which the pulling recursion must not mistake for a
    facet."""
    n = draw(st.integers(min_rank, 5))
    k = draw(st.integers(n + 4, 11))
    pts = draw(st.permutations(list(itertools.product((0, 1), repeat=n))))[:k]
    assume(rank_of([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]]) == n)
    return pts


@seed(20240614)
@settings(SETTINGS, max_examples=15)
@given(zero_one_polytopes())
@example([(0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 1, 1, 1, 0),
          (1, 0, 1, 1, 1), (1, 1, 0, 0, 0), (1, 1, 0, 1, 0), (1, 1, 0, 1, 1)])
def test_zero_one_polytopes_match_oracles(pts):
    p = polytope_from_vertices(pts)
    assert (list(p.vertices), list(p.halfspaces)) == brute_hull(pts)
    assert_triangulation_matches_oracle(p)


def assert_face_to_face(p):
    """Every ridge of a simplex lies in exactly one simplex when it is on a
    facet of the body and in exactly two when it is interior."""
    ridges = Counter(
        r for s in triangulate(p).simplices for r in itertools.combinations(s, len(s) - 1)
    )
    for ridge, count in ridges.items():
        boundary = any(all(dot(a, p.vertices[i]) == b for i in ridge) for a, b in p.halfspaces)
        assert count == (1 if boundary else 2), ridge


@seed(20240615)
@settings(SETTINGS, max_examples=60)
@given(st.one_of(zero_one_polytopes(min_rank=3), point_sets().map(lambda case: case[1])))
@example([(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 0, 1, 0, 1),
          (0, 0, 1, 1, 0), (0, 0, 1, 1, 1), (0, 1, 0, 0, 0), (0, 1, 1, 0, 1), (1, 0, 1, 0, 0)])
def test_triangulations_are_face_to_face(pts):
    assert_face_to_face(polytope_from_vertices(pts))


@st.composite
def flat_point_sets(draw):
    """k+1 to k+3 points of rank 1-5 in an affine subspace of dimension
    k = 0..n: a base point plus small integer combinations of k random
    directions, so the affine dimension is at most k."""
    n = draw(st.integers(1, 5))
    k = n - draw(st.integers(0, n))
    small = st.integers(-2, 2)
    base = draw(st.tuples(*[small] * n))
    directions = draw(st.lists(st.tuples(*[small] * n), min_size=k, max_size=k))
    combos = draw(st.lists(st.tuples(*[small] * k), min_size=k + 1, max_size=k + 3))
    return n, [tuple(b + sum(c * v[i] for c, v in zip(cs, directions)) for i, b in enumerate(base))
               for cs in combos]


@seed(20261019)
@settings(SETTINGS, max_examples=80)
@given(flat_point_sets())
@example((3, [(1, 2, 0)]))  # a single point: equations only
@example((1, [(0,), (2,)]))  # a segment of the line
def test_hulls_of_any_dimension(case):
    """The hull has the affine dimension of the points, its halfspaces hold
    them and give back its vertices, and a full-dimensional one matches the
    subset-hull oracle."""
    n, pts = case
    hull = polytope_from_vertices(pts)
    assert hull.affine_dim == rank_of([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]])
    assert all(dot(a, p) <= b for p in pts for a, b in hull.halfspaces)
    again = polytope_from_halfspaces(n, hull.halfspaces, assume_bounded=True)
    assert again.vertices == hull.vertices
    if hull.affine_dim == n > 1:
        assert (list(hull.vertices), list(hull.halfspaces)) == brute_hull(pts)


# -- random inequality systems -------------------------------------------------


@st.composite
def systems(draw):
    """A bounding simplex {x >= -b, sum x <= b} plus a few random cuts;
    some systems are empty and some are lower-dimensional."""
    n = draw(st.integers(2, 5))
    b = draw(st.integers(1, 3))
    hs = [(tuple(-int(i == j) for j in range(n)), b) for i in range(n)]
    hs.append(((1,) * n, b))
    for _ in range(draw(st.integers(1, 4 if n < 5 else 3))):
        normal = draw(st.tuples(*[st.integers(-2, 2)] * n))
        assume(any(normal))
        offset = F(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        hs.append((normal, offset))
        if draw(st.booleans()) and draw(st.booleans()):
            hs.append((tuple(-x for x in normal), -offset))  # an equality: a slice
    return n, hs


@seed(20240612)
@SETTINGS
@given(systems())
def test_systems_match_vertex_oracle(case):
    n, hs = case
    p = polytope_from_halfspaces(n, hs)
    verts = brute_vertices(n, hs)
    assert list(p.vertices) == verts
    assert check_consistency(p, strict=True)
    if not verts:
        assert p.affine_dim == -1 and p.halfspaces == ()
        return
    assert p.affine_dim == rank_of([tuple(x - y for x, y in zip(v, verts[0])) for v in verts])
    if p.affine_dim == n:
        assert list(p.halfspaces) == brute_hull(verts)[1]
        if len(verts) <= 2 * n + 2:
            assert_triangulation_matches_oracle(p)


# -- non-simple bodies: cube and cross-polytope cells ------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cube_cells_match_oracles(n):
    body = polytope_from_halfspaces(n, cube(n))
    assert len(body.vertices) == 2**n and volume(body) == 2**n
    assert list(body.vertices) == brute_vertices(n, cube(n))
    # a three-branch minimum cuts the cube into non-simple cells
    f = min_form(
        tuple(int(j == 0) for j in range(n)),
        tuple(int(j == 1) for j in range(n)),
        tuple(1 if j < 2 else -1 for j in range(n)),
    )
    cells = linearity_subdivision(f, body)
    assert sum(volume(c) for c, _ in cells) == 2**n
    for cell, _ in cells:
        assert list(cell.vertices) == brute_vertices(n, cell.halfspaces)
        assert check_consistency(cell, strict=True)
        if n <= 3:
            assert list(cell.halfspaces) == brute_hull(cell.vertices)[1]
            assert_triangulation_matches_oracle(cell)
    if n <= 4:
        assert_triangulation_matches_oracle(body)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cross_polytope_matches_oracles(n):
    vertices = sorted(
        tuple(F(s * int(i == j)) for j in range(n)) for i in range(n) for s in (-1, 1)
    )
    body = polytope_from_halfspaces(n, cross(n))
    assert list(body.vertices) == vertices
    assert volume(body) == F(2**n, math.factorial(n))
    hull = polytope_from_vertices(vertices)
    assert (list(hull.vertices), list(hull.halfspaces)) == brute_hull(vertices)
    assert hull.halfspaces == body.halfspaces
    if n <= 3:
        assert list(body.vertices) == brute_vertices(n, cross(n))
    if n <= 4:
        assert_triangulation_matches_oracle(body)


# -- lower-dimensional slices -------------------------------------------------------


@st.composite
def cones_with_xi(draw):
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["simplicial", "cube", "cross", "random"]))
    if kind == "cube":
        rays = [list(s) + [1] for s in itertools.product((-1, 1), repeat=n - 1)]
    elif kind == "cross":
        rays = [[s * int(i == j) for j in range(n - 1)] + [1] for i in range(n - 1) for s in (-1, 1)]
    else:
        count = n if kind == "simplicial" else n + draw(st.integers(1, 3))
        rays = [list(draw(st.tuples(*[st.integers(-2, 2)] * (n - 1)))) + [1] for _ in range(count)]
    assume(rank_of(rays) == n)
    sigma = Cone.from_rays(rays)
    # the sum of the rays lies in the interior, so it is a Reeb field
    xi = tuple(sum(r[i] for r in sigma.rays) for i in range(n))
    return sigma, xi


@seed(20240613)
@SETTINGS
@given(cones_with_xi())
def test_reeb_slices_match_vertex_oracle(case):
    sigma, xi = case
    n = sigma.rank
    q, p = reeb_slice(dual_cone(sigma), xi)
    if len(q.halfspaces) <= 10 or n <= 3:
        assert list(q.vertices) == brute_vertices(n, q.halfspaces)
        assert list(p.vertices) == brute_vertices(n, p.halfspaces)
    assert check_consistency(q, strict=True)
    assert check_consistency(p, strict=True)
    again = polytope_from_halfspaces(n, p.halfspaces)
    assert again.vertices == p.vertices
    assert again.affine_dim == n - 1
    assert polytope_from_halfspaces(n, q.halfspaces) == q


@seed(20240616)
@SETTINGS
@given(cones_with_xi())
def test_cone_subcones_match_volume_oracle(case):
    """The weight cone's subcones are simplicial, and the closed form over
    them is n! vol(Q), with vol(Q) from the brute-force pulling oracle."""
    sigma, xi = case
    n = sigma.rank
    dual = dual_cone(sigma)
    rays = dual.rays
    assume(len(rays) <= 12)  # the oracle hulls Q by brute force
    total = F(0)
    for idx in triangulate_cone(dual).simplices:
        rows = [rays[i] for i in idx]
        assert len(rows) == n and rank_of(rows) == n
        total += abs(permutation_det(rows)) / math.prod(dot(r, xi) for r in rows)
    q = [(F(0),) * n] + [tuple(F(x, dot(r, xi)) for x in r) for r in rays]
    assert total == math.factorial(n) * sum(oracle_simplex_volume(s) for s in brute_pulling(q))


# -- empty systems -----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_empty_systems_match_oracle(n):
    infeasible = cube(n) + [(tuple(int(j == 0) for j in range(n)), -2)]
    p = polytope_from_halfspaces(n, infeasible)
    assert p == Polytope(n, (), (), -1)
    assert brute_vertices(n, infeasible) == []
    # no halfspace at all: no vertex either way
    assert check_consistency(Polytope(n, (), (), -1), strict=True)
    assert brute_vertices(n, []) == []


# -- cuts refined from a body's vertices ------------------------------------------


@st.composite
def cut_cases(draw):
    """A nonempty body of rank 1-5 and a few halfspaces to cut it with.

    The body is a random hull, sometimes rescaled (its halfspaces are then
    not in canonical form) or first cut down to a face.  Each extra
    halfspace is random, redundant (possibly supporting a face), leaves
    only a face, empties the body, or is a multiple of one of the body's
    own halfspaces.
    """
    n = draw(st.sampled_from([1, 2, 3, 4, 5]))
    k = draw(st.integers(n + 1, n + (2 if n == 5 else 4)))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k,
                        unique=True))
    assume(rank_of([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]]) == n)
    p = polytope_from_vertices(pts)
    if draw(st.booleans()):
        p = p.scaled(F(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    normals = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    if n > 1 and draw(st.booleans()) and draw(st.booleans()):
        a = draw(normals)
        top = max(dot(a, v) for v in p.vertices)
        p = polytope_from_halfspaces(n, [*p.halfspaces, (tuple(-x for x in a), -top)],
                                     assume_bounded=True)
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(normals)
        values = [dot(a, v) for v in p.vertices]
        top = max(values)
        kind = draw(st.sampled_from(["random", "random", "redundant", "face", "empty", "own"]))
        if kind == "random":
            # an offset from the bottom to the top of the body along a
            extra.append((a, min(values) + (top - min(values)) * F(draw(st.integers(0, 4)), 4)))
        elif kind == "redundant":
            extra.append((a, top + draw(st.integers(0, 2))))
        elif kind == "face":
            extra.append((tuple(-x for x in a), -top))
        elif kind == "empty":
            extra.append((tuple(-x for x in a), -top - 1))
        else:
            a, b = draw(st.sampled_from(p.halfspaces))
            c = draw(st.integers(1, 3))
            extra.append((tuple(c * x for x in a), c * b))
    return p, extra


@seed(20261019)
@settings(SETTINGS, max_examples=120)
@given(cut_cases())
def test_cut_equals_the_system_built_from_scratch(case):
    p, extra = case
    got = cut(p, extra)
    want = polytope_from_halfspaces(p.rank, [*p.halfspaces, *extra], assume_bounded=True)
    assert got.rank == want.rank
    assert got.vertices == want.vertices
    assert got.halfspaces == want.halfspaces
    assert got.affine_dim == want.affine_dim


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cut_leaves_faces_and_empties(n):
    body = polytope_from_halfspaces(n, cube(n))
    e0 = tuple(int(j == 0) for j in range(n))
    face = cut(body, [(tuple(-x for x in e0), -1)])
    assert face.affine_dim == n - 1 and len(face.vertices) == 2 ** (n - 1)
    assert face == polytope_from_halfspaces(n, cube(n) + [(tuple(-x for x in e0), -1)],
                                            assume_bounded=True)
    assert cut(body, [(tuple(-x for x in e0), -2)]) == Polytope(n, (), (), -1)
    assert cut(body, [(e0, 1), (e0, 5)]) == body  # redundant cuts change nothing


def assert_measure_matches_oracle(p):
    """The integer volume and first moment equal the Fraction sums over the
    brute-force pulling triangulation: a simplex's first moment is its
    volume times its centroid."""
    n = p.rank
    simplices = brute_pulling(list(p.vertices))
    vols = [oracle_simplex_volume(s) for s in simplices]
    moment = tuple(
        sum(v * sum(pt[j] for pt in s) for v, s in zip(vols, simplices)) / (n + 1)
        for j in range(n)
    )
    assert volume(p) == p.measure.volume == sum(vols)
    assert first_moment(p.measure) == moment


@seed(20261020)
@settings(SETTINGS, max_examples=40)
@given(cut_cases())
def test_integer_measure_matches_oracle_simplex_sums(case):
    p, extra = case
    for body in (p, cut(p, extra)):
        if body.affine_dim == body.rank and (body.rank <= 3 or len(body.vertices) <= 8):
            assert_measure_matches_oracle(body)


# -- the integer vertex form -------------------------------------------------------


def assert_vertex_form(p, want):
    """p's integer vertices are the least-common-denominator form of the
    independently derived Fraction vertices ``want``, in sorted order."""
    want = sorted(tuple(map(F, v)) for v in want)
    d = math.lcm(*(x.denominator for v in want for x in v))
    assert p.integer_vertices == (d, tuple(tuple(int(x * d) for x in v) for v in want))
    assert list(p.vertices) == want


@st.composite
def vertex_form_cases(draw):
    """A cone of rank 1-5 with a rational xi in its interior, a positive
    rational combination of its rays, so that xi's pairings with the weight
    cone's rays rarely divide one another; a rational hull of the same
    rank, a halfspace to cut it with, a scale, and a primitive vector to
    complete to a unimodular frame."""
    sigma = Cone.from_rays([[1]]) if draw(st.integers(1, 5)) == 1 else draw(cones_with_xi())[0]
    n = sigma.rank
    k = draw(st.integers(n + 1, n + (1 if n == 5 else 3)))  # a rank-5 simplex: few facets
    den = draw(st.integers(1, 6))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k,
                        unique=True))
    assume(rank_of([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]]) == n)
    pts = [tuple(F(x, den) for x in p) for p in pts]
    nonzero = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    halfspace = (draw(nonzero), F(draw(st.integers(-3, 3)), draw(st.integers(1, 4))))
    scale = F(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    w = primitive(draw(nonzero))
    weights = [F(draw(st.integers(1, 5)), draw(st.integers(1, 5))) for _ in sigma.rays]
    xi = tuple(sum(c * r[i] for c, r in zip(weights, sigma.rays)) for i in range(n))
    return sigma, xi, pts, halfspace, scale, w


@seed(20261021)
@settings(SETTINGS, max_examples=40)
@given(vertex_form_cases())
@example((Cone.from_rays([[1, 0], [0, 1]]), (F(2, 3), F(3, 4)),  # pairings 8 and 9
          [(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 3))], ((1, 1), F(1, 4)), F(2, 3), (1, 2)))
def test_every_constructor_builds_the_integer_vertex_form(case):
    sigma, xi, pts, halfspace, scale, w = case
    n = sigma.rank
    hull = polytope_from_vertices(pts)
    corners = brute_vertices(n, hull.halfspaces)
    assert_vertex_form(hull, corners)
    assert_vertex_form(polytope_from_halfspaces(n, hull.halfspaces), corners)
    assert_vertex_form(cut(hull, [halfspace]), brute_vertices(n, [*hull.halfspaces, halfspace]))
    assert_vertex_form(hull.scaled(scale), [tuple(scale * x for x in v) for v in hull.vertices])
    dual = dual_cone(sigma)
    q, p = reeb_slice(dual, xi)
    slice_points = [tuple(F(x) / dot(r, xi) for x in r) for r in dual.rays]
    assert_vertex_form(p, slice_points)
    assert_vertex_form(q, slice_points + [(F(0),) * n])
    v, w_inverse = unimodular_completion(w)
    for body in (hull, p):
        image = unimodular_image(body, v, w_inverse)
        assert_vertex_form(image, [mat_vec(w_inverse, x) for x in body.vertices])


@seed(20261022)
@settings(SETTINGS, max_examples=40)
@given(vertex_form_cases())
def test_dd_constructors_hand_over_their_incidences(case):
    """The hulls, halfspace systems, cuts (also onto a hyperplane) and
    scalings built from double descriptions come with the bitmask of the
    vertices on each halfspace, equal to comparing every dot product."""
    sigma, _, pts, halfspace, scale, _ = case
    n = sigma.rank
    hull = polytope_from_vertices(pts)
    flat = polytope_from_vertices([(F(0),) + p[1:] for p in pts])
    a, b = halfspace
    bodies = [hull, flat, polytope_from_halfspaces(n, hull.halfspaces), cut(hull, [halfspace]),
              cut(hull, [halfspace, (tuple(-x for x in a), -b)])]
    bodies.append(bodies[3].scaled(scale))
    for body in bodies:
        if body.affine_dim >= 0:
            assert body.__dict__["incidence"] == tuple(
                sum(1 << j for j, v in enumerate(body.vertices) if dot(a, v) == b)
                for a, b in body.halfspaces)
