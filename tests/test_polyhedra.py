import random
from fractions import Fraction as F

import pytest

from conftest import brute_lattice_points, brute_vertices, chart_lift, chart_project
from reebvol import lattice
from reebvol.arith import dot, mat_vec
from reebvol.errors import (
    DegeneratePolytopeError,
    InvalidBasisError,
    NotReebFieldError,
    UnsupportedGeometryError,
)
from reebvol.polyhedra import (
    Cone,
    Polytope,
    check_consistency,
    dual_cone,
    facet_chart,
    okounkov_body,
    polytope_from_halfspaces,
    polytope_from_vertices,
    reeb_slice,
    triangulate,
    volume,
)

UNIT_SQUARE_HS = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]


# -- cones -------------------------------------------------------------------


def test_orthant_self_dual(orthant2):
    d = dual_cone(orthant2)
    assert d.rays == ((0, 1), (1, 0))
    assert d.halfspaces == ((0, 1), (1, 0))


def test_dual_hand_example(a1_cone):
    d = dual_cone(a1_cone)
    assert set(d.rays) == {(0, 1), (2, -1)}
    # brute check: each ray pairs nonnegatively with both generators
    for r in d.rays:
        assert dot(r, (1, 0)) >= 0 and dot(r, (1, 2)) >= 0


def test_redundant_ray_removed():
    c = Cone.from_rays([[1, 0], [0, 1], [1, 1]])
    assert c.rays == ((0, 1), (1, 0))


def test_double_dual_identity(orthant2, orthant3, a1_cone, square_base_cone):
    for c in (orthant2, orthant3, a1_cone, square_base_cone):
        assert dual_cone(dual_cone(c)).rays == c.rays


def test_dual_matches_facet_enumeration_oracle():
    # independent oracle: a facet normal of a full-dimensional pointed cone
    # is orthogonal to n-1 independent generators, pairs >= 0 with all of
    # them, and its tight set has rank n-1
    import itertools

    from reebvol.arith import orthogonal_complement_vector, rank_of

    rng = random.Random(29)
    built = 0
    while built < 30:
        n = rng.choice((2, 3, 4))
        rays = [
            tuple(rng.randint(-2, 3) for _ in range(n))
            for _ in range(rng.randint(n, n + 3))
        ]
        if any(all(x == 0 for x in r) for r in rays):
            continue
        try:
            cone = Cone.from_rays(rays)
        except UnsupportedGeometryError:
            continue
        generators = [tuple(map(F, r)) for r in rays]
        candidates = set()
        for subset in itertools.combinations(generators, n - 1):
            normal = orthogonal_complement_vector(list(subset)) if n > 1 else (1,)
            if all(x == 0 for x in normal):
                continue
            for h in (normal, tuple(-x for x in normal)):
                if all(dot(h, r) >= 0 for r in generators):
                    tight = [r for r in generators if dot(h, r) == 0]
                    if rank_of(tight) == n - 1:
                        candidates.add(tuple(h))
        assert set(cone.halfspaces) == candidates
        built += 1


def test_non_full_dimensional_rejected():
    with pytest.raises(UnsupportedGeometryError):
        Cone.from_rays([[1, 0], [2, 0]])


def test_non_pointed_rejected():
    with pytest.raises(UnsupportedGeometryError):
        Cone.from_rays([[1, 0], [-1, 0], [0, 1]])


@pytest.mark.parametrize("make, generators, message", [
    (Cone.from_rays, [(1, 0), (-1, 0), (0, 1)], "cone is not pointed"),
    (Cone.from_rays, [(1, 0, 0), (0, 1, 0)], "cone is not full-dimensional"),
    (Cone.from_rays, [(1, 0), (-1, 0)], "cone is not full-dimensional"),
    (Cone.from_halfspaces, [(1, 0), (-1, 0), (0, 1)], "cone is not full-dimensional"),
    (Cone.from_halfspaces, [(1, 0, 0), (0, 1, 0)],
     "cone is not pointed (facet normals do not span)"),
])
def test_cone_errors_name_the_failed_condition(make, generators, message):
    with pytest.raises(UnsupportedGeometryError) as err:
        make(generators)
    assert str(err.value) == message


def test_rank_range_guard():
    with pytest.raises(UnsupportedGeometryError):
        Cone.from_rays([[1] + [0] * 8] * 9, rank=9)


def test_cone_json_roundtrip(a1_cone):
    data = a1_cone.to_json()
    assert data["halfspaces"][0]["offset"] == "0"
    again = Cone.from_json(data)
    assert again.rays == a1_cone.rays
    assert again.halfspaces == a1_cone.halfspaces


# -- Reeb slices -------------------------------------------------------------


def test_reeb_slice_orthant(orthant2):
    d = dual_cone(orthant2)
    q, p = reeb_slice(d, ("1", "2"))
    assert set(q.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1, 2))}
    assert set(p.vertices) == {(F(1), F(0)), (F(0), F(1, 2))}
    assert check_consistency(q, strict=True)
    assert list(q.vertices) == brute_vertices(q.rank, q.halfspaces)


def test_reeb_slice_a1(a1_cone):
    d = dual_cone(a1_cone)
    q, _ = reeb_slice(d, (1, 1))
    assert set(q.vertices) == {(F(0), F(0)), (F(0), F(1)), (F(2), F(-1))}
    assert volume(q) == 1


def test_reeb_slice_rejects_boundary(orthant2):
    d = dual_cone(orthant2)
    with pytest.raises(NotReebFieldError):
        reeb_slice(d, (1, -1))
    with pytest.raises(NotReebFieldError):
        reeb_slice(d, (1, 0))


# -- Okounkov body -----------------------------------------------------------


def test_okounkov_identity_basis(orthant2):
    d = dual_cone(orthant2)
    q, _ = reeb_slice(d, (1, 1))
    body = okounkov_body(d, (1, 1), [[1, 0], [0, 1]])
    assert body.vertices == q.vertices
    assert volume(body) == volume(q)


def test_okounkov_unimodular_image(orthant2):
    d = dual_cone(orthant2)
    body = okounkov_body(d, (1, 1), [[1, 1], [0, 1]])
    expected = sorted(
        tuple(mat_vec(((F(1), F(1)), (F(0), F(1))), v))
        for v in reeb_slice(d, (1, 1))[0].vertices
    )
    assert list(body.vertices) == expected
    assert volume(body) == F(1, 2)
    assert check_consistency(body, strict=True)
    assert list(body.vertices) == brute_vertices(body.rank, body.halfspaces)


def test_okounkov_volume_preserved(a1_cone):
    d = dual_cone(a1_cone)
    q, _ = reeb_slice(d, (1, 1))
    body = okounkov_body(d, (1, 1), [[1, 0], [1, 1]])
    assert volume(body) == volume(q)


def test_okounkov_integer_basis_preserves_lattice_counts(a1_cone):
    d = dual_cone(a1_cone)
    q, _ = reeb_slice(d, (1, 1))
    body = okounkov_body(d, (1, 1), [[1, 0], [1, 1]])
    for m in (1, 3, 7):
        assert lattice.count_points(body, m) == lattice.count_points(q, m)


def test_okounkov_rational_basis(orthant2):
    d = dual_cone(orthant2)
    q, _ = reeb_slice(d, (1, 1))
    body = okounkov_body(d, (1, 1), [[F(1, 2), F(1, 2)], [F(0), F(2)]])
    assert volume(body) == volume(q)
    assert check_consistency(body, strict=True)
    assert list(body.vertices) == brute_vertices(body.rank, body.halfspaces)


def test_okounkov_bad_basis(orthant2):
    d = dual_cone(orthant2)
    with pytest.raises(InvalidBasisError):
        okounkov_body(d, (1, 1), [[2, 0], [0, 1]])  # det 2
    with pytest.raises(InvalidBasisError):
        okounkov_body(d, (1, 1), [[1, 0], [1, -1]])  # det -1 and outside


# -- polytopes, triangulation, volume ----------------------------------------


def test_simplex_triangulates_to_itself():
    p = polytope_from_vertices([(0, 0), (1, 0), (0, 1)])
    t = triangulate(p)
    assert t.simplices == ((0, 1, 2),)


def test_unit_square_split():
    p = polytope_from_halfspaces(2, UNIT_SQUARE_HS)
    t = triangulate(p)
    assert len(t.simplices) == 2
    areas = sorted(
        volume(polytope_from_vertices([p.vertices[i] for i in s])) for s in t.simplices
    )
    assert areas == [F(1, 2), F(1, 2)]


def test_a1_slice_single_simplex(a1_cone):
    q, _ = reeb_slice(dual_cone(a1_cone), (1, 1))
    t = triangulate(q)
    assert len(t.simplices) == 1
    assert volume(q) == 1


def test_triangulation_deterministic(square_base_cone):
    q, _ = reeb_slice(dual_cone(square_base_cone), (0, 0, 1))
    assert triangulate(q) == triangulate(q)
    assert volume(q) == sum(
        volume(polytope_from_vertices([q.vertices[i] for i in s]))
        for s in triangulate(q).simplices
    )


def test_degenerate_triangulation_reports_dimension():
    p = Polytope(2, ((F(0), F(0)), (F(1), F(1))), (), 1)
    with pytest.raises(DegeneratePolytopeError) as err:
        triangulate(p)
    assert err.value.affine_dim == 1


def test_standard_simplex_volumes():
    for n in (2, 3, 4):
        verts = [tuple(F(0) for _ in range(n))]
        for i in range(n):
            verts.append(tuple(F(int(j == i)) for j in range(n)))
        p = polytope_from_vertices(verts)
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        assert volume(p) == F(1, fact)


def test_volume_orthant_slice(orthant2):
    q, _ = reeb_slice(dual_cone(orthant2), (1, 2))
    assert volume(q) == F(1, 4)


def test_volume_degenerate_is_zero():
    p = Polytope(2, ((F(0), F(0)), (F(1), F(1))), (), 1)
    assert volume(p) == 0


def test_volume_unimodular_invariance(square_base_cone):
    rng = random.Random(3)
    q, _ = reeb_slice(dual_cone(square_base_cone), (0, 0, 1))
    base = volume(q)
    mats = [
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    ]
    for a in mats:
        image = polytope_from_vertices([mat_vec(a, v) for v in q.vertices])
        assert volume(image) == base


def test_from_halfspaces_unbounded_rejected():
    with pytest.raises(UnsupportedGeometryError):
        polytope_from_halfspaces(2, [((1, 0), 1), ((0, 1), 1)])


def test_from_halfspaces_empty():
    p = polytope_from_halfspaces(2, UNIT_SQUARE_HS + [((1, 0), -1)])
    assert p.affine_dim == -1
    assert volume(p) == 0


def test_from_vertices_prunes_non_extreme_points():
    # (1/2, 1/2) is interior, (1, 1) sits on the edge (2,0)-(0,2)
    p = polytope_from_vertices([(0, 0), (2, 0), (0, 2), (1, 1), (F(1, 2), F(1, 2))])
    assert set(p.vertices) == {(F(0), F(0)), (F(2), F(0)), (F(0), F(2))}


def test_polytope_json_roundtrip(orthant2):
    q, _ = reeb_slice(dual_cone(orthant2), (1, 2))
    again = Polytope.from_json(q.to_json())
    assert sorted(again.vertices) == sorted(q.vertices)


def test_facet_chart_roundtrip(orthant3):
    _, p = reeb_slice(dual_cone(orthant3), (1, 2, 3))
    chart = facet_chart(p)
    for v in p.vertices:
        assert chart_lift(chart, chart_project(chart, v)) == v
    assert chart.body.affine_dim == 2


# -- lattice enumeration -----------------------------------------------------


def test_segment_count():
    p = polytope_from_halfspaces(1, [((1,), 1), ((-1,), 0)])
    assert lattice.count_points(p, 10) == 11


def test_orthant_counts(orthant2):
    q, _ = reeb_slice(dual_cone(orthant2), (1, 2))
    assert lattice.count_points(q, 10) == 36
    assert lattice.count_points(q, 200) == 10201  # (m/2 + 1)^2 for even m


def test_counts_match_brute_force(orthant2, a1_cone, square_base_cone):
    fixtures = [
        (dual_cone(orthant2), (1, 2)),
        (dual_cone(a1_cone), (1, 1)),
        (dual_cone(square_base_cone), (0, 0, 1)),
    ]
    for d, xi in fixtures:
        q, _ = reeb_slice(d, xi)
        for m in (0, 1, 2, 5, 8):
            brute = brute_lattice_points(q, m)
            assert lattice.count_points(q, m) == len(brute)
            assert list(lattice.iter_points(q, m)) == sorted(brute)


def test_stream_is_lexicographic(orthant3):
    q, _ = reeb_slice(dual_cone(orthant3), (1, 1, 1))
    pts = list(lattice.iter_points(q, 3))
    assert pts == sorted(pts)
    assert len(pts) == len(set(pts))


def test_stream_origin_only_at_level_zero(orthant2):
    q, _ = reeb_slice(dual_cone(orthant2), (1, 1))
    assert list(lattice.iter_points(q, 0)) == [(0, 0)]
    assert set(lattice.iter_points(q, 1)) == {(0, 0), (1, 0), (0, 1)}


def test_count_convergence_monotone(orthant2, a1_cone, orthant3):
    cases = [
        (dual_cone(orthant2), (1, 2), F(1, 2)),
        (dual_cone(a1_cone), (1, 1), F(2)),
        (dual_cone(orthant3), (1, 1, 1), F(1)),
    ]
    for d, xi, vol_exact in cases:
        n = d.rank
        q, _ = reeb_slice(d, xi)
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        errors = []
        for m in (4, 16, 64, 256):
            approx = F(fact * lattice.count_points(q, m), m**n)
            errors.append(abs(approx - vol_exact))
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))


def test_negative_level_rejected(orthant2):
    q, _ = reeb_slice(dual_cone(orthant2), (1, 1))
    with pytest.raises(ValueError):
        lattice.count_points(q, -1)
    with pytest.raises(ValueError):
        list(lattice.iter_points(q, -2))


def test_count_jobs_agree(orthant3):
    q, _ = reeb_slice(dual_cone(orthant3), (1, 2, 3))
    assert lattice.count_points(q, 30, jobs=1) == lattice.count_points(q, 30, jobs=4)


def test_emitted_polytopes_pass_consistency(orthant2, a1_cone, square_base_cone):
    for c, xi in [(orthant2, (1, 2)), (a1_cone, (1, 1)), (square_base_cone, (1, 1, 3))]:
        q, p = reeb_slice(dual_cone(c), xi)
        assert check_consistency(q, strict=True)
        assert list(q.vertices) == brute_vertices(q.rank, q.halfspaces)
        assert check_consistency(p)
