"""Rational polyhedral cones and polytopes.

Cones are pointed and full-dimensional, carried in both generator (ray)
and facet (halfspace) form; duality swaps the two.  Every conversion runs
through one routine, incremental double description with the
combinatorial adjacency test (Motzkin, Raiffa, Thompson and Thrall 1953;
Fukuda and Prodon 1996), in exact integer arithmetic:

- a cone's facets are the extreme rays of its dual;
- a polytope's vertices are the extreme rays with t > 0 of its
  homogenization {(x, t) : t*b - <a, x> >= 0, t >= 0};
- a point set's hull facets are the extreme rays of the dual of the cone
  over {(p, 1)}; for a point set of lower affine dimension, the integer
  nullspace of those generators, added both ways, makes that dual pointed
  and gives the hull's equations.

Each extreme ray comes with the set of constraints tight on it, as an int
bitmask, and those incidences decide which generators are extreme and
which inequalities are facets, with no rank test.  One refinement step
(``_refine``) serves both a double description from scratch and ``cut``,
which intersects a polytope with more halfspaces: the homogenization of a
polytope is the cone over its vertices, so the refinement starts from
those, with their tight masks, and adds only the new halfspaces.

Polytopes carry their vertices in integer form, the points times their
least common denominator D, built from the integer data at hand (rays,
hull points), and an inequality description ``<normal, x> <= offset``,
irredundant when full-dimensional; Fraction vertices are built only when
read.  Each one derives, on first use, its vertex-facet incidences and its
``measure``: the triangulation and one integer |det| per simplex, from
which its volume and moments are exact integer sums over a single
denominator.  It also keeps, per walk order of the lattice walker, the
integer facets of its projections onto the leading coordinates of that
order: the hulls of its projected vertices.  Triangulation is the
pulling triangulation (De Loera, Rambau and Santos 2010, section 4.3)
that pulls every face from its lowest-index vertex; vertices are sorted,
so that is the lexicographically smallest one, and identical inputs
always produce identical, face-to-face output.  It walks the face
lattice through the incidence bitmasks alone, so it needs no hull or
chart of any face, and the same routine splits a cone into simplicial
subcones from its ray-facet incidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import factorial, gcd, lcm
from operator import and_, mul

from .arith import (
    _integer_row,
    bareiss_det,
    basis_inverse,
    det,
    dot,
    fmt,
    inverse,
    mat_vec,
    nullspace,
    primitive,
    rank_of,
    rat,
    transpose,
    vec,
)
from .errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    InvalidBasisError,
    NotReebFieldError,
    UnsupportedGeometryError,
)

MAX_RANK = 8


def _check_rank(rank: int):
    if not 1 <= rank <= MAX_RANK:
        raise UnsupportedGeometryError(f"rank {rank} outside supported range 1..{MAX_RANK}")


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def _bits(mask):
    """Indices of the set bits of a nonnegative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refine(rays, zeros, normals, dim, skip=0):
    """Double-description refinement: intersect the cone spanned by the
    extreme rays ``rays`` with <a, x> >= 0 for each normal a of ``normals``
    whose bit is not set in ``skip``, in index order.

    ``zeros[k]`` is the bitmask of the normals processed so far (bit i for
    normals[i]) that vanish on rays[k].  Two rays on opposite sides of a
    new hyperplane are combined only when they are adjacent: they share at
    least dim-2 tight constraints and no third ray is tight on all of
    those.  Returns the refined (rays, zeros), rays primitive and unsorted.
    """
    need = dim - 2
    for idx, a in enumerate(normals):
        bit = 1 << idx
        if skip & bit:
            continue
        vals = [sum(map(mul, a, r)) for r in rays]
        new_rays, new_zeros, pos, neg = [], [], [], []
        for k, v in enumerate(vals):
            if v > 0:
                pos.append(k)
                new_rays.append(rays[k])
                new_zeros.append(zeros[k])
            elif v < 0:
                neg.append(k)
            else:
                new_rays.append(rays[k])
                new_zeros.append(zeros[k] | bit)
        for p in pos:
            for q in neg:
                shared = zeros[p] & zeros[q]
                if shared.bit_count() < need:
                    continue
                for k, z in enumerate(zeros):
                    if z & shared == shared and k != p and k != q:
                        break
                else:
                    vp, vq = vals[p], vals[q]
                    w = [vp * y - vq * x for x, y in zip(rays[p], rays[q])]
                    g = gcd(*w)
                    new_rays.append(tuple(x // g for x in w))
                    new_zeros.append(shared | bit)
        rays, zeros = new_rays, new_zeros
    return rays, zeros


def _double_description(normals, dim):
    """Extreme rays of the cone {x : <a, x> >= 0 for a in normals}.

    ``normals`` are integer vectors of length ``dim``.  Refinement starts
    from the simplicial cone of the first ``dim`` independent normals and
    adds the others one by one (``_refine``).  Returns (rays, zeros): the
    primitive integer rays in sorted order and, for each, the bitmask of
    the normals that vanish on it.  None when the normals do not span,
    i.e. the cone is not pointed.
    """
    start = basis_inverse(normals, dim)
    if start is None:
        return None
    basis, rays = start
    basis_mask = sum(1 << i for i in basis)
    zeros = [basis_mask ^ (1 << i) for i in basis]
    rays, zeros = _refine(rays, zeros, normals, dim, basis_mask)
    order = sorted(range(len(rays)), key=rays.__getitem__)
    return [rays[i] for i in order], [zeros[i] for i in order]


def _extreme(zeros, count):
    """Indices of the generators, among ``count`` given to a double
    description as the normals of the dual cone, that span extreme rays:
    those that no other generator shares all their tight facets with."""
    meet = [(1 << count) - 1] * count
    for z in zeros:
        for i in _bits(z):
            meet[i] &= z
    return [i for i in range(count) if meet[i] == 1 << i]


def _facets_and_extreme(generators, n, flat_error, wide_error):
    """For distinct primitive generators of a cone in n-space: its primitive
    inward facet normals and the generators that span extreme rays, from
    one double description of the dual cone.  The cone holds a line exactly
    when some generator g is tight on every dual ray (-g is then in the cone)."""
    dd = _double_description(generators, n)
    if dd is None:
        raise UnsupportedGeometryError(flat_error)
    facets, zeros = dd
    if reduce(and_, zeros, (1 << len(generators)) - 1):
        raise UnsupportedGeometryError(wide_error)
    return tuple(facets), tuple(generators[i] for i in _extreme(zeros, len(generators)))


@dataclass(frozen=True)
class Cone:
    """A pointed, full-dimensional rational cone.

    ``rays`` are the primitive extreme-ray generators and ``halfspaces`` the
    primitive inward facet normals; facet normals of a cone are exactly the
    extreme rays of its dual, so duality is an exchange of the two fields.
    """

    rank: int
    rays: tuple
    halfspaces: tuple
    lattice: str = "N"

    @staticmethod
    def from_rays(rays, rank=None, lattice="N") -> "Cone":
        rays = [primitive(r) for r in rays]
        if not rays:
            raise UnsupportedGeometryError("a cone needs at least one ray")
        n = rank if rank is not None else len(rays[0])
        _check_rank(n)
        if any(len(r) != n for r in rays):
            raise DimensionMismatchError("ray length does not match rank")
        halfspaces, canonical = _facets_and_extreme(
            sorted(set(rays)), n, "cone is not full-dimensional", "cone is not pointed"
        )
        return Cone(n, canonical, halfspaces, lattice)

    @staticmethod
    def from_halfspaces(halfspaces, rank=None, lattice="N") -> "Cone":
        normals = [primitive(h) for h in halfspaces]
        if not normals:
            raise UnsupportedGeometryError("a cone needs at least one halfspace")
        n = rank if rank is not None else len(normals[0])
        _check_rank(n)
        rays, canonical_normals = _facets_and_extreme(
            sorted(set(normals)), n,
            "cone is not pointed (facet normals do not span)", "cone is not full-dimensional",
        )
        return Cone(n, rays, canonical_normals, lattice)

    def contains(self, v) -> bool:
        v = vec(v)
        return all(dot(h, v) >= 0 for h in self.halfspaces)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "lattice": self.lattice,
            "rays": [[fmt(Fraction(x)) for x in r] for r in self.rays],
            "halfspaces": [
                {"normal": [fmt(Fraction(x)) for x in h], "offset": "0"}
                for h in self.halfspaces
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Cone":
        return Cone.from_rays(
            data["rays"], rank=data.get("rank"), lattice=data.get("lattice", "N")
        )


def dual_cone(c: Cone) -> Cone:
    """The dual cone; rays and facet normals swap roles exactly."""
    other = "M" if c.lattice == "N" else "N"
    return Cone(c.rank, c.halfspaces, c.rays, other)


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


def _normalize_halfspace(normal, offset):
    """The canonical form of <normal, x> <= offset: an integer normal and an
    integer offset, jointly primitive, with the same solution set.  With a
    zero normal: None when the offset is >= 0 (no constraint), else "empty"."""
    *ints, off = _integer_row((*normal, offset))[0]
    if not any(ints):
        return "empty" if off < 0 else None
    g = gcd(*ints, off)
    return tuple(x // g for x in ints), off // g


def _normalized_system(rank, halfspaces, canonical=()):
    """The distinct canonical halfspaces of a system and of ``canonical``
    (already canonical), sorted, without the trivial ones; None when one of
    them is infeasible (0 <= negative)."""
    normed = set(canonical)
    for normal, offset in halfspaces:
        h = _normalize_halfspace(normal, offset)
        if h == "empty":
            return None
        if h is not None:
            if len(h[0]) != rank:
                raise DimensionMismatchError("halfspace normal length does not match rank")
            normed.add(h)
    return sorted(normed)


@dataclass(frozen=True)
class Measure:
    """Integer data for exact integrals over a full-dimensional polytope.

    ``points`` are the vertices times ``denom``, the least common
    denominator of their coordinates; ``simplices`` is the pulling
    triangulation and ``dets[i]`` the |det| of simplex i's edge vectors in
    those coordinates, which is n! denom^n times its volume.
    """

    rank: int
    denom: int
    points: tuple
    simplices: tuple
    dets: tuple

    @cached_property
    def volume(self) -> Fraction:
        n = self.rank
        return Fraction(sum(self.dets), factorial(n) * self.denom ** n)


def _vertex_form(vertices):
    """(D, points): rational vertices times their least common denominator D."""
    rows = [_integer_row(v) for v in vertices]
    d = lcm(*(s for _, s in rows))
    return d, tuple(tuple(v) if s == d else tuple(x * (d // s) for x in v) for v, s in rows)


def _lowest(d, points):
    """The vertex form (D, points) of the integer points / d, in lowest terms."""
    g = gcd(d, *(x for v in points for x in v))
    return d // g, tuple(tuple(x // g for x in v) for v in points)


@dataclass(frozen=True, init=False)
class Polytope:
    """A bounded rational polytope with matching vertex and inequality data.

    ``integer_vertices`` is the vertex form (D, points) of the vertices
    (``_vertex_form``), sorted by every constructor here; the Fraction
    ``vertices`` are derived when read.  ``halfspaces`` are pairs (normal,
    offset) meaning <normal, x> <= offset, from the constructors here with
    integer normal and offset jointly primitive (``_normalize_halfspace``):
    the hull of 0 and 1/2 has ((2,), 1).  ``scaled`` keeps primitive
    normals with rational offsets, which ``cut`` renormalizes.  Lower
    dimensional bodies are allowed; ``affine_dim`` is the dimension of the
    affine hull, -1 for the empty polytope.  The facet incidences, the
    ``measure``, the walk levels and the walk plans are derived on first
    use and kept.
    """

    rank: int
    integer_vertices: tuple
    halfspaces: tuple
    affine_dim: int

    def __init__(self, rank, vertices, halfspaces, affine_dim):
        self.__dict__.update(rank=rank, integer_vertices=_vertex_form(vertices),
                             halfspaces=tuple(halfspaces), affine_dim=affine_dim)

    @staticmethod
    def from_integer(rank, integer_vertices, halfspaces, affine_dim, incidence=None) -> "Polytope":
        """The polytope of a vertex form (D, points) in lowest terms, with
        its ``incidence`` when the constructor already knows it."""
        p = object.__new__(Polytope)
        p.__dict__.update(rank=rank, integer_vertices=integer_vertices,
                          halfspaces=halfspaces, affine_dim=affine_dim)
        if incidence is not None:
            p.__dict__["incidence"] = incidence
        return p

    @cached_property
    def vertices(self) -> tuple:
        d, points = self.integer_vertices
        return tuple(tuple(Fraction(x, d) for x in v) for v in points)

    @cached_property
    def incidence(self) -> tuple:
        """For each halfspace, the bitmask of the vertices on its hyperplane."""
        d, points = self.integer_vertices
        masks = []
        for a, b in self.halfspaces:  # <a, x/d> = b: compare <a, x>*den with num*d
            den, num = b.denominator, b.numerator * d
            masks.append(sum(1 << i for i, x in enumerate(points)
                             if sum(map(mul, a, x)) * den == num))
        return tuple(masks)

    @cached_property
    def measure(self) -> Measure:
        """The triangulation and simplex determinants of a full-dimensional
        body, in integer coordinates."""
        simplices = triangulate(self).simplices
        d, points = self.integer_vertices
        dets = []
        for s in simplices:
            v0 = points[s[0]]
            dets.append(abs(bareiss_det([[x - y for x, y in zip(points[i], v0)]
                                          for i in s[1:]])))
        return Measure(self.rank, d, points, simplices, tuple(dets))

    @cached_property
    def _walk_levels(self) -> dict:
        return {}

    @cached_property
    def walk_plans(self) -> dict:
        """What the lattice walker keeps of the body per walk order, for
        every dilation of it (``lattice._walker``)."""
        return {}

    def walk_levels(self, order) -> tuple:
        """Integer rows bounding each coordinate of a walk over D times the
        body (D and the vertices from ``integer_vertices``), coordinates
        taken in ``order`` (distinct, at most the rank): for k = 1..len(order),
        rows (a, c) meaning <a, x> <= c of its projection onto order[:k], a's
        entries in that order.  Level 1 is the first coordinate's range, the
        level of all n coordinates the body's halfspaces with offsets rounded
        down, each level between the hull of the projected integer vertices.
        Kept per order: the dilation m*body has the rows (a, m*c // D)."""
        order = tuple(order)
        if order not in self._walk_levels:
            d, points = self.integer_vertices
            first = [x[order[0]] for x in points]
            levels = [(((1,), max(first)), ((-1,), -min(first)))]
            for k in range(2, len(order) + 1):
                if k == self.rank:
                    levels.append(tuple((tuple(a[i] for i in order),
                                         d * b.numerator // b.denominator)
                                        for a, b in self.halfspaces))
                    continue
                hull = polytope_from_vertices([tuple(x[i] for i in order[:k]) for x in points])
                levels.append(hull.halfspaces)
            self._walk_levels[order] = tuple(levels)
        return self._walk_levels[order]

    def contains(self, x) -> bool:
        x = vec(x)
        return all(dot(a, x) <= b for a, b in self.halfspaces)

    def scaled(self, c) -> "Polytope":
        c = rat(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        d, points = self.integer_vertices
        return Polytope.from_integer(
            self.rank,
            _lowest(d * c.denominator, [tuple(c.numerator * x for x in v) for v in points]),
            tuple((a, c * b) for a, b in self.halfspaces),
            self.affine_dim,
            self.__dict__.get("incidence"),
        )

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [[fmt(x) for x in v] for v in self.vertices],
            "halfspaces": [
                {"normal": [fmt(Fraction(x)) for x in a], "offset": fmt(b)}
                for a, b in self.halfspaces
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Polytope":
        hs = [(h["normal"], h["offset"]) for h in data["halfspaces"]]
        p = polytope_from_halfspaces(data["rank"], hs)
        if "vertices" in data and data["vertices"]:
            given = sorted(vec(v) for v in data["vertices"])
            if given != sorted(p.vertices):
                raise UnsupportedGeometryError("vertex and halfspace data disagree")
        return p


def _affine_dim(points) -> int:
    if not points:
        return -1
    v0 = points[0]
    return rank_of([tuple(x - y for x, y in zip(v, v0)) for v in points[1:]])


def _homogenized(rank, halfspaces):
    """Inward normals of the homogenization {(x, t) : t*b - <a, x> >= 0,
    t >= 0} of the system <a, x> <= b; the normal of t >= 0 comes last."""
    normals = [primitive(tuple(-x for x in a) + (b,)) for a, b in halfspaces]
    normals.append((0,) * rank + (1,))
    return normals


def _vertices_of(rays, zeros):
    """From the extreme rays of a homogenization and their tight masks: the
    vertex form of the sorted vertices x/t of the primitive rays (x, t) with
    t > 0 (so D is the lcm of the t's), for each vertex the bitmask of the
    tight halfspaces, and whether a recession direction (t = 0) exists."""
    tops = [(r, z) for r, z in zip(rays, zeros) if r[-1] > 0]
    d = lcm(*(r[-1] for r, _ in tops))
    found = sorted((tuple(x * (d // r[-1]) for x in r[:-1]), z) for r, z in tops)
    return (d, tuple(v for v, _ in found)), [z for _, z in found], len(found) < len(rays)


def _vertex_rays(rank, halfspaces):
    """Vertices of the system <a, x> <= b from one double description of
    its homogenization, as ``_vertices_of`` returns them.  None when the
    normals a do not span, so the system has no vertex.
    """
    dd = _double_description(_homogenized(rank, halfspaces), rank + 1)
    return None if dd is None else _vertices_of(*dd)


def _polytope(rank, normed, found, assume_bounded) -> Polytope:
    """The polytope of the canonical system ``normed`` from the vertex data
    of its homogenization (``_vertex_rays``)."""
    form, zeros, recession = found if found is not None else ((1, ()), [], True)
    if recession and not assume_bounded:
        raise UnsupportedGeometryError("inequality system is unbounded")
    if not form[1]:
        return Polytope(rank, (), (), -1)
    tight = [0] * len(normed)
    for j, z in enumerate(zeros):
        for i in _bits(z):
            if i < len(normed):
                tight[i] |= 1 << j
    if (1 << len(form[1])) - 1 in tight:
        # an implicit equality: the body lies in a hyperplane
        return Polytope.from_integer(rank, form, tuple(normed), _affine_dim(form[1]), tuple(tight))
    # the facets are the halfspaces whose tight vertex sets are maximal
    facets = [(h, m) for h, m in zip(normed, tight)
              if m and all(m | other != other or other == m for other in tight)]
    return Polytope.from_integer(rank, form, tuple(h for h, _ in facets), rank,
                                 tuple(m for _, m in facets))


def polytope_from_halfspaces(rank, halfspaces, assume_bounded=False) -> Polytope:
    """Build a polytope from inequalities ``<normal, x> <= offset``."""
    _check_rank(rank)
    normed = _normalized_system(rank, halfspaces)
    if normed is None:
        return Polytope(rank, (), (), -1)
    if not normed:
        raise UnsupportedGeometryError("empty inequality system describes all of space")
    return _polytope(rank, normed, _vertex_rays(rank, normed), assume_bounded)


def cut(p: Polytope, extra) -> Polytope:
    """The nonempty polytope p intersected with the halfspaces ``extra``
    (pairs (normal, offset) meaning <normal, x> <= offset): the same
    Polytope as ``polytope_from_halfspaces(p.rank, p.halfspaces + extra,
    assume_bounded=True)``.

    The homogenization of p is the cone over its vertices, so the double
    description starts from p's vertices, as primitive integer rays with
    the bitmasks of p's halfspaces tight on them, and refines by the new
    halfspaces only.
    """
    own = [_normalize_halfspace(a, b) for a, b in p.halfspaces]
    normed = _normalized_system(p.rank, extra, own)
    d, points = p.integer_vertices
    if normed is None or not points:
        return Polytope(p.rank, (), (), -1)
    index = {h: i for i, h in enumerate(normed)}
    own = [(1 << index[h], m) for h, m in zip(own, p.incidence)]
    skip = 1 << len(normed)  # t >= 0 holds on the cone over p
    for bit, _ in own:
        skip |= bit
    rays, zeros = [], []
    for j, x in enumerate(points):
        g = gcd(*x, d)
        rays.append(tuple(c // g for c in x) + (d // g,))
        z = 0
        for bit, m in own:
            if m >> j & 1:
                z |= bit
        zeros.append(z)
    rays, zeros = _refine(rays, zeros, _homogenized(p.rank, normed), p.rank + 1, skip)
    return _polytope(p.rank, normed, _vertices_of(rays, zeros), True)


def polytope_from_vertices(points, denom=1) -> Polytope:
    """Convex hull of the points / denom, a point set of any affine
    dimension: its facets are the extreme rays, tight on some point, of the
    dual of the cone over {(p, denom)}.  The integer nullspace of the
    generators, added both ways, makes that dual pointed and gives the
    hull's equations, each as two opposite halfspaces."""
    scale, pts = _vertex_form(points)
    pts, denom = sorted(set(pts)), denom * scale
    if not pts:
        return Polytope(0, (), (), -1)
    n = len(pts[0])
    _check_rank(n)
    generators = [primitive(p + (denom,)) if denom > 1 else p + (1,) for p in pts]
    equations = nullspace(generators, n + 1)
    both = [e for eq in equations for e in (eq, tuple(-x for x in eq))]
    rays, zeros = _double_description(generators + both, n + 1)
    full = (1 << len(pts)) - 1
    zeros = [z & full for z in zeros]
    kept = _extreme(zeros, len(pts))
    if len(kept) < len(pts):  # the tight masks over the kept points (a face holds some)
        zeros = [sum(1 << j for j, i in enumerate(kept) if z >> i & 1) for z in zeros]
        full = (1 << len(kept)) - 1
    normals = [(r, z) for r, z in zip(rays, zeros) if z] + [(e, full) for e in both]
    halfspaces, masks = zip(*sorted(((tuple(-x for x in r[:-1]), r[-1]), z) for r, z in normals))
    return Polytope.from_integer(n, _lowest(denom, [pts[i] for i in kept]), halfspaces,
                                 n - len(equations), masks)


def check_consistency(p: Polytope, strict: bool = False) -> bool:
    """Cross-validate the vertex and inequality descriptions; ``strict``
    also re-derives the vertices from the inequalities by double
    description."""
    for v in p.vertices:
        if not all(dot(a, v) <= b for a, b in p.halfspaces):
            return False
    if p.affine_dim == p.rank:
        for a, b in p.halfspaces:
            tight = [v for v in p.vertices if dot(a, v) == b]
            if len(tight) < p.rank or _affine_dim(tight) != p.rank - 1:
                return False
        for v in p.vertices:
            if rank_of([a for a, b in p.halfspaces if dot(a, v) == b]) < p.rank:
                return False
    if strict:
        found = _vertex_rays(p.rank, p.halfspaces)
        d, points = found[0] if found is not None else (1, ())
        if (d, list(points)) != (p.integer_vertices[0], sorted(p.integer_vertices[1])):
            return False
    return True


# ---------------------------------------------------------------------------
# Reeb slices and the Okounkov body
# ---------------------------------------------------------------------------


def _reeb_pairings(dual: Cone, xi):
    """xi as an exact vector, the least common denominator d of its
    entries, and the integer pairings d*<r, xi> with the rays r of the
    weight cone, each checked to be positive."""
    xi = vec(xi)
    if len(xi) != dual.rank:
        raise DimensionMismatchError("xi length does not match rank")
    d = lcm(*(x.denominator for x in xi))
    scaled = [x.numerator * (d // x.denominator) for x in xi]
    pairings = []
    for r in dual.rays:
        pr = sum(map(mul, r, scaled))
        if pr <= 0:
            raise NotReebFieldError(
                f"xi pairs non-positively with weight-cone ray {list(r)}"
            )
        pairings.append(pr)
    return xi, d, pairings


def reeb_slice(dual: Cone, xi):
    """The sub-level body Q = {u in the weight cone : <u, xi> <= 1} and its
    level-one slice P = {<u, xi> = 1}: the primitive rays r times d/pr, pr =
    <r, d*xi>, each over the least denominator pr/gcd(d, pr), and 0 for Q."""
    xi, d, pairings = _reeb_pairings(dual, xi)
    n = dual.rank
    big = lcm(*(pr // gcd(d, pr) for pr in pairings))
    scaled = sorted(tuple(x * (d * big // pr) for x in r) for r, pr in zip(dual.rays, pairings))
    cap_normal, cap_offset = _normalize_halfspace(xi, 1)
    q_halfspaces = [(tuple(-x for x in h), 0) for h in dual.halfspaces]
    q_halfspaces.append((cap_normal, cap_offset))
    q = Polytope.from_integer(n, (big, tuple(sorted([(0,) * n] + scaled))),
                              tuple(sorted(q_halfspaces)), n)
    p_halfspaces = q_halfspaces + [(tuple(-x for x in cap_normal), -cap_offset)]
    p = Polytope.from_integer(n, (big, tuple(scaled)), tuple(sorted(p_halfspaces)),
                              n - 1 if n > 1 else 0)
    return q, p


def unimodular_image(p: Polytope, v, w) -> Polytope:
    """W p for an integer matrix W with integer inverse V, both as rows: the
    vertices W x / D over p's integer vertices x / D, and the halfspaces
    <V^T a, y> <= b, whose normals stay primitive."""
    d, points = p.integer_vertices
    images = sorted(tuple(sum(map(mul, row, x)) for row in w) for x in points)
    normals = [tuple(sum(map(mul, a, c)) for c in zip(*v)) for a, _ in p.halfspaces]
    return Polytope.from_integer(p.rank, (d, tuple(images)),
                                 tuple(zip(normals, (b for _, b in p.halfspaces))), p.affine_dim)


def okounkov_body(dual: Cone, xi, basis) -> Polytope:
    """Image of the sub-level body under u -> (<u, e_1>, ..., <u, e_n>) for a
    determinant-one basis {e_i} contained in the cone dual to the weights."""
    rows = tuple(vec(r) for r in basis)
    n = dual.rank
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidBasisError("basis must be a square rank-sized matrix")
    if det(rows) != 1:
        raise InvalidBasisError("basis determinant must be exactly 1")
    for i, e in enumerate(rows):
        if not all(dot(u, e) >= 0 for u in dual.rays):
            raise InvalidBasisError(f"basis vector {i} lies outside the cone")
    q, _ = reeb_slice(dual, xi)
    vertices = tuple(sorted(mat_vec(rows, v) for v in q.vertices))
    inv_t = transpose(inverse(rows))
    halfspaces = sorted(_normalize_halfspace(mat_vec(inv_t, a), b) for a, b in q.halfspaces)
    return Polytope(n, vertices, halfspaces, n)


# ---------------------------------------------------------------------------
# triangulation and volume
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triangulation:
    """Vertex-index simplices covering a polytope with disjoint interiors."""

    simplices: tuple


def _pulling(masks, face, dim):
    """Pulling triangulation of a face of dimension ``dim`` from incidence
    bitmasks; returns simplices as ascending tuples of member indices.

    ``face`` is the bitmask of the face's members and ``masks[g]`` that of
    the members on facet g of the whole body.  A face with dim + 1 members
    is a simplex; any other is pulled from its lowest-index member, which
    is joined to each of its facets that miss it.  The facets of a face are
    its maximal proper intersections with the facets of the body.  Every
    face takes its anchor from the one index order, so the simplices meet
    face to face.
    """
    members = _bits(face)
    if len(members) == dim + 1:
        return [tuple(members)]
    anchor = members[0]
    cuts = {face & m for m in masks} - {0, face}
    return [
        (anchor,) + s
        for sub in cuts
        if not sub >> anchor & 1 and not any(sub & o == sub and o != sub for o in cuts)
        for s in _pulling(masks, sub, dim - 1)
    ]


def triangulate(p: Polytope) -> Triangulation:
    """Deterministic triangulation of a full-dimensional polytope; simplex
    volumes add up to the volume of the whole body."""
    if p.affine_dim < p.rank:
        raise DegeneratePolytopeError(p.affine_dim)
    full = (1 << len(p.integer_vertices[1])) - 1
    return Triangulation(tuple(sorted(_pulling(p.incidence, full, p.rank))))


def triangulate_cone(c: Cone) -> Triangulation:
    """Deterministic triangulation of a cone into simplicial subcones, as
    tuples of ray indices: the pulling triangulation of any slice of it
    transverse to every ray, read off the ray-facet incidences."""
    masks = [sum(1 << i for i, r in enumerate(c.rays) if sum(map(mul, h, r)) == 0)
             for h in c.halfspaces]
    return Triangulation(tuple(sorted(_pulling(masks, (1 << len(c.rays)) - 1, c.rank - 1))))


def volume(p: Polytope) -> Fraction:
    """Exact Lebesgue volume; zero for degenerate bodies."""
    if p.affine_dim < p.rank:
        return Fraction(0)
    return p.measure.volume


# ---------------------------------------------------------------------------
# charts for codimension-one slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FacetChart:
    """Affine chart for a polytope lying in a single hyperplane
    <normal, u> = offset: drop one coordinate and lift back exactly."""

    normal: tuple
    offset: Fraction
    drop: int
    body: Polytope  # the projected, full-dimensional polytope


def facet_chart(p: Polytope) -> FacetChart:
    """Chart for a polytope whose affine hull is a hyperplane."""
    if p.rank < 2 or p.affine_dim != p.rank - 1:
        raise DegeneratePolytopeError(p.affine_dim, "chart requires a codimension-one body")
    d, points = p.integer_vertices
    v0 = points[0]
    normal = nullspace([[x - y for x, y in zip(v, v0)] for v in points[1:]], p.rank)[0]
    j = min(i for i, x in enumerate(normal) if x != 0)
    body = polytope_from_vertices([v[:j] + v[j + 1 :] for v in points], d)
    return FacetChart(normal, Fraction(sum(map(mul, normal, v0)), d), j, body)
