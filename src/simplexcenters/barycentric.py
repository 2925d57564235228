"""Barycentric/Cartesian engine for n-simplices.

A simplex is described either by vertex coordinates or by its table of
pairwise edge lengths, which is embedded first; every model is measured
from its vertices.  A point has one form, ``BarycentricPoint(coords)``: a
finite point is stored normalized, so its ``coords`` sum to 1; a
direction (coordinate sum zero) is kept as given.  ``_stored`` is that rule,
for a caller that needs the coordinates and not the point.

Near-zero policy: one tolerance, eps = 1e-13 relative to each input's own
scale, decides where a construction stops being defined, in four tests:
``_zero_entries``, ``_zero_sum``, ``_all_equal`` and the vertex test of
``SimplexModel._rays``.  Two guards raise a point's vertex or sideplane
refusal with their caller's message, ``_rays`` ``AtVertex`` and ``_nonzero``
``ZeroCoordinate``; only two subset tests in ``apollonian`` raise their own.

Volume policy: one private kernel, ``_volumes``, turns Gram matrices of edge
vectors into mantissas and one power-of-two exponent, splitting k! with
``_factorial`` in integers; nothing else divides by k!.  A model's total
volume comes from the Gram matrix of its validity test and its facets from
``_facet_grams``; ``facet_volumes_of_points`` calls the same two after its
range estimate.  A model keeps the facet mantissas as ``_facets`` and
applies the exponents only in ``total_volume`` and ``facet_volumes``, so
every barycentric read of the facets (I, K, conjugation, the equiareal
spread), a ratio, sees mantissas: ``tests/probe.py --dims 90:130`` checks
that K stays within 1e-12 of (a_i / max a) ** 2, with no raise or warning.

Frame policy: a model computes in one frame, vertex 0 at the origin, scaled
by the power of two that brings the largest coordinate difference into
[1/2, 1).  Everything barycentric or relative (Gram test, edges, volumes,
conversions, vertex distances, feet, circumcenter, and the solvers
elsewhere) reads the frame, so it does not depend on where the simplex
sits or on its size.  A finite point enters the frame one way,
``SimplexModel._frame``.
Cartesian outputs and absolute measures are scaled back once, by
``SimplexModel._absolute``; one beyond float range reads inf or 0.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
# np.linalg's own LAPACK gufuncs, called without its Python wrapper, which
# checks and casts its arguments and enters an errstate on every call (NumPy
# 2.4 on a Xeon core, np.linalg against the gufunc: a 3x3 solve 4.6 against
# 1.1 us, a det 2.8 against 1.0, an eigvalsh 5.0 against 1.7, a cholesky 4.1
# against 0.9, a 4x4 inv 4.5 against 1.5).  The library calls solve1, solve,
# det, inv, eigvalsh_lo and cholesky_lo, each with the signature "dd->d" or
# "d->d" that np.linalg passes and under the same name since NumPy 1.24, so
# each result is the same bit for bit; a singular system or a matrix that is
# not positive definite gives NaN instead of LinAlgError.
from numpy.linalg import _umath_linalg as _lapack

# np.einsum's C kernel, which it calls with the operands alone under its
# default optimize=False (a 4x3 row dot on the same core: 2.2 against 1.2 us)
from numpy._core.multiarray import c_einsum as _einsum

from .errors import AtVertex, Degenerate, NotEmbeddable, PointAtInfinity, ZeroCoordinate

# The near-zero tolerance eps: two orders above double epsilon.
_REL_EPS = 1e-13

# the affine system's last coordinate, appended to a frame point
_ONE = np.ones(1)
_ONE.setflags(write=False)

# Bound on lambda_min / lambda_max of a simplex's Gram matrix (edge vectors
# with condition number above 1e6); round-off in the eigenvalues is ~1e-16.
_GRAM_REL_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only: an array that no caller holds."""
    a.setflags(write=False)
    return a


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis``: the reduction ``np.linalg.norm(x,
    axis=axis)`` runs on real input, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _spread(x: np.ndarray) -> float:
    """Relative spread (max - min) / mean of a vector, inf if the mean is
    not positive: the reductions that ``np.ptp`` and ``ndarray.mean`` run."""
    mean = float(np.add.reduce(x)) / len(x)
    if mean <= 0.0:
        return math.inf
    return float(np.maximum.reduce(x) - np.minimum.reduce(x)) / mean


def _zero_entries(c: np.ndarray) -> np.ndarray:
    mags = np.abs(c)
    return mags <= _REL_EPS * np.maximum.reduce(mags)


def _nonzero(c: np.ndarray, message: str) -> None:
    """Raise ``ZeroCoordinate(message)``, its ``{i}`` the first entry of ``c``
    that ``_zero_entries`` marks, if there is one."""
    zero = _zero_entries(c)
    if np.count_nonzero(zero):
        raise ZeroCoordinate(message.format(i=int(zero.argmax())))


def _zero_sum(total: float, norm: float) -> bool:
    """Whether a coordinate sum is zero, given the sum of the magnitudes."""
    return abs(total) <= _REL_EPS * norm


def _all_equal(c: np.ndarray) -> bool:
    return (float(np.maximum.reduce(c) - np.minimum.reduce(c))
            <= _REL_EPS * float(np.maximum.reduce(np.abs(c))))


# ---------------------------------------------------------------------------
# volumes from vertex coordinates (Gram)
# ---------------------------------------------------------------------------

@functools.cache
def _leave_one_out(m: int) -> np.ndarray:
    """Read-only index table whose row i lists 0..m-1 without i."""
    return _frozen(np.array([[j for j in range(m) if j != i] for i in range(m)]))


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows and columns of the pairs i < j of 0..m-1, in
    lexicographic order."""
    rows, cols = np.triu_indices(m, 1)
    return _frozen(rows), _frozen(cols)


def _factorial(k: int) -> tuple[float, int]:
    """k! as f * 2 ** e, f its leading 53 bits and e the rest of its exponent
    (k! itself and 0 through 18!): ``ldexp(f, e) == float(k!)`` through 170!,
    and a volume over k! divides by f and shifts by -e, past 170! too."""
    exact = math.factorial(k)
    e = max(exact.bit_length() - 53, 0)
    return exact / (1 << e), e


def _volumes(gram: np.ndarray) -> tuple[np.ndarray, int]:
    """The k-volumes sqrt(det G) / k! of Gram matrices G (..., k, k) of edge
    vectors, as mantissas sqrt(det G) / f and one exponent -e, where k! =
    f * 2 ** e (``_factorial``): a volume is ldexp(mantissa, exponent).
    Nothing else divides a volume by k!, so a mantissa is in float range for
    every k where the determinant is."""
    factorial, e = _factorial(gram.shape[-1])
    dets = _lapack.det(gram, signature="d->d")
    return np.sqrt(np.maximum(dets, 0.0)) / factorial, -e


def _facet_grams(points: np.ndarray) -> np.ndarray:
    """Gram matrices (..., m, m-2, m-2) of the edge vectors from each facet's
    first point, facet i of a set of m points (..., m, dim) dropping point i."""
    facets = points.take(_leave_one_out(points.shape[-2]), axis=-2)   # (..., m, m-1, dim)
    edges = facets[..., 1:, :] - facets[..., :1, :]      # (..., m, m-2, dim)
    return edges @ edges.swapaxes(-1, -2)


def facet_volumes_of_points(points: np.ndarray) -> np.ndarray:
    """(k-1)-volumes of all facets of the simplex on the given points.

    ``points`` is (..., m, dim): one or more sets of m >= 2 finite points
    each, else ``ValueError``.  Entry [..., i] is the volume of the facet
    of its set obtained by dropping point i (a point's is 1, the
    determinant of an empty Gram matrix); a collapsed set reads zeros.
    Vectorized over the facets and the sets, so the isogonic catalog
    measures a root's antipedal and pedal figures in one call, each set
    bit for bit as if measured alone; inf or 0 beyond float range.
    """
    points = np.asarray(points, float)
    if points.ndim < 2 or points.shape[-2] < 2:
        raise ValueError("points must be an array (..., m, dim) with m >= 2")
    m = points.shape[-2]
    # a Gram determinant scales as 2 ** (2 (m-2) e), e the largest coordinate's
    # exponent, which the sum of squares (BLAS, no warning) estimates: within 2 ** 64
    # of float range, the points are measured scaled into [1/2, 1) and scaled
    # back, in one shift with the kernel's exponent
    shift = 0
    square = float(np.vdot(points, points))
    if not (0.0 < square < math.inf and abs(math.frexp(square)[1] // 2) * (m - 2) <= 480):
        top = float(np.abs(points).max(initial=0.0))
        if not math.isfinite(top):
            raise ValueError("point coordinates must be finite")
        exponent = math.frexp(top)[1]
        if abs(exponent) * (m - 2) > 480:
            points = np.ldexp(points, -exponent)
            shift = (m - 2) * exponent
    volumes, e = _volumes(_facet_grams(points))
    if shift + e == 0:
        return volumes
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(volumes, shift + e)


def _gram_defect(gram: np.ndarray) -> NotEmbeddable | Degenerate | None:
    """The error a Gram matrix of edge vectors from one vertex calls for, if any.

    By Schoenberg's theorem the simplex exists iff the Gram matrix is
    positive semidefinite, and has positive volume iff it is definite:
    ``NotEmbeddable`` below ``-_GRAM_REL_TOL * lambda_max``, ``Degenerate``
    within that scale-invariant tolerance of zero.  A spectrum that is not
    finite fails the first comparison and is ``NotEmbeddable`` too.
    """
    lam = _lapack.eigvalsh_lo(gram, signature="d->d")
    floor = _GRAM_REL_TOL * lam[-1]
    if not lam[0] >= -floor:
        return NotEmbeddable(f"no Euclidean simplex (Gram eigenvalue {lam[0]:.3e})")
    if lam[0] <= floor:
        return Degenerate("vertices are affinely dependent")
    return None


# ---------------------------------------------------------------------------
# edge length table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EdgeLengthTable:
    """Symmetric table of pairwise vertex distances of an n-simplex; input
    enters through ``from_flat``, the constructor takes a table as given."""

    n: int
    d: np.ndarray  # (n+1, n+1), zero diagonal

    @classmethod
    def from_flat(cls, n: int, values) -> "EdgeLengthTable":
        """A table given as input, from lengths listed pairwise in
        lexicographic order (d_12, d_13, ..., d_1,n+1, d_23, ..., d_n,n+1):
        n an integer (NumPy's too, not a bool), the count, n >= 1, finite,
        not all zero and positive are checked."""
        try:   # a bool is no dimension
            n = operator.index(None if isinstance(n, bool) else n)
        except TypeError:
            raise ValueError(f"dimension must be an integer, got {n!r}") from None
        values = np.array(list(values), dtype=float)
        count = n * (n + 1) // 2 if n > 0 else 0   # counted before any table is indexed
        if values.shape != (count,):
            raise ValueError(
                f"dimension {n} needs {count} edge lengths, got {len(values)}")
        if n < 1:
            raise ValueError("edge table must be a square matrix of size >= 2")
        if not np.isfinite(values).all():
            raise ValueError("edge lengths must be finite")
        if not values.any():
            raise ValueError("edge table is identically zero")
        if values.min() <= 0.0:
            raise ValueError("off-diagonal edge lengths must be positive")
        rows, cols = _pairs(n + 1)
        d = np.zeros((n + 1, n + 1))
        d[rows, cols] = d[cols, rows] = values
        return cls(n=n, d=_frozen(d))


# ---------------------------------------------------------------------------
# barycentric points
# ---------------------------------------------------------------------------

def _vertex_index(i, n: int, name: str = "vertex index") -> int:
    """``i`` as an int if it is an integer (NumPy's too) in 0..n, else ``ValueError``."""
    try:
        k = operator.index(i)
    except TypeError:
        k = -1  # not an integer
    if not 0 <= k <= n:
        raise ValueError(f"{name} must be an integer in 0..{n}, got {i!r}")
    return k


def _stored(coords: np.ndarray) -> tuple[np.ndarray, bool]:
    """The member of a coordinate vector's class that a point stores, a new
    array, and whether the point is finite: ``BarycentricPoint``'s rule, for
    a caller that reads the coordinates without forming the point.  A
    non-finite or zero vector raises ``ValueError``."""
    try:
        norm = math.fsum(map(abs, coords.tolist()))
    except OverflowError:
        # finite magnitudes whose sum is not: an exact power of two brings
        # the largest finite one into [1/2, 1), and an inf or NaN stays
        mags = np.abs(coords)
        coords = np.ldexp(coords, -math.frexp(mags[np.isfinite(mags)].max())[1])
        norm = math.fsum(map(abs, coords.tolist()))
    if not math.isfinite(norm):
        raise ValueError("coordinates must be finite")
    total = float(np.add.reduce(coords))
    if norm == 0.0:
        raise ValueError("coordinate vector must not be zero")
    finite = not _zero_sum(total, norm)
    return (coords / total if finite else coords.copy()), finite


@dataclass(frozen=True, eq=False)
class BarycentricPoint:
    """Homogeneous coordinates [p_1 : ... : p_{n+1}] relative to a simplex.

    A point is a class of proportional vectors, held by one member.  A
    vector whose coordinate sum is zero (``_zero_sum``) is a direction, a
    point at infinity, and is kept as given; any other vector is a finite
    point, stored divided by its sum so that ``coords`` sums to 1.
    ``is_finite`` reads that verdict, and ``normalized_coords`` raises
    ``PointAtInfinity`` on a direction.  Points compare and hash by
    identity, as models do; compare ``coords`` for values.
    """

    coords: np.ndarray
    _finite: bool = field(init=False, repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("coordinates must be a vector of length >= 2")
        coords, finite = _stored(coords)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_finite", finite)

    @classmethod
    def vertex(cls, i: int, n: int) -> "BarycentricPoint":
        e = np.zeros(n + 1)
        e[_vertex_index(i, n)] = 1.0
        return cls(e)

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    def is_finite(self) -> bool:
        return self._finite

    @property
    def normalized_coords(self) -> np.ndarray:
        if not self._finite:
            raise PointAtInfinity("coordinate sum is zero")
        return self.coords

    def report_scaled(self) -> np.ndarray:
        """Homogeneous rendering scaled so the largest-magnitude entry is +1."""
        c = self.coords
        return c / c[np.abs(c).argmax()]

    def __repr__(self):
        vals = ", ".join(f"{v:.12g}" for v in self.coords)
        return f"BarycentricPoint([{vals}])"


def as_point(obj, n: int | None = None) -> BarycentricPoint:
    """Coerce an array-like or BarycentricPoint, checking the dimension."""
    pt = obj if isinstance(obj, BarycentricPoint) else BarycentricPoint(obj)
    if n is not None and pt.dim != n:
        raise ValueError(f"expected {n + 1} coordinates, got {pt.dim + 1}")
    return pt


# ---------------------------------------------------------------------------
# simplex model
# ---------------------------------------------------------------------------

class SimplexModel:
    """An embedded n-simplex (n >= 1), measured from its vertices alone.

    Edge table, validity and volumes all come from the vertex coordinates;
    an edge-length input is embedded first (see ``embed_from_edge_lengths``).
    Instances are immutable, except that the affine frame ``_affine``, the
    circumcenter ``_circumcenter``, the unit edge vectors ``_unit_edges``,
    whose signed sums are the pulls ``_pulls``, and Kuhn's verdict
    ``_fermat_vertex`` (the pulls at sigma = +1) are formed on their first
    read, and safe to share across threads: a first read that races builds
    equal read-only values.  Non-finite coordinates raise ``ValueError``.
    One Gram matrix of the edge vectors from vertex 0 gives ``total_volume``
    and the one validity test, ``_gram_defect``, whose verdict is kept as
    ``_defect``; ``_facets`` holds the facet volumes as the volume kernel's
    mantissas, the frame's volumes up to one power of two (equal to them
    through n = 19, while (n-1)! has at most 53 bits).  ``validate=True``
    raises the defect (``Degenerate``, coincident vertices included);
    ``validate=False`` is for figures that may collapse, such as the pedal,
    antipedal, polar and inversive figures of ``pedal``,
    and ``degenerate`` then says whether the figure collapsed.  A collapsed
    figure keeps its volumes but has no affine frame or circumsphere:
    ``cart_to_bary``, ``pedal_feet`` and ``circumcenter_cart`` raise
    ``Degenerate`` on it.  All of it is computed in the
    frame of the module docstring: ``_local`` holds the vertices there,
    ``_lengths`` its edge lengths, and its unit is ``2 ** _exponent``.
    """

    def __init__(self, vertices, *, validate: bool = True):
        vertices = np.asarray(vertices, dtype=float)
        if (vertices.ndim != 2 or vertices.shape[1] < 1
                or vertices.shape[0] != vertices.shape[1] + 1):
            raise ValueError("vertices must be an (n+1) x n array with n >= 1")
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        self.vertices = _frozen(vertices.copy())   # the caller's may change
        self.n = vertices.shape[1]
        # halved, so that no difference of finite coordinates overflows
        half = 0.5 * vertices - 0.5 * vertices[0]
        exponent = math.frexp(float(np.abs(half).max()))[1]
        self._exponent = exponent + 1
        local = self._local = _frozen(np.ldexp(half, -exponent))
        # symmetric with a zero diagonal bit for bit: |a - b| == |b - a|
        lengths = self._lengths = _frozen(_norms(local[:, None, :] - local[None, :, :], 2))
        self._local_diameter = float(lengths.max())

        gram = local[1:] @ local[1:].T
        self._defect = _gram_defect(gram)
        if validate and self._defect is not None:
            raise self._defect
        volume, e = _volumes(gram)
        facets, shift = _volumes(_facet_grams(local))
        self._facets = _frozen(facets)
        # the three absolute measures as _absolute forms them, in one errstate
        with np.errstate(over="ignore", under="ignore"):
            self.edges = EdgeLengthTable(n=self.n, d=_frozen(np.ldexp(lengths, self._exponent)))
            self.total_volume = float(np.ldexp(volume, self.n * self._exponent + e))
            self.facet_volumes = _frozen(np.ldexp(facets, (self.n - 1) * self._exponent + shift))
        self.diameter = float(self.edges.d.max())

    @property
    def degenerate(self) -> bool:
        """True exactly when ``SimplexModel(vertices)`` raises ``Degenerate``."""
        return self._defect is not None

    @functools.cached_property
    def _affine(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Affine inverse, unit sideplane normals and their frame offsets."""
        if self._defect is not None:
            raise Degenerate("a collapsed simplex has no affine frame")
        # inverse of the affine system [local^T; 1 ... 1], which maps
        # normalized barycentrics to (y, 1): drives cart_to_bary and the feet
        system = np.ones((self.n + 1, self.n + 1))
        system[:self.n] = self._local.T
        inv = _frozen(_lapack.inv(system, signature="d->d"))
        # unit sideplane normals / frame offsets: row i is the plane x_i = 0
        norms = _norms(inv[:, :self.n], 1)
        return (inv, _frozen(inv[:, :self.n] / norms[:, None]),
                _frozen(-inv[:, self.n] / norms))

    @functools.cached_property
    def _circumcenter(self) -> tuple[np.ndarray, float]:
        """Circumcenter and circumradius in the frame (linear solve)."""
        if self._defect is not None:
            raise Degenerate("a collapsed simplex has no circumsphere")
        v = self._local[1:]
        center = _lapack.solve1(2.0 * v, np.add.reduce(v * v, axis=1), signature="dd->d")
        return _frozen(center), math.sqrt(center @ center)

    @functools.cached_property
    def _unit_edges(self) -> np.ndarray:
        """Row k, column i: (A_k - A_i)/|A_k - A_i| in the frame, zero for i = k;
        ``Degenerate`` if two vertices coincide."""
        local = self._local
        lengths = self._lengths + np.eye(self.n + 1)  # the diagonal divides zeros
        if not lengths.all():
            raise Degenerate("coincident vertices have no unit edge")
        return _frozen((local[:, None] - local[None]) / lengths[..., None])

    def _pulls(self, sigma: np.ndarray) -> np.ndarray:
        """Row k is c_k = sum_{i != k} sigma_i (A_k - A_i)/|A_k - A_i| in the
        frame: g_sigma at vertex k over the other vertices."""
        return np.add.reduce(sigma[:, None] * self._unit_edges, axis=1)

    @functools.cached_property
    def _fermat_vertex(self) -> int | None:
        """Kuhn's verdict: the first vertex k whose pull at sigma = +1 has
        norm <= 1, which makes k the distance sum's minimizer, or None."""
        pulls = _norms(self._pulls(np.ones(self.n + 1)), 1)
        optimal = np.flatnonzero(pulls <= 1.0)
        return int(optimal[0]) if optimal.size else None

    # -- conversions ------------------------------------------------------

    def _absolute(self, a, power: int = 1):
        """A frame measure of the given power (1 length, 2 area, ..., -1 the
        other way) in absolute units: inf or 0 beyond float range, silently."""
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(a, power * self._exponent)

    def _to_frame(self, x) -> np.ndarray:
        return self._absolute(np.asarray(x, dtype=float) - self.vertices[0], -1)

    def _from_frame(self, y) -> np.ndarray:
        return self.vertices[0] + self._absolute(y)

    def _coords(self, y: np.ndarray) -> np.ndarray:
        """Barycentric coordinates of a frame point (summing to 1 up to rounding)."""
        return self._affine[0] @ np.concatenate((y, _ONE))

    def _frame(self, p) -> np.ndarray:
        """The frame point of a finite barycentric point (inverse of ``_coords``)."""
        return self._local.T @ as_point(p, self.n).normalized_coords

    def bary_to_cart(self, p) -> np.ndarray:
        return self._from_frame(self._frame(p))

    def cart_to_bary(self, x) -> BarycentricPoint:
        """The affine solve's coordinates of x, divided by their sum (1 up to rounding)."""
        return BarycentricPoint(self._coords(self._to_frame(x)))

    # -- metric -----------------------------------------------------------

    def vertex_distances(self, p) -> np.ndarray:
        """Distances from a point to every vertex."""
        return self._absolute(self._distances(p))

    def _distances(self, p) -> np.ndarray:
        """``vertex_distances`` in the frame."""
        return self._rays(self._frame(p))[1]

    def _rays(self, y: np.ndarray, message: str | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
        """The rays A_i - y from a frame point to the vertices and their lengths;
        with a ``message``, ``AtVertex(message)``, ``{i}`` the nearest vertex, if
        that lies within _REL_EPS * diameter (finite in the frame)."""
        rays = self._local - y
        lengths = np.sqrt(_einsum("ij,ij->i", rays, rays))
        if message is not None:
            k = int(lengths.argmin())
            if lengths[k] <= _REL_EPS * self._local_diameter:
                raise AtVertex(message.format(i=k))
        return rays, lengths

    def pedal_feet(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projections of a Cartesian point onto all sideplanes."""
        return self._from_frame(self._feet(self._to_frame(x)))

    def _heights(self, y: np.ndarray) -> np.ndarray:
        """Signed distances of a frame point from the sideplanes, positive
        on each one's vertex side."""
        _, normals, offsets = self._affine
        return normals @ y - offsets

    def _feet(self, y: np.ndarray) -> np.ndarray:
        """``pedal_feet`` of a frame point, in the frame."""
        return y[None, :] - self._heights(y)[:, None] * self._affine[1]

    def __repr__(self):
        return f"SimplexModel(n={self.n}, volume={self.total_volume:.6g})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def embed_from_edge_lengths(table: EdgeLengthTable) -> SimplexModel:
    """Realize an edge-length table as Cartesian vertices in canonical pose.

    Pose: vertex 0 at the origin, vertex 1 on the positive first axis, and
    every further vertex with positive last nonzero coordinate, so equal
    tables always embed to identical vertex arrays.  The table's vertex-0
    Gram matrix G_ij = (d_0i^2 + d_0j^2 - d_ij^2) / 2 is factored first; if
    Cholesky fails (the gufunc fills the factor with NaN), its spectrum
    decides between ``NotEmbeddable`` and ``Degenerate``, otherwise the
    validated model's own Gram test does.
    ``NotEmbeddable`` also if the model's edge table misses an input length
    by more than 1e-10 of the longest.  The lengths are squared after an
    exact power-of-two scaling that brings the longest into [1/2, 1), so
    no square overflows.
    """
    exponent = math.frexp(table.d.max())[1]
    sq = np.ldexp(table.d, -exponent) ** 2
    gram = 0.5 * (sq[0, 1:, None] + sq[0, None, 1:] - sq[1:, 1:])
    with np.errstate(invalid="ignore"):
        lower = _lapack.cholesky_lo(gram, signature="d->d")
    if math.isnan(lower[0, 0]):
        raise _gram_defect(gram)
    vertices = np.zeros((table.n + 1, table.n))
    vertices[1:] = np.ldexp(lower, exponent)
    model = SimplexModel(vertices)
    if np.abs(model.edges.d - table.d).max() > 1e-10 * table.d.max():
        raise NotEmbeddable("embedding failed to realize the edge lengths")
    return model


def circumcenter_cart(model: SimplexModel) -> tuple[np.ndarray, float]:
    """Cartesian circumcenter and circumradius."""
    center, radius = model._circumcenter
    return model._from_frame(center), float(model._absolute(radius))


def classical_centers(model: SimplexModel) -> dict[str, BarycentricPoint]:
    """Centroid G, incenter I, symmedian point K and circumcenter O."""
    a = model._facets
    return {
        "G": BarycentricPoint(np.ones(model.n + 1)),
        "I": BarycentricPoint(a),
        "K": BarycentricPoint(a ** 2),
        "O": BarycentricPoint(model._coords(model._circumcenter[0])),
    }

