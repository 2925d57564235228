"""Barycentric/Cartesian engine for n-simplices.

A simplex is described either by vertex coordinates or by its table of
pairwise edge lengths, which is embedded first; every model is measured
from its vertices.  A point has one form, ``BarycentricPoint(coords)``: a
finite point is stored normalized, so its ``coords`` sum to 1; a
direction (coordinate sum zero) is kept as given.

Near-zero policy: one tolerance, eps = 1e-13 relative to each input's own
scale, decides where a construction stops being defined, in four predicates:
``_zero_entries``, ``_zero_sum``, ``_all_equal`` and ``SimplexModel._vertex_at``.

Volume policy: one kernel, ``facet_volumes_of_points``, measures facets by
Gram determinants of edge vectors from vertex coordinates; a model's total
volume comes from the Gram matrix that its validity test reads.

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

from .errors import Degenerate, NotEmbeddable, PointAtInfinity

# The near-zero tolerance eps: two orders above double epsilon.
_REL_EPS = 1e-13

# Bound on lambda_min / lambda_max of a simplex's Gram matrix (edge vectors
# with condition number above 1e6); round-off in the eigenvalues is ~1e-16.
_GRAM_REL_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _zero_entries(c: np.ndarray) -> np.ndarray:
    return np.abs(c) <= _REL_EPS * np.abs(c).max()


def _zero_sum(total: float, norm: float) -> bool:
    """Whether a coordinate sum is zero, given the sum of the magnitudes."""
    return abs(total) <= _REL_EPS * norm


def _all_equal(c: np.ndarray) -> bool:
    return float(np.ptp(c)) <= _REL_EPS * float(np.abs(c).max())


# ---------------------------------------------------------------------------
# volumes from vertex coordinates (Gram)
# ---------------------------------------------------------------------------

@functools.cache
def _leave_one_out(m: int) -> np.ndarray:
    """Read-only index table whose row i lists 0..m-1 without i."""
    keep = np.array([[j for j in range(m) if j != i] for i in range(m)])
    keep.flags.writeable = False
    return keep


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows and columns of the pairs i < j of 0..m-1, in
    lexicographic order."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def facet_volumes_of_points(points: np.ndarray) -> np.ndarray:
    """(k-1)-volumes of all facets of the simplex on the given points.

    Entry i is the volume of the facet obtained by dropping point i (a
    point's is 1, the determinant of an empty Gram matrix).  Vectorized over
    the facets, for the figures of the isogonic catalog.
    """
    points = np.asarray(points, float)
    m = points.shape[0]
    facets = points[_leave_one_out(m)]          # (m, m-1, dim)
    edges = facets[:, 1:, :] - facets[:, :1, :]  # (m, m-2, dim)
    gram = edges @ edges.transpose(0, 2, 1)
    dets = np.linalg.det(gram)
    return np.sqrt(np.clip(dets, 0.0, None)) / math.factorial(m - 2)


def _gram_defect(gram: np.ndarray) -> NotEmbeddable | Degenerate | None:
    """The error a Gram matrix of edge vectors from one vertex calls for, if any.

    By Schoenberg's theorem the simplex exists iff the Gram matrix is
    positive semidefinite, and has positive volume iff it is definite:
    ``NotEmbeddable`` below ``-_GRAM_REL_TOL * lambda_max``, ``Degenerate``
    within that scale-invariant tolerance of zero.  A spectrum that is not
    finite fails the first comparison and is ``NotEmbeddable`` too.
    """
    lam = np.linalg.eigvalsh(gram)
    floor = _GRAM_REL_TOL * lam[-1]
    if not lam[0] >= -floor:
        return NotEmbeddable(f"no Euclidean simplex (Gram eigenvalue {lam[0]:.3e})")
    if lam[0] <= floor:
        return Degenerate("vertices are affinely dependent")
    return None


# ---------------------------------------------------------------------------
# edge length table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeLengthTable:
    """Symmetric table of pairwise vertex distances of an n-simplex."""

    n: int
    d: np.ndarray  # (n+1, n+1), zero diagonal

    @classmethod
    def from_matrix(cls, d) -> "EdgeLengthTable":
        """A table given as input: square of size >= 2 (a segment or more),
        symmetric, zero diagonal, positive edges."""
        d = np.asarray(d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 2:
            raise ValueError("edge table must be a square matrix of size >= 2")
        if not np.isfinite(d).all():
            raise ValueError("edge lengths must be finite")
        n = d.shape[0] - 1
        scale = float(np.abs(d).max())
        if scale <= 0.0:
            raise ValueError("edge table is identically zero")
        # halves, since d - d.T may overflow
        if np.abs(0.5 * d - 0.5 * d.T).max() > 0.5 * _REL_EPS * scale:
            raise ValueError("edge table is not symmetric")
        if np.abs(np.diag(d)).max() > _REL_EPS * scale:
            raise ValueError("edge table diagonal must be zero")
        off = d[~np.eye(n + 1, dtype=bool)]
        if off.min() <= 0.0:
            raise ValueError("off-diagonal edge lengths must be positive")
        sym = d + 0.5 * (d.T - d)   # d + d.T may overflow; exact if symmetric
        np.fill_diagonal(sym, 0.0)
        return cls(n=n, d=_readonly(sym))

    @classmethod
    def from_flat(cls, n: int, values) -> "EdgeLengthTable":
        """Build from lengths listed pairwise in lexicographic order
        (d_12, d_13, ..., d_1,n+1, d_23, ..., d_n,n+1)."""
        values = np.array(list(values), dtype=float)
        rows, cols = _pairs(n + 1)
        if values.shape != rows.shape:
            raise ValueError(
                f"dimension {n} needs {rows.size} edge lengths, got {len(values)}")
        d = np.zeros((n + 1, n + 1))
        d[rows, cols] = d[cols, rows] = values
        return cls.from_matrix(d)

    def subtable(self, keep) -> "EdgeLengthTable":
        keep = list(keep)
        return EdgeLengthTable.from_matrix(self.d[np.ix_(keep, keep)])


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


@dataclass(frozen=True)
class BarycentricPoint:
    """Homogeneous coordinates [p_1 : ... : p_{n+1}] relative to a simplex.

    A point is a class of proportional vectors, held by one member.  A
    vector whose coordinate sum is zero (``_zero_sum``) is a direction, a
    point at infinity, and is kept as given; any other vector is a finite
    point, stored divided by its sum so that ``coords`` sums to 1.
    ``is_finite`` reads that verdict, and ``normalized_coords`` raises
    ``PointAtInfinity`` on a direction.
    """

    coords: np.ndarray
    _finite: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("coordinates must be a vector of length >= 2")
        try:
            norm = math.fsum(np.abs(coords).tolist())
        except OverflowError:
            # finite magnitudes whose sum is not: an exact power of two brings
            # the largest finite one into [1/2, 1), and an inf or NaN stays
            mags = np.abs(coords)
            coords = np.ldexp(coords, -math.frexp(mags[np.isfinite(mags)].max())[1])
            norm = math.fsum(np.abs(coords).tolist())
        if not math.isfinite(norm):
            raise ValueError("coordinates must be finite")
        total = float(coords.sum())
        if norm == 0.0:
            raise ValueError("coordinate vector must not be zero")
        finite = not _zero_sum(total, norm)
        coords = coords / total if finite else coords.copy()
        coords.flags.writeable = False
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
        return c / c[int(np.argmax(np.abs(c)))]

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
    Instances are immutable, except that the affine frame ``_affine`` and
    the circumcenter ``_circumcenter`` are formed on their first read, and
    safe to share across threads: a first read that races builds equal
    read-only arrays.  Non-finite coordinates raise ``Degenerate``.  One
    Gram matrix of the edge vectors from vertex 0
    gives ``total_volume`` and the one validity test, ``_gram_defect``,
    whose verdict is kept as ``_defect``.  ``validate=True`` raises it
    (``Degenerate``, coincident vertices included); ``validate=False`` is
    for figures that may collapse, such as the pedal, antipedal, polar and
    inversive figures of ``pedal``, and ``degenerate`` then says whether the
    figure collapsed.  A collapsed figure keeps its volumes but has no
    affine frame: ``cart_to_bary`` and ``pedal_feet`` raise
    ``Degenerate`` on it.  All of it is computed in the frame of the module
    docstring: ``_local`` holds the vertices there, ``_lengths`` its edge
    lengths, and its unit is ``2 ** _exponent``.
    """

    def __init__(self, vertices, *, validate: bool = True):
        vertices = np.asarray(vertices, dtype=float)
        if (vertices.ndim != 2 or vertices.shape[1] < 1
                or vertices.shape[0] != vertices.shape[1] + 1):
            raise ValueError("vertices must be an (n+1) x n array with n >= 1")
        if not np.isfinite(vertices).all():
            raise Degenerate("vertex coordinates must be finite")
        self.vertices = _readonly(vertices)
        self.n = vertices.shape[1]
        # halved, so that no difference of finite coordinates overflows
        half = 0.5 * vertices - 0.5 * vertices[0]
        exponent = math.frexp(float(np.abs(half).max()))[1]
        self._exponent = exponent + 1
        local = self._local = _readonly(np.ldexp(half, -exponent))
        # symmetric with a zero diagonal bit for bit: |a - b| == |b - a|
        lengths = np.linalg.norm(local[:, None, :] - local[None, :, :], axis=2)
        self._lengths = _readonly(lengths)
        self._local_diameter = float(lengths.max())
        self.edges = EdgeLengthTable(n=self.n, d=_readonly(self._absolute(lengths)))
        self.diameter = float(self.edges.d.max())

        gram = local[1:] @ local[1:].T
        self._defect = _gram_defect(gram)
        if validate and self._defect is not None:
            raise self._defect
        volume = math.sqrt(max(float(np.linalg.det(gram)), 0.0)) / math.factorial(self.n)
        self.total_volume = float(self._absolute(volume, self.n))
        self._facets = _readonly(facet_volumes_of_points(local))
        self.facet_volumes = _readonly(self._absolute(self._facets, self.n - 1))

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
        inv = _readonly(np.linalg.inv(np.vstack([self._local.T, np.ones(self.n + 1)])))
        # unit sideplane normals / frame offsets: row i is the plane x_i = 0
        norms = np.linalg.norm(inv[:, :self.n], axis=1)
        return (inv, _readonly(inv[:, :self.n] / norms[:, None]),
                _readonly(-inv[:, self.n] / norms))

    @functools.cached_property
    def _circumcenter(self) -> tuple[np.ndarray, float]:
        """Circumcenter and circumradius in the frame (linear solve)."""
        v = self._local[1:]
        center = _readonly(np.linalg.solve(2.0 * v, (v ** 2).sum(axis=1)))
        return center, float(np.linalg.norm(center))

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
        return self._affine[0] @ np.append(y, 1.0)

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
        gaps = self._local - self._frame(p)
        return np.sqrt(np.einsum("ij,ij->i", gaps, gaps))

    def _vertex_at(self, dist: np.ndarray) -> int | None:
        """Nearest vertex if within _REL_EPS * diameter, given the frame
        distances to every vertex (the frame's diameter is finite)."""
        k = int(np.argmin(dist))
        return k if dist[k] <= _REL_EPS * self._local_diameter else None

    def pedal_feet(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projections of a Cartesian point onto all sideplanes."""
        return self._from_frame(self._feet(self._to_frame(x)))

    def _feet(self, y: np.ndarray) -> np.ndarray:
        """``pedal_feet`` of a frame point, in the frame."""
        _, normals, offsets = self._affine
        resid = normals @ y - offsets
        return y[None, :] - resid[:, None] * normals

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
    Cholesky fails, its spectrum decides between ``NotEmbeddable`` and
    ``Degenerate``, otherwise the validated model's own Gram test does.
    ``NotEmbeddable`` also if the model's edge table misses an input length
    by more than 1e-10 of the longest.  The lengths are squared after an
    exact power-of-two scaling that brings the longest into [1/2, 1), so
    no square overflows.
    """
    exponent = math.frexp(table.d.max())[1]
    sq = np.ldexp(table.d, -exponent) ** 2
    gram = 0.5 * (sq[0, 1:, None] + sq[0, None, 1:] - sq[1:, 1:])
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise _gram_defect(gram) from None
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

