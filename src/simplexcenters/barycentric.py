"""Barycentric/Cartesian engine for n-simplices.

A simplex is described either by vertex coordinates or by its table of
pairwise edge lengths, which is embedded first; every model is measured
from its vertices.  Distances between barycentric points are evaluated
from the model's edge lengths, so all metric quantities are available
without ever leaving barycentric coordinates:

    d^2(P, Q) = - sum_{i<j} d_ij^2 (p_i - q_i)(p_j - q_j)

for normalized coordinate vectors p, q.

Near-zero policy: one tolerance, eps = 1e-13 relative to each input's own
scale, decides where a construction stops being defined, in four predicates:
``_zero_entries``, ``_zero_sum``, ``_all_equal`` and ``SimplexModel._vertex_at``.

Volume policy: one kernel, ``facet_volumes_of_points``, measures facets by
Gram determinants of edge vectors from vertex coordinates; a model's total
volume comes from the Gram matrix that its validity test reads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtInfinity,
    Degenerate,
    NotEmbeddable,
    OnSideplane,
    PointAtInfinity,
)

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


def _zero_sum(c: np.ndarray) -> bool:
    return abs(c.sum()) <= _REL_EPS * np.abs(c).sum()


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


def facet_volumes_of_points(points: np.ndarray) -> np.ndarray:
    """(k-1)-volumes of all facets of the simplex on the given points.

    Entry i is the volume of the facet obtained by dropping point i.
    Vectorized so the pedal iteration can call it in a tight loop.
    """
    points = np.asarray(points, float)
    m = points.shape[0]
    if m == 2:
        return np.array([1.0, 1.0])  # facets of a segment are points
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
    finite (a table whose squares overflow) is ``NotEmbeddable`` too.
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
        if np.abs(d - d.T).max() > _REL_EPS * scale:
            raise ValueError("edge table is not symmetric")
        if np.abs(np.diag(d)).max() > _REL_EPS * scale:
            raise ValueError("edge table diagonal must be zero")
        off = d[~np.eye(n + 1, dtype=bool)]
        if off.min() <= 0.0:
            raise ValueError("off-diagonal edge lengths must be positive")
        sym = 0.5 * (d + d.T)
        np.fill_diagonal(sym, 0.0)
        return cls(n=n, d=_readonly(sym))

    @classmethod
    def from_flat(cls, n: int, values) -> "EdgeLengthTable":
        """Build from lengths listed pairwise in lexicographic order
        (d_12, d_13, ..., d_1,n+1, d_23, ..., d_n,n+1)."""
        values = list(values)
        pairs = list(itertools.combinations(range(n + 1), 2))
        if len(values) != len(pairs):
            raise ValueError(
                f"dimension {n} needs {len(pairs)} edge lengths, got {len(values)}")
        d = np.zeros((n + 1, n + 1))
        for (i, j), v in zip(pairs, values):
            d[i, j] = d[j, i] = float(v)
        return cls.from_matrix(d)

    def flat(self) -> list[float]:
        return [float(self.d[i, j])
                for i, j in itertools.combinations(range(self.n + 1), 2)]

    def subtable(self, keep) -> "EdgeLengthTable":
        keep = list(keep)
        return EdgeLengthTable.from_matrix(self.d[np.ix_(keep, keep)])


# ---------------------------------------------------------------------------
# barycentric points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarycentricPoint:
    """Coordinate vector relative to a simplex.

    ``homogeneous`` points are defined up to scale; ``normalized`` points
    have coordinate sum 1.  A homogeneous vector with coordinate sum zero
    encodes a direction (point at infinity) and is rejected by any
    operation that needs an affine point.
    """

    coords: np.ndarray
    mode: str = "homogeneous"

    def __post_init__(self):
        coords = _readonly(self.coords)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("coordinates must be a vector of length >= 2")
        norm = float(np.abs(coords).sum())
        if not math.isfinite(norm):
            raise ValueError("coordinates must be finite")
        if norm == 0.0:
            raise ValueError("coordinate vector must not be zero")
        if self.mode not in ("homogeneous", "normalized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "normalized" and abs(coords.sum() - 1.0) > 1e-12 * max(1.0, norm):
            raise ValueError("normalized coordinates must sum to 1")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def homogeneous(cls, coords) -> "BarycentricPoint":
        return cls(coords=np.asarray(coords, float), mode="homogeneous")

    @classmethod
    def normalized_from(cls, coords) -> "BarycentricPoint":
        coords = np.asarray(coords, float)
        if _zero_sum(coords):
            raise PointAtInfinity("coordinate sum is zero")
        return cls(coords=coords / coords.sum(), mode="normalized")

    @classmethod
    def vertex(cls, i: int, n: int) -> "BarycentricPoint":
        e = np.zeros(n + 1)
        e[i] = 1.0
        return cls(coords=e, mode="normalized")

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    def is_finite(self) -> bool:
        return not _zero_sum(self.coords)

    def normalized(self) -> "BarycentricPoint":
        if self.mode == "normalized":
            return self
        return BarycentricPoint.normalized_from(self.coords)

    @property
    def normalized_coords(self) -> np.ndarray:
        return self.normalized().coords

    def report_scaled(self) -> np.ndarray:
        """Homogeneous rendering scaled so the largest-magnitude entry is +1."""
        c = self.coords
        return c / c[int(np.argmax(np.abs(c)))]

    def __repr__(self):
        vals = ", ".join(f"{v:.12g}" for v in self.coords)
        return f"BarycentricPoint([{vals}], {self.mode})"


def as_point(obj, n: int | None = None) -> BarycentricPoint:
    """Coerce an array-like or BarycentricPoint, checking the dimension."""
    if isinstance(obj, BarycentricPoint):
        pt = obj
    else:
        pt = BarycentricPoint.homogeneous(obj)
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
    Instances are immutable after construction and safe to share across
    threads.  Non-finite coordinates raise ``Degenerate``.  One Gram matrix
    of the edge vectors from vertex 0 gives ``total_volume`` and the one
    validity test, ``_gram_defect``, whose verdict is kept as ``_defect``.
    ``validate=True`` raises it (``Degenerate``, coincident vertices
    included); ``validate=False`` is for figures that may collapse, such
    as the pedal, antipedal, polar and inversive figures of ``pedal``, and
    ``degenerate`` then says whether the figure collapsed.  A collapsed
    figure keeps its volumes but has no affine frame: ``cart_to_bary``,
    ``sideplane`` and ``pedal_feet`` raise ``Degenerate`` on it.
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
        # symmetric with a zero diagonal bit for bit: |a - b| == |b - a|
        diff = vertices[:, None, :] - vertices[None, :, :]
        self.edges = EdgeLengthTable(n=self.n, d=_readonly(np.linalg.norm(diff, axis=2)))
        self.sq_edges = _readonly(self.edges.d ** 2)
        self.diameter = float(self.edges.d.max())

        edge_vectors = vertices[1:] - vertices[0]
        gram = edge_vectors @ edge_vectors.T
        self._defect = _gram_defect(gram)
        if validate and self._defect is not None:
            raise self._defect
        self.total_volume = (math.sqrt(max(float(np.linalg.det(gram)), 0.0))
                             / math.factorial(self.n))
        self.facet_volumes = _readonly(facet_volumes_of_points(vertices))

        if self._defect is None:
            # inverse of the affine system [vertices^T; 1 ... 1], which maps
            # normalized barycentrics to (x, 1): drives cart_to_bary and duals
            self._affine_inv = _readonly(
                np.linalg.inv(np.vstack([vertices.T, np.ones(self.n + 1)])))
            # unit sideplane normals / offsets: row i is the plane x_i = 0
            grads = self._affine_inv[:, :self.n]
            offs = -self._affine_inv[:, self.n]
            norms = np.linalg.norm(grads, axis=1)
            self._side_normals = _readonly(grads / norms[:, None])
            self._side_offsets = _readonly(offs / norms)

    @property
    def degenerate(self) -> bool:
        """True exactly when ``SimplexModel(vertices)`` raises ``Degenerate``."""
        return self._defect is not None

    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Affine inverse, unit sideplane normals and their offsets."""
        if self._defect is not None:
            raise Degenerate("a collapsed simplex has no affine frame")
        return self._affine_inv, self._side_normals, self._side_offsets

    # -- conversions ------------------------------------------------------

    def bary_to_cart(self, p) -> np.ndarray:
        p = as_point(p, self.n).normalized_coords
        return self.vertices.T @ p

    def cart_to_bary(self, x) -> BarycentricPoint:
        x = np.asarray(x, dtype=float)
        rhs = np.append(x, 1.0)
        coords = self._frame()[0] @ rhs
        return BarycentricPoint(coords=coords, mode="normalized")

    # -- metric -----------------------------------------------------------

    def squared_distance(self, p, q) -> float:
        p = as_point(p, self.n).normalized_coords
        q = as_point(q, self.n).normalized_coords
        delta = p - q
        return max(float(-0.5 * delta @ self.sq_edges @ delta), 0.0)

    def distance(self, p, q) -> float:
        return math.sqrt(self.squared_distance(p, q))

    def vertex_distances(self, p) -> np.ndarray:
        """Distances from a point to every vertex, via the edge-length formula."""
        p = as_point(p, self.n).normalized_coords
        # -1/2 (p - e_i)^T D (p - e_i) = -1/2 p^T D p + (D p)_i  with D_ii = 0
        dp = self.sq_edges @ p
        base = -0.5 * float(p @ dp)
        return np.sqrt(np.clip(base + dp, 0.0, None))

    def _vertex_at(self, dist: np.ndarray) -> int | None:
        """Nearest vertex if within _REL_EPS * diameter, given the distances."""
        k = int(np.argmin(dist))
        return k if dist[k] <= _REL_EPS * self.diameter else None

    # -- sideplanes -------------------------------------------------------

    def sideplane(self, i: int) -> "Hyperplane":
        coeffs = np.zeros(self.n + 1)
        coeffs[i] = 1.0
        return Hyperplane.from_bary_coeffs(coeffs, self)

    def pedal_feet(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projections of a Cartesian point onto all sideplanes."""
        _, normals, offsets = self._frame()
        resid = normals @ x - offsets
        return x[None, :] - resid[:, None] * normals

    def __repr__(self):
        return f"SimplexModel(n={self.n}, volume={self.total_volume:.6g})"


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane held in barycentric and Cartesian form simultaneously.

    Barycentric: {x normalized | sum_i bary_coeffs[i] * x_i = 0}.
    Cartesian:   {X | cart_normal . X = cart_offset} with unit normal.
    """

    bary_coeffs: np.ndarray
    cart_normal: np.ndarray
    cart_offset: float

    def __post_init__(self):
        object.__setattr__(self, "bary_coeffs", _readonly(self.bary_coeffs))
        object.__setattr__(self, "cart_normal", _readonly(self.cart_normal))

    @classmethod
    def from_bary_coeffs(cls, coeffs, model: SimplexModel) -> "Hyperplane":
        coeffs = np.asarray(coeffs, dtype=float)
        if not coeffs.any():
            raise ValueError("hyperplane coefficients must not all vanish")
        if _all_equal(coeffs):
            raise AtInfinity("all-equal coefficients encode the hyperplane at infinity")
        w = model._frame()[0].T @ coeffs
        grad, off = w[:-1], w[-1]
        ng = float(np.linalg.norm(grad))
        return cls(bary_coeffs=coeffs, cart_normal=grad / ng, cart_offset=float(-off / ng))

    def signed_distance(self, x) -> float:
        return float(self.cart_normal @ np.asarray(x, float) - self.cart_offset)


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
    by more than 1e-10 of the longest.
    """
    sq = table.d ** 2
    gram = 0.5 * (sq[0, 1:, None] + sq[0, None, 1:] - sq[1:, 1:])
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise _gram_defect(gram) from None
    vertices = np.zeros((table.n + 1, table.n))
    vertices[1:] = lower
    model = SimplexModel(vertices)
    if np.abs(model.edges.d - table.d).max() > 1e-10 * table.d.max():
        raise NotEmbeddable("embedding failed to realize the edge lengths")
    return model


def barycentric_square(p) -> BarycentricPoint:
    """Componentwise square, as a homogeneous point."""
    return BarycentricPoint.homogeneous(as_point(p).coords ** 2)


def circumcenter_cart(model: SimplexModel) -> tuple[np.ndarray, float]:
    """Cartesian circumcenter and circumradius (linear solve)."""
    v = model.vertices
    a = 2.0 * (v[1:] - v[0])
    b = (v[1:] ** 2).sum(axis=1) - (v[0] ** 2).sum()
    center = np.linalg.solve(a, b)
    return center, float(np.linalg.norm(center - v[0]))


def classical_centers(model: SimplexModel) -> dict[str, BarycentricPoint]:
    """Centroid G, incenter I, symmedian point K and circumcenter O."""
    a = model.facet_volumes
    center, _ = circumcenter_cart(model)
    return {
        "G": BarycentricPoint.homogeneous(np.ones(model.n + 1)),
        "I": BarycentricPoint.homogeneous(a),
        "K": BarycentricPoint.homogeneous(a ** 2),
        "O": model.cart_to_bary(center),
    }


def sigma_polar_plane(p, model: SimplexModel) -> Hyperplane:
    """Polar hyperplane of a point with respect to the simplex.

    For P = [p_1 : ... : p_{n+1}] this is {x | sum_i x_i / p_i = 0}; it
    meets the line through vertices i and j at [-p_i : p_j] (slots i, j).
    """
    coords = as_point(p, model.n).coords
    if _zero_entries(coords).any():
        raise OnSideplane("polar hyperplane requires all coordinates nonzero")
    return Hyperplane.from_bary_coeffs(1.0 / coords, model)
