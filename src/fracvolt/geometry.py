"""Carleson squares, non-tangential cones, hyperbolic metric and r-lattices.

Conventions
-----------
* The Carleson square S(a), a != 0, is the set of z with
  |arg a - arg z| <= (1 - |a|)/2 and 1 - |z| <= 1 - |a|;  S(0) is the disc.
* The cone with vertex xi on the circle is |arg z - arg xi| < 1 - |z|; the
  origin belongs to every cone (arg 0 is undefined and 1 - |0| is maximal,
  so the convention is measure-neutral).
* beta(z, w) = (1/2) log((1+rho)/(1-rho)) with rho the pseudohyperbolic
  distance; D(z, r) denotes the beta-ball, which is a Euclidean disc.
* An r-lattice is r/2-separated in beta and covers the truncated disc with
  beta-balls of radius r.  Lattices here are finite; the truncation radius
  travels with the lattice and is recorded by downstream sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quad import gauss_rule

MAX_LATTICE_RADIUS = 1.0 - 2.0 ** -20
DEFAULT_LATTICE_RADIUS = 1.0 - 2.0 ** -8


class GeometryError(Exception):
    pass


def pseudo_distance(z, w):
    """rho(z, w) = |z - w| / |1 - conj(z) w|."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    out = np.abs(z - w) / np.abs(1.0 - np.conj(z) * w)
    return out if out.ndim else float(out)


def hyper_distance(z, w):
    """beta(z, w) = (1/2) log((1 + rho)/(1 - rho))  = artanh(rho)."""
    rho = pseudo_distance(z, w)
    return np.arctanh(rho)


def _wrapped_arg_diff(a, b):
    d = np.angle(np.asarray(a, dtype=complex)) - np.angle(np.asarray(b, dtype=complex))
    return np.abs((d + np.pi) % (2.0 * np.pi) - np.pi)


def in_cone(z, xi) -> np.ndarray:
    """Membership in the non-tangential region with vertex xi, |xi| = 1."""
    z = np.asarray(z, dtype=complex)
    xi = complex(xi)
    if not np.isclose(abs(xi), 1.0, atol=1e-12):
        raise GeometryError("cone vertex must lie on the unit circle")
    diff = _wrapped_arg_diff(z, xi)
    out = np.where(z == 0, True, diff < (1.0 - np.abs(z)))
    return out if out.ndim else bool(out)


@dataclass(frozen=True)
class CarlesonSquare:
    anchor: complex

    def __post_init__(self):
        if abs(self.anchor) >= 1.0:
            raise GeometryError("square anchor must satisfy |a| < 1")

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        a = self.anchor
        if a == 0:
            out = np.abs(z) < 1.0
        else:
            radial = (1.0 - np.abs(z)) <= (1.0 - abs(a))
            angular = _wrapped_arg_diff(z, a) <= (1.0 - abs(a)) / 2.0
            out = radial & angular
        return out if out.ndim else bool(out)


def in_square(z, square: CarlesonSquare):
    return square.contains(z)


def square_area(a: complex) -> float:
    """Normalised area of S(a): (1 - |a|) (1 - |a|^2) / (2 pi) for a != 0."""
    t = abs(a)
    if t == 0:
        return 1.0
    return (1.0 - t) * (1.0 - t * t) / (2.0 * np.pi)


def hyperbolic_disc_params(a, r: float):
    """Euclidean (center, radius) of the beta-ball D(a, r); arrays of them
    for an array of centres ``a``."""
    a = np.asarray(a, dtype=complex)
    rho = np.tanh(r)
    t2 = np.abs(a) ** 2
    denom = 1.0 - rho * rho * t2
    center = a * (1.0 - rho * rho) / denom
    radius = rho * (1.0 - t2) / denom
    return (complex(center), float(radius)) if a.ndim == 0 else (center, radius)


def disc_quadrature(a, r: float, n_rad: int = 24, n_ang: int = 48):
    """Nodes/weights integrating dA (normalised) over the beta-ball D(a, r).

    Returns flat complex nodes and real weights with sum(weights) equal to
    the Euclidean area of D(a, r) divided by pi; for an array of centres
    ``a``, row i of each belongs to the ball of a[i].
    """
    center, radius = hyperbolic_disc_params(a, r)
    center, radius = np.asarray(center)[..., None], np.asarray(radius)[..., None]
    x, w = gauss_rule(n_rad)
    t = 0.5 * (x + 1.0)          # radial nodes on [0, 1]
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    pts = center + radius * (t[:, None] * np.exp(1j * theta)[None, :]).ravel()
    wts = 2.0 * radius ** 2 * np.repeat(0.5 * w * t, n_ang) / n_ang
    return pts, wts


def ball_integrals(F, anchors, r: float, n_rad: int = 24,
                   n_ang: int = 48) -> np.ndarray:
    """int_{D(a, r)} F dA for every anchor a in one vectorised pass; F maps
    a flat array of points to values."""
    pts, wts = disc_quadrature(np.asarray(anchors, dtype=complex), r,
                               n_rad, n_ang)
    vals = np.asarray(F(pts.ravel()), dtype=float).reshape(pts.shape)
    return np.sum(wts * vals, axis=1)


@dataclass
class Lattice:
    separation: float
    points: np.ndarray
    max_radius: float
    seed: int

    def __len__(self):
        return len(self.points)

    def to_csv(self) -> str:
        lines = ["re,im"]
        for z in self.points:
            lines.append(f"{z.real:.17g},{z.imag:.17g}")
        return "\n".join(lines) + "\n"


def build_lattice(r: float, seed: int = 0,
                  max_radius: float = DEFAULT_LATTICE_RADIUS,
                  verify: bool = True) -> Lattice:
    """Deterministic r-lattice on |z| <= max_radius.

    Points are laid on hyperbolic circles spaced 0.66 r apart with matching
    in-ring spacing (the hyperbolic circumference at beta-radius R is
    pi sinh 2R), each ring rotated by a seeded offset, then greedily thinned
    to enforce r/2 separation.  Both lattice invariants are re-checked
    post-hoc on a probe grid.
    """
    if not (0.0 < r <= 1.0):
        raise GeometryError("lattice parameter must satisfy 0 < r <= 1")
    if max_radius > MAX_LATTICE_RADIUS:
        raise GeometryError("lattice truncation radius exceeds the supported cap")
    rng = np.random.default_rng(seed)
    beta_max = float(np.arctanh(max_radius))
    h = 0.66 * r
    n_rings = int(np.floor(beta_max / h)) + 1
    rho_sep = np.tanh(r / 2.0)

    # Rings are h apart in beta-radius, so by the triangle inequality only
    # same-ring and adjacent-ring pairs can come closer than r/2 (2h > r/2).
    rings: list = [np.array([0.0 + 0.0j])]
    for k in range(1, n_rings):
        R = k * h
        circumference = np.pi * np.sinh(2.0 * R)
        m = max(3, int(np.ceil(circumference / h)))
        offset = rng.uniform(0.0, 1.0)
        angles = 2.0 * np.pi * (np.arange(m) + offset) / m
        ring = np.tanh(R) * np.exp(1j * angles)
        # in-ring spacing: equally spaced (m >= 3), so one adjacent pair decides
        if pseudo_distance(ring[0], ring[1]) < rho_sep:
            ring = ring[::2]
        prev = rings[k - 1]
        d = pseudo_distance(ring[:, None], prev[None, :])
        ring = ring[d.min(axis=1) >= rho_sep]
        rings.append(ring)

    acc_arr = np.concatenate(rings)
    lat = Lattice(separation=r, points=acc_arr, max_radius=max_radius, seed=seed)
    lat._rings = rings
    if verify:
        verify_lattice(lat)
    return lat


def _pairwise_min_rho(a: np.ndarray, b: np.ndarray, same: bool) -> float:
    min_d = np.inf
    for i in range(0, len(a), 512):
        chunk = a[i:i + 512]
        d = pseudo_distance(chunk[:, None], b[None, :])
        if same:
            d[d == 0.0] = np.inf
        min_d = min(min_d, float(d.min()))
    return min_d


def _probe_points(lat: Lattice, n_probe: int, stream: int) -> np.ndarray:
    """Seeded probes of the truncated disc, area-uniform in the hyperbolic
    sense: uniform in arctanh-radius."""
    rng = np.random.default_rng(lat.seed + stream)
    u = rng.uniform(0.0, 1.0, n_probe)
    rad = np.tanh(np.arctanh(lat.max_radius) * u)
    ang = rng.uniform(0.0, 2.0 * np.pi, n_probe)
    return rad * np.exp(1j * ang)


def verify_lattice(lat: Lattice, n_probe: int = 4000) -> dict:
    """Check separation and covering; raises on a covering failure."""
    pts = lat.points
    rho_sep = np.tanh(lat.separation / 2.0)
    rings = getattr(lat, "_rings", None)
    if rings is not None and len(pts) > 3000:
        # only same-ring / adjacent-ring pairs can violate separation
        min_d = np.inf
        for k, ring in enumerate(rings):
            if len(ring) == 0:
                continue
            min_d = min(min_d, _pairwise_min_rho(ring, ring, same=True))
            if k > 0 and len(rings[k - 1]):
                min_d = min(min_d, _pairwise_min_rho(ring, rings[k - 1], same=False))
    else:
        min_d = _pairwise_min_rho(pts, pts, same=True)
    if min_d < rho_sep * (1.0 - 1e-12):
        raise GeometryError(
            f"lattice separation violated: min rho {min_d} < {rho_sep}")

    probe = _probe_points(lat, n_probe, 1)
    rho_cover = np.tanh(lat.separation)
    worst = -1.0
    worst_pt = 0j
    for i in range(0, n_probe, 512):
        chunk = probe[i:i + 512]
        nearest = pseudo_distance(chunk[:, None], pts[None, :]).min(axis=1)
        j = int(np.argmax(nearest))
        if nearest[j] > worst:
            worst = float(nearest[j])
            worst_pt = chunk[j]
    if worst > rho_cover:
        raise GeometryError(
            f"lattice covering failed at {worst_pt}: nearest rho {worst}")
    return {"min_separation_rho": min_d, "worst_covering_rho": worst}


def overlap_multiplicity(lat: Lattice, n_probe: int = 2000) -> int:
    """Max number of discs D(z_k, r) containing a single probe point."""
    probe = _probe_points(lat, n_probe, 2)
    rho = np.tanh(lat.separation)
    worst = 0
    for i in range(0, n_probe, 512):
        chunk = probe[i:i + 512]
        d = pseudo_distance(chunk[:, None], lat.points[None, :])
        counts = np.sum(d < rho, axis=1)
        worst = max(worst, int(counts.max()))
    return worst
