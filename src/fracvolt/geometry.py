"""Pseudohyperbolic distance and the r-lattices of the disc-suprema anchors.

* rho(z, w) is the pseudohyperbolic distance and beta(z, w) = artanh(rho)
  the hyperbolic one; D(z, r) denotes the beta-ball of radius r.
* An r-lattice is r/2-separated in beta and covers the truncated disc with
  beta-balls of radius r.  Lattices here are finite, cut at a truncation
  radius.
"""

from __future__ import annotations

import numpy as np

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


def build_lattice(r: float, seed: int = 0,
                  max_radius: float = DEFAULT_LATTICE_RADIUS) -> np.ndarray:
    """Points of a deterministic r-lattice on |z| <= max_radius.

    Points are laid on hyperbolic circles spaced 0.66 r apart with matching
    in-ring spacing (the hyperbolic circumference at beta-radius R is
    pi sinh 2R), each ring rotated by a seeded offset, then greedily thinned
    to enforce r/2 separation.
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
    return np.concatenate(rings)
