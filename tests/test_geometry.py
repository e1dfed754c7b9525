import numpy as np
import pytest

from fracvolt.geometry import GeometryError, build_lattice, pseudo_distance


def lattice_invariants(points, max_radius, seed, n_probe=4000):
    """Separation and covering of a lattice, measured by brute force.

    Returns the least pseudohyperbolic distance over all pairs of points,
    which an r-lattice keeps at or above tanh(r/2), and the largest distance
    from one of n_probe seeded probes of |z| <= max_radius (uniform in
    arctanh-radius) to its nearest point, which it keeps at or below tanh(r).
    """
    min_sep = np.inf
    for i in range(0, len(points), 512):
        d = pseudo_distance(points[i:i + 512, None], points[None, :])
        d[d == 0.0] = np.inf
        min_sep = min(min_sep, float(d.min()))
    rng = np.random.default_rng(seed + 1)
    rad = np.tanh(np.arctanh(max_radius) * rng.uniform(0.0, 1.0, n_probe))
    probe = rad * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_probe))
    worst = max(float(pseudo_distance(probe[i:i + 512, None],
                                      points[None, :]).min(axis=1).max())
                for i in range(0, n_probe, 512))
    return {"min_separation_rho": min_sep, "worst_covering_rho": worst}


class TestMetrics:
    def test_pseudo_from_origin(self):
        w = 0.3 - 0.4j
        np.testing.assert_allclose(pseudo_distance(0.0, w), 0.5)

    def test_pseudo_zero_iff_equal(self):
        assert pseudo_distance(0.5, 0.5) == 0.0
        assert pseudo_distance(0.5, 0.5 + 1e-9j) > 0

    def test_pseudo_example(self):
        np.testing.assert_allclose(pseudo_distance(0.5, -0.5), 0.8)

    def test_symmetry(self, rng):
        z = (rng.uniform(-0.7, 0.7, 10) + 1j * rng.uniform(-0.7, 0.7, 10))
        w = (rng.uniform(-0.7, 0.7, 10) + 1j * rng.uniform(-0.7, 0.7, 10))
        np.testing.assert_allclose(pseudo_distance(z, w), pseudo_distance(w, z))

    def test_hyper_values(self):
        # the hyperbolic distance is artanh of the pseudohyperbolic one
        assert np.arctanh(pseudo_distance(0.3j, 0.3j)) == 0.0
        np.testing.assert_allclose(np.arctanh(pseudo_distance(0.0, 0.5)),
                                   0.5 * np.log(3.0), rtol=1e-14)

    def test_hyper_triangle_inequality(self, rng):
        pts = rng.uniform(-0.6, 0.6, (50, 3)) + 1j * rng.uniform(-0.6, 0.6, (50, 3))
        a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
        lhs = np.arctanh(pseudo_distance(a, c))
        rhs = np.arctanh(pseudo_distance(a, b)) + np.arctanh(pseudo_distance(b, c))
        assert np.all(lhs <= rhs + 1e-12)


class TestLattice:
    def test_invariants_r_half(self):
        pts = build_lattice(0.5, seed=1, max_radius=0.99)
        report = lattice_invariants(pts, 0.99, seed=1)
        assert report["min_separation_rho"] >= np.tanh(0.25) - 1e-12
        assert report["worst_covering_rho"] <= np.tanh(0.5)

    def test_deterministic_for_seed(self):
        a = build_lattice(0.4, seed=7, max_radius=0.99)
        b = build_lattice(0.4, seed=7, max_radius=0.99)
        np.testing.assert_array_equal(a, b)

    def test_overlap_bound(self):
        # no probe point lies in more than a bounded number of discs D(a, r)
        pts = build_lattice(0.5, seed=2, max_radius=0.99)
        rng = np.random.default_rng(4)
        rad = np.tanh(np.arctanh(0.99) * rng.uniform(0.0, 1.0, 2000))
        probe = rad * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2000))
        worst = max(int(np.sum(pseudo_distance(probe[i:i + 512, None],
                                               pts[None, :]) < np.tanh(0.5),
                               axis=1).max())
                    for i in range(0, 2000, 512))
        assert worst <= 64

    def test_origin_always_covered(self):
        pts = build_lattice(0.3, seed=0, max_radius=0.9)
        assert np.min(np.abs(pts)) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(GeometryError):
            build_lattice(0.0)
        with pytest.raises(GeometryError):
            build_lattice(0.5, max_radius=1.0 - 2.0 ** -30)

    def test_invariants_of_the_anchor_lattice(self):
        # the lattice behind norms.default_anchors
        max_radius = 1.0 - 2.0 ** -6
        pts = build_lattice(0.7, seed=0, max_radius=max_radius)
        assert len(pts) == 569
        report = lattice_invariants(pts, max_radius, seed=0)
        assert report["min_separation_rho"] >= np.tanh(0.35)
        assert report["worst_covering_rho"] <= np.tanh(0.7)
