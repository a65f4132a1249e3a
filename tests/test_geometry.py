"""Quaternion algebra, chi-squared helpers, and transform invariants."""

import math

import numpy as np
import pytest

from helpers import quat_from_axis_angle
from tlsreg.geometry import (
    CorrespondenceSet,
    RigidTransform,
    TlsConfig,
    UnitQuaternion,
    beta_from_sigma,
    chi2_cdf_3dof,
    geodesic_rotation_error,
    left_product_matrix,
    quat_to_matrix,
    right_product_matrix,
    random_unit_quaternion as random_quat,
)

RNG = np.random.default_rng(20240817)
IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def random_quats(n):
    return [random_quat(RNG) for _ in range(n)]


class TestProductMatrices:
    def test_identity_quaternion_gives_identity_matrices(self):
        assert np.allclose(left_product_matrix(IDENTITY), np.eye(4))
        assert np.allclose(right_product_matrix(IDENTITY), np.eye(4))

    def test_orthogonality_for_random_unit_quaternions(self):
        for q in random_quats(100):
            for M in (left_product_matrix(q), right_product_matrix(q)):
                assert np.allclose(M.T @ M, np.eye(4), atol=1e-12)

    def test_transpose_maps_to_scalar_axis(self):
        e = np.array([0.0, 0.0, 0.0, 1.0])
        for q in random_quats(20):
            assert np.allclose(left_product_matrix(q).T @ q, e, atol=1e-12)
            assert np.allclose(right_product_matrix(q).T @ q, e, atol=1e-12)

    def test_left_right_commute(self):
        for _ in range(20):
            x, y = random_quat(RNG), random_quat(RNG)
            lx, ry = left_product_matrix(x), right_product_matrix(y)
            assert np.allclose(lx @ ry, ry @ lx, atol=1e-12)

    def test_product_matrices_encode_quaternion_product(self):
        # Hamilton's i * j = k, j * i = -k; then both sides are x * y.
        i, j, k = np.eye(4)[:3]
        assert np.array_equal(left_product_matrix(i) @ j, k)
        assert np.array_equal(right_product_matrix(j) @ i, k)
        assert np.array_equal(left_product_matrix(j) @ i, -k)
        for _ in range(20):
            x, y = random_quat(RNG), random_quat(RNG)
            assert np.allclose(left_product_matrix(x) @ y, right_product_matrix(y) @ x)

    def test_left_times_right_transpose_is_block_rotation(self):
        for q in random_quats(20):
            M = left_product_matrix(q) @ right_product_matrix(q).T
            R = quat_to_matrix(q)
            expected = np.eye(4)
            expected[:3, :3] = R
            assert np.allclose(M, expected, atol=1e-12)

    def test_conjugate_transposes_product_matrix(self):
        for q in random_quats(20):
            conjugate = np.array([-q[0], -q[1], -q[2], q[3]])
            assert np.allclose(left_product_matrix(conjugate), left_product_matrix(q).T)


class TestRotate:
    def test_identity(self):
        assert np.allclose(quat_to_matrix(IDENTITY) @ [1, 2, 3], [1, 2, 3])

    def test_quarter_turn_about_z(self):
        q = quat_from_axis_angle([0, 0, 1], math.pi / 2)
        assert np.allclose(quat_to_matrix(q) @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_norm_preserving(self):
        for _ in range(50):
            q = random_quat(RNG)
            v = RNG.normal(size=3)
            assert np.isclose(np.linalg.norm(quat_to_matrix(q) @ v), np.linalg.norm(v), atol=1e-12)

    def test_double_cover(self):
        for q in random_quats(10):
            assert np.allclose(quat_to_matrix(q), quat_to_matrix(-np.asarray(q)))


class TestChiSquared:
    def test_cdf_against_quadrature(self):
        # Independent oracle: numerical quadrature of the chi2(3) density.
        from scipy.integrate import quad

        for x in (0.1, 0.5, 1.0, 3.0, 9.0, 30.0):
            density = lambda t: math.sqrt(t) * math.exp(-t / 2) / (math.sqrt(2 * math.pi))
            expected, _ = quad(density, 0, x)
            assert abs(chi2_cdf_3dof(x) - expected) < 1e-10

    def test_beta_for_97_percent(self):
        assert abs(beta_from_sigma(1.0, 0.97) - 3.0) < 0.01

    def test_beta_for_one_in_a_million_tail(self):
        assert abs(beta_from_sigma(0.01, 1.0 - 1e-6) - 0.0554) < 0.0005

    def test_linear_in_sigma(self):
        p = 0.9
        assert np.isclose(beta_from_sigma(2.0, p), 2 * beta_from_sigma(1.0, p), rtol=1e-12)

    def test_monotone_in_p(self):
        values = [beta_from_sigma(1.0, p) for p in (0.1, 0.3, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            beta_from_sigma(1.0, 0.0)
        with pytest.raises(ValueError):
            beta_from_sigma(1.0, 1.0)


class TestGeodesicError:
    def test_zero_for_equal_rotations(self):
        R = quat_to_matrix(random_quat(RNG))
        assert geodesic_rotation_error(R, R) == 0.0

    def test_pi_for_half_turn(self):
        R = quat_to_matrix(quat_from_axis_angle([1, 0, 0], math.pi))
        assert np.isclose(geodesic_rotation_error(np.eye(3), R), math.pi)

    def test_known_perturbation_angle(self):
        for _ in range(20):
            R = quat_to_matrix(random_quat(RNG))
            axis = RNG.normal(size=3)
            delta = quat_to_matrix(quat_from_axis_angle(axis, 0.3))
            assert abs(geodesic_rotation_error(R, R @ delta) - 0.3) < 1e-9


class TestTypes:
    def test_rigid_transform_validation(self):
        with pytest.raises(ValueError):
            RigidTransform(scale=-1.0, rotation=UnitQuaternion(IDENTITY), translation=[0, 0, 0])

    def test_rigid_transform_apply(self):
        t = RigidTransform(
            scale=2.0,
            rotation=UnitQuaternion(quat_from_axis_angle([0, 0, 1], math.pi / 2)),
            translation=[1.0, 0.0, 0.0],
        )
        assert np.allclose(t.apply([1.0, 0.0, 0.0]), [1.0, 2.0, 0.0], atol=1e-12)

    def test_correspondence_set_validation(self):
        good = CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(3))
        assert len(good) == 3
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((3, 3)), np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="noise bounds"):
                CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)), [1.0, bad, 1.0])

    def test_tls_config_validation(self):
        assert TlsConfig().cbar_sq == 1.0
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                TlsConfig(cbar_sq=bad)

    def test_unit_quaternion_renormalizes(self):
        q = UnitQuaternion([0.0, 0.0, 0.0, 2.0])
        assert np.isclose(np.linalg.norm(q.as_array()), 1.0, atol=1e-12)
