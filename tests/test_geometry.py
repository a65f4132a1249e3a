"""Quaternion algebra and transform invariants."""

import math

import numpy as np
import pytest

from helpers import quat_from_axis_angle
from tlsreg.geometry import (
    CorrespondenceSet,
    RigidTransform,
    TlsConfig,
    UnitQuaternion,
    geodesic_rotation_error,
    left_product_matrix,
    quat_normalize,
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


    def test_same_bits_as_numpy_arithmetic(self):
        # Unit and non-unit quaternions, and eigenvector-like strided columns.
        qs = list(RNG.normal(size=(2000, 4)) * RNG.uniform(0.5, 2.0, size=(2000, 1)))
        qs += [m[:, 3] for m in RNG.normal(size=(500, 4, 4))]
        for q in qs:
            unit = q / np.linalg.norm(q)
            assert np.array_equal(quat_normalize(q), unit)
            x, y, z, w = unit
            expected = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                    [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                    [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
                ]
            )
            assert np.array_equal(quat_to_matrix(q), expected)

    def test_every_norm_gives_a_rotation(self):
        # Norms from 1e-11 to 1e150: the matrix is orthonormal with
        # determinant +1 to a few ulps, so a transform need not check it.
        rng = np.random.default_rng(27)
        qs = rng.normal(size=(20_000, 4))
        qs *= 10.0 ** rng.uniform(-11, 150, size=(20_000, 1)) / np.linalg.norm(qs, axis=1)[:, None]
        Rs = np.array([quat_to_matrix(q) for q in qs])
        gram = np.einsum("nki,nkj->nij", Rs, Rs)
        assert np.abs(gram - np.eye(3)).max() < 1e-14
        assert np.abs(np.linalg.det(Rs) - 1.0).max() < 1e-14

    def test_a_half_turn_too_large_to_square_is_refused(self):
        # 1e200 squared overflows: its "unit" quaternion would be zeros and
        # its matrix the identity, not the half turn about x.  2**510 is
        # the largest component taken; the half turn it gives is exact.
        half_turn = np.diag([1.0, -1.0, -1.0])
        assert np.array_equal(quat_to_matrix([2.0**510, 0.0, 0.0, 0.0]), half_turn)
        for q in ([1e200, 0.0, 0.0, 0.0], [0.0, 0.0, -np.nextafter(2.0**510, np.inf), 1.0]):
            with pytest.raises(ValueError, match=r"at most 2\*\*510"):
                quat_normalize(q)
            with pytest.raises(ValueError, match=r"at most 2\*\*510"):
                quat_to_matrix(q)
            with pytest.raises(ValueError, match=r"at most 2\*\*510"):
                RigidTransform(scale=1.0, rotation=q, translation=[0, 0, 0])

    @pytest.mark.parametrize(
        "q, message",
        [
            ([0.0, 0.0, 1.0], "shape"),
            ([0.0, np.nan, 0.0, 1.0], "finite"),
            ([0.0, 0.0, 0.0, np.inf], "finite"),
            ([0.0, 0.0, 0.0, 1e-13], "near-zero"),
        ],
    )
    def test_keeps_the_checks_of_quat_normalize(self, q, message):
        with pytest.raises(ValueError, match=message):
            quat_normalize(q)
        with pytest.raises(ValueError, match=message):
            quat_to_matrix(q)


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
