import itertools

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from boxlift.errors import NonPositiveDepthError
from boxlift.geometry import (
    Box2D,
    Box3D,
    CameraIntrinsics,
    Dimensions,
    are_rotations,
    box_vertices,
    is_rotation,
    project,
    project_box,
    rotated_corners,
    rotation_from_angles,
    rotations_from_angles,
    wrap_angle,
)


def test_wrap_angle_interval():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)  # -pi maps to +pi
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(4.0) == pytest.approx(4.0 - 2 * np.pi)
    arr = wrap_angle(np.array([0.0, 2 * np.pi, -3 * np.pi / 2]))
    assert np.allclose(arr, [0.0, 0.0, np.pi / 2])


def test_wrap_angle_random_in_range():
    rng = np.random.default_rng(0)
    theta = rng.uniform(-50, 50, size=1000)
    wrapped = wrap_angle(theta)
    assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
    assert np.allclose(np.cos(wrapped), np.cos(theta))
    assert np.allclose(np.sin(wrapped), np.sin(theta))


def test_rotation_zero_angles_is_identity():
    assert np.allclose(rotation_from_angles(0.0, 0.0, 0.0), np.eye(3))


def test_rotation_half_turn_flips_horizontal_axes():
    # yaw pi turns the object around the vertical: x and z flip, y stays
    assert np.allclose(
        rotation_from_angles(np.pi, 0.0, 0.0), np.diag([-1.0, 1.0, -1.0]), atol=1e-12
    )


def test_rotation_matches_elementary_product():
    # independent oracle: compose axis rotations with scipy
    yaw, pitch, roll = 0.3, 0.1, -0.2
    oracle = (
        ScipyRotation.from_rotvec([0.0, yaw, 0.0])
        * ScipyRotation.from_rotvec([0.0, 0.0, pitch])
        * ScipyRotation.from_rotvec([roll, 0.0, 0.0])
    ).as_matrix()
    assert np.allclose(rotation_from_angles(yaw, pitch, roll), oracle, atol=1e-12)


def test_rotation_orthonormal_and_yaw_recovery():
    rng = np.random.default_rng(1)
    for _ in range(200):
        yaw, pitch, roll = rng.uniform(-np.pi, np.pi, size=3)
        r = rotation_from_angles(yaw, pitch, roll)
        assert is_rotation(r)


def test_rotations_from_angles_stacks_rotation_from_angles():
    angles = np.random.default_rng(2).uniform(-np.pi, np.pi, size=(12_000, 3))
    angles[:1000, 1] = 0.0  # zero pitch
    angles[1000:2000, 2] = 0.0  # zero roll
    angles[2000:2500, 1:] = 0.0  # yaw only
    specials = [0.0, -0.0, np.pi, -np.pi, np.pi / 2]
    angles = np.concatenate([angles, list(itertools.product(specials, repeat=3))])
    stacked = rotations_from_angles(*angles.T)
    assert stacked.shape == (len(angles), 3, 3)
    scalar = np.array([rotation_from_angles(*a) for a in angles.tolist()])
    assert stacked.tobytes() == scalar.tobytes()
    assert rotations_from_angles([], [], []).shape == (0, 3, 3)


def elementary_product(yaw, pitch, roll):
    """R_yaw @ R_pitch @ R_roll of (N,) angle arrays, one factor stack at a time."""
    (cy, cp, cr), (sy, sp, sr) = np.cos([yaw, pitch, roll]), np.sin([yaw, pitch, roll])
    zero, one = np.zeros_like(cy), np.ones_like(cy)

    def stack(*entries):
        return np.stack(entries, axis=-1).reshape(-1, 3, 3)

    r_yaw = stack(cy, zero, sy, zero, one, zero, -sy, zero, cy)
    r_pitch = stack(cp, -sp, zero, sp, cp, zero, zero, zero, one)
    r_roll = stack(one, zero, zero, zero, cr, -sr, zero, sr, cr)
    return r_yaw @ r_pitch @ r_roll


def test_yaw_only_rotation_is_bit_identical_to_the_product():
    specials = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 3 * np.pi]
    yaws = np.concatenate([specials, np.random.default_rng(3).uniform(-4.0, 4.0, 100_000)])
    product = elementary_product(yaws, 0 * yaws, 0 * yaws)
    # zero pitch and roll, +0.0 or -0.0, build the yaw matrices directly
    for zeros in (0 * yaws, -0 * yaws, np.zeros(len(yaws), dtype=int)):
        assert rotations_from_angles(yaws, zeros, -zeros).tobytes() == product.tobytes()
    direct = np.array([rotation_from_angles(yaw) for yaw in yaws.tolist()])
    assert direct.tobytes() == product.tobytes()
    stacked = np.array([rotation_from_angles(np.array(yaw)) for yaw in yaws[:2000]])  # 0-d yaws
    assert stacked.tobytes() == product[:2000].tobytes()
    assert not np.signbit(direct[:2]).any()  # yaw = -0.0 gives +0.0 entries, as the product does
    # a NaN yaw, and a nonzero or NaN pitch or roll, take the product
    for yaw, pitch, roll in ((np.nan, 0.0, 0.0), (0.3, 1e-300, 0.0), (0.3, 0.0, np.nan)):
        angles = np.array([[0.5, 0.0, 0.0], [yaw, pitch, roll]]).T
        got, expected = rotations_from_angles(*angles), elementary_product(*angles)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.signbit(got).tolist() == np.signbit(expected).tolist()
    assert np.isnan(rotations_from_angles([np.nan], [0.0], [0.0])[0, 0, 1])  # 0 * NaN


def test_are_rotations_follows_its_documented_rule():
    # R^T R within np.allclose(rtol=1e-5, atol=1e-9) of the identity, and
    # |det R - 1| <= 1e-9, checked one matrix at a time
    rng = np.random.default_rng(4)

    def rotations(n):
        return rotations_from_angles(*rng.uniform(-np.pi, np.pi, size=(3, n)))

    def scales(n, lo, hi):  # log-uniform magnitudes in [lo, hi], random signs
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), n)

    perturbed = rotations(4000) + scales(4000, 1e-12, 1e-6)[:, None, None] * rng.normal(size=(4000, 3, 3))
    reflections = rotations(1500) * rng.choice([[1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]], 1500)[:, None, :]
    reflections[:500] += 1e-10 * rng.normal(size=(500, 3, 3))
    scaled = rotations(1500) * (1.0 + scales(1500, 1e-12, 1e-4))[:, None, None]
    broken = rotations(1000)
    broken.reshape(-1, 9)[np.arange(1000), rng.integers(0, 9, 1000)] = rng.choice([np.nan, np.inf, -np.inf], 1000)
    matrices = np.concatenate([rotations(1000), perturbed, reflections, scaled, broken, rng.normal(size=(1000, 3, 3))])

    def reference(m):
        with np.errstate(all="ignore"):
            return np.allclose(m.T @ m, np.eye(3), rtol=1e-5, atol=1e-9) and abs(np.linalg.det(m) - 1.0) <= 1e-9

    expected = np.array([reference(m) for m in matrices])
    assert are_rotations(matrices).tolist() == expected.tolist()
    assert [is_rotation(m) for m in matrices[::10]] == expected[::10].tolist()
    # exact rotations pass; reflections, NaN, inf and random matrices fail
    assert expected[:1000].all() and not expected[5000:6500].any() and not expected[8000:].any()
    # the perturbed and scaled ones fall on both sides of the bound
    assert 1000 < np.count_nonzero(expected[1000:5000]) < 3000
    assert 300 < np.count_nonzero(expected[6500:8000]) < 1200


def test_box_vertices_unit_half_extents():
    v = box_vertices(Dimensions(2.0, 2.0, 2.0))
    assert v.shape == (8, 3)
    assert np.allclose(np.abs(v), 1.0)
    assert len({tuple(row) for row in np.sign(v)}) == 8


def test_box_vertices_order():
    v = box_vertices(Dimensions(4.0, 2.0, 1.8))
    assert np.allclose(v[0], [2.0, 1.0, 0.9])  # first vertex all-positive
    assert np.allclose(v[1], [-2.0, 1.0, 0.9])  # x sign alternates fastest
    assert np.allclose(v[2], [2.0, -1.0, 0.9])
    assert np.allclose(v[7], [-2.0, -1.0, -0.9])


def test_rotated_corners_are_box3d_corners_about_the_center():
    rng = np.random.default_rng(5)
    boxes = [
        Box3D(rng.uniform(-5, 5, 3), Dimensions(*rng.uniform(0.5, 5, 3)), *rng.uniform(-np.pi, np.pi, 3))
        for _ in range(50)
    ]
    extents = np.array([box.dims.as_array for box in boxes])
    corners = rotated_corners(extents, np.array([box.rotation for box in boxes]))
    assert corners.shape == (50, 8, 3)
    for box, box_corners in zip(boxes, corners):
        assert np.allclose(box_corners + box.center, box.corners(), atol=1e-12)


def test_box_vertices_sum_to_origin():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dims = Dimensions(*rng.uniform(0.1, 5.0, size=3))
        assert np.allclose(box_vertices(dims).sum(axis=0), 0.0)


def test_project_point_on_optical_axis():
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    uv = project(k, np.eye(3), np.array([0.0, 0.0, 2.0]), np.zeros(3))
    assert np.allclose(uv, [0.0, 0.0])


def test_project_pinhole_formula():
    k = CameraIntrinsics(fx=2.0, fy=2.0, cx=10.0, cy=20.0)
    uv = project(k, np.eye(3), np.array([1.0, 1.0, 2.0]), np.zeros(3))
    assert np.allclose(uv, [11.0, 21.0])


def test_project_matches_homogeneous_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = CameraIntrinsics(
            fx=rng.uniform(100, 1500),
            fy=rng.uniform(100, 1500),
            cx=rng.uniform(-50, 700),
            cy=rng.uniform(-50, 400),
            skew=rng.uniform(-5, 5),
        )
        r = rotation_from_angles(*rng.uniform(-np.pi, np.pi, size=3))
        t = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(5, 60)])
        x = rng.uniform(-2, 2, size=3)
        cam = r @ x + t
        if cam[2] <= 1e-3:
            continue
        # oracle: explicit 3x4 homogeneous projection and division
        p = k.matrix @ np.concatenate([r, t[:, None]], axis=1) @ np.append(x, 1.0)
        assert np.allclose(project(k, r, t, x), p[:2] / p[2], atol=1e-12)


def test_project_scale_invariance_of_homogeneous_vector():
    k = CameraIntrinsics(fx=700.0, fy=710.0, cx=600.0, cy=180.0)
    r = rotation_from_angles(0.4)
    t = np.array([1.0, 0.5, 15.0])
    x = np.array([0.7, -0.2, 0.3])
    p = k.matrix @ (r @ x + t)
    for scale in (0.5, 3.0, 1e6):
        q = scale * p
        assert np.allclose(q[:2] / q[2], p[:2] / p[2])


def test_project_behind_camera_raises():
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    with pytest.raises(NonPositiveDepthError):
        project(k, np.eye(3), np.array([0.0, 0.0, -2.0]), np.zeros(3))
    with pytest.raises(NonPositiveDepthError):
        project(k, np.eye(3), np.zeros(3), np.zeros(3))  # depth exactly 0


def test_project_box_symmetric_about_principal_point():
    k = CameraIntrinsics(fx=700.0, fy=700.0, cx=321.0, cy=123.0)
    box = Box3D(np.array([0.0, 0.0, 12.0]), Dimensions(4.0, 1.5, 1.8), yaw=0.0)
    rect = project_box(k, box)
    assert rect.x_min + rect.x_max == pytest.approx(2 * k.cx)
    assert rect.y_min + rect.y_max == pytest.approx(2 * k.cy)


def test_project_box_contains_every_vertex():
    rng = np.random.default_rng(4)
    k = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
    for _ in range(100):
        box = Box3D(
            center=np.array(
                [rng.uniform(-8, 8), rng.uniform(-3, 3), rng.uniform(8, 50)]
            ),
            dims=Dimensions(*rng.uniform(0.5, 4.0, size=3)),
            yaw=rng.uniform(-np.pi, np.pi),
            pitch=rng.uniform(-0.3, 0.3),
            roll=rng.uniform(-0.3, 0.3),
        )
        rect = project_box(k, box)
        uv = project(k, box.rotation, box.center, box_vertices(box.dims))
        eps = 1e-9
        assert np.all(uv[:, 0] >= rect.x_min - eps) and np.all(uv[:, 0] <= rect.x_max + eps)
        assert np.all(uv[:, 1] >= rect.y_min - eps) and np.all(uv[:, 1] <= rect.y_max + eps)


def test_project_box_shrinks_with_dimensions():
    k = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
    center = np.array([1.0, 0.5, 20.0])
    prev_width, prev_height = np.inf, np.inf
    for scale in (1.0, 0.7, 0.4, 0.2):
        box = Box3D(center, Dimensions(4.0 * scale, 1.5 * scale, 1.8 * scale), yaw=0.6)
        rect = project_box(k, box)
        assert rect.width < prev_width and rect.height < prev_height
        prev_width, prev_height = rect.width, rect.height


def test_project_box_raises_when_any_vertex_behind():
    k = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
    box = Box3D(np.array([0.0, 0.0, 1.0]), Dimensions(1.0, 1.0, 4.0), yaw=0.0)
    with pytest.raises(NonPositiveDepthError):
        project_box(k, box)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1.0, fy=-2.0, cx=0.0, cy=0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=np.nan, cy=0.0)
    k = CameraIntrinsics(fx=2.0, fy=3.0, cx=4.0, cy=5.0, skew=0.5)
    assert np.allclose(k.matrix, [[2.0, 0.5, 4.0], [0.0, 3.0, 5.0], [0.0, 0.0, 1.0]])


def test_dimensions_validation():
    with pytest.raises(ValueError):
        Dimensions(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Dimensions(1.0, -1.0, 1.0)
    assert Dimensions(2.0, 3.0, 4.0).volume == pytest.approx(24.0)


def test_box2d_validation():
    with pytest.raises(ValueError):
        Box2D(5.0, 0.0, 5.0, 10.0)  # zero width
    with pytest.raises(ValueError):
        Box2D(0.0, 10.0, 5.0, 10.0)  # zero height
    with pytest.raises(ValueError):
        Box2D(6.0, 0.0, 5.0, 10.0)  # inverted
    rect = Box2D(1.0, 2.0, 4.0, 10.0)
    assert rect.width == 3.0 and rect.height == 8.0
    assert np.allclose(rect.center, [2.5, 6.0])


def test_box3d_wraps_angles():
    box = Box3D(np.zeros(3), Dimensions(1, 1, 1), yaw=3 * np.pi, pitch=-np.pi, roll=4.0)
    assert box.yaw == pytest.approx(np.pi)
    assert box.pitch == pytest.approx(np.pi)
    assert box.roll == pytest.approx(4.0 - 2 * np.pi)
