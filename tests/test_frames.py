import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import methane_graph, water_graph
from mjae import frames
from mjae.evalsuite import random_rotation
from mjae.frames import molecule_frames

SQ2 = np.sqrt(2.0)


def test_hand_example():
    # atom 0 at (1, 0, 0) with its one neighbor at (0, 1, 0)
    f = molecule_frames(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))[0]
    assert np.allclose(f[0], [1 / SQ2, -1 / SQ2, 0.0])
    assert np.allclose(f[1], [0.0, 0.0, -1.0])
    assert np.allclose(f[2], [1 / SQ2, 1 / SQ2, 0.0])


def test_rotation_equivariance(rng):
    # clouds off their center of mass: the axes still rotate with the cloud
    for _ in range(20):
        pos = rng.standard_normal((5, 3))
        base = molecule_frames(pos)
        for _ in range(20):
            r = random_rotation(rng)
            rot = molecule_frames(pos @ r.T)
            assert np.abs(rot - base @ r.T).max() < 1e-5


def test_point_reflection_axis_pattern(rng):
    pos = rng.standard_normal((4, 3))
    for base, refl in zip(molecule_frames(pos), molecule_frames(-pos)):
        assert np.allclose(refl[0], -base[0], atol=1e-12)
        assert np.allclose(refl[1], base[1], atol=1e-12)
        assert np.allclose(refl[2], -base[2], atol=1e-12)
        # the frame does NOT transform as a plain sign flip (that would be
        # reflection equivariance); both frames stay right-handed
        assert np.abs(refl + base).max() > 0.1
        assert np.linalg.det(refl) > 0 and np.linalg.det(base) > 0


def test_degenerate_fallback():
    # atom 0 at its neighborhood center
    f = molecule_frames(np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]]))[0]
    assert np.allclose(f, np.eye(3))
    # atom 0 collinear with its neighbor center through the origin (the cross
    # product vanishes)
    f = molecule_frames(np.array([[2.0, 0, 0], [1.0, 0, 0]]))[0]
    assert np.allclose(f, np.eye(3))


def test_orthonormality_everywhere(rng):
    for _ in range(100):
        pos = rng.standard_normal((rng.integers(2, 7), 3))
        for f in molecule_frames(pos):
            assert np.abs(f @ f.T - np.eye(3)).max() < 1e-6


def test_molecule_frames_nondegenerate_on_centered_clouds(rng):
    # centered clouds inside the cutoff must still get informative frames
    for _ in range(20):
        pos = rng.standard_normal((6, 3))
        pos -= pos.mean(axis=0)
        frames = molecule_frames(pos)
        canonical = sum(np.allclose(f, np.eye(3)) for f in frames)
        assert canonical == 0


def test_molecule_frames_rotation_equivariance(rng):
    pos = rng.standard_normal((7, 3))
    pos -= pos.mean(axis=0)
    base = molecule_frames(pos)
    for _ in range(20):
        r = random_rotation(rng)
        rot = molecule_frames(pos @ r.T)
        for fb, fr in zip(base, rot):
            assert np.abs(fr - fb @ r.T).max() < 1e-5


def test_molecule_frames_single_atom():
    frames = molecule_frames(np.zeros((1, 3)))
    assert np.allclose(frames[0], np.eye(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_frames_always_orthonormal_property(seed):
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((4, 3))
    for m in molecule_frames(pos):
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-6
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-6


def _unit(v):
    norm = np.linalg.norm(v)
    return None if norm < frames.DEGENERACY_EPS else v / norm


def _local_frame(x_i, neighbors, weights):
    """One atom's frame from its neighbors and their weights, with the
    canonical fallback when either axis vanishes."""
    center = (weights[:, None] * neighbors).sum(axis=0) / weights.sum()
    e1 = _unit(x_i - center)
    e2 = _unit(np.cross(center, x_i))
    if e1 is None or e2 is None:
        return np.eye(3)
    return np.stack([e1, e2, np.cross(e1, e2)])


def _per_atom_frames(positions, cutoff=5.0):
    """Loop reference: one ``_local_frame`` call per atom with exp(-d) weights."""
    n = positions.shape[0]
    dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    out = []
    for i in range(n):
        mask = dists[i] <= cutoff
        mask[i] = False
        if not mask.any():
            mask = np.arange(n) != i
        out.append(_local_frame(positions[i], positions[mask], np.exp(-dists[i][mask])))
    return out


def test_molecule_frames_match_per_atom_reference(rng):
    # sizes and spreads mix atoms inside the cutoff with atoms whose ball is empty
    for _ in range(200):
        n = int(rng.integers(2, 15))
        pos = rng.standard_normal((n, 3)) * rng.choice([0.5, 1.0, 3.0, 6.0])
        pos -= pos.mean(axis=0)
        got = molecule_frames(pos)
        want = np.stack(_per_atom_frames(pos))
        assert np.abs(got - want).max() < 1e-12


def test_molecule_frames_bitwise_to_np_cross(rng, monkeypatch):
    """The row-wise cross products give np.cross's bits, on random clouds and
    on degenerate ones (a line through the origin, a centered pair,
    coincident atoms, water and methane)."""
    clouds = [rng.standard_normal((n, 3)) * scale
              for n in (2, 3, 9, 33) for scale in (0.5, 3.0)]
    clouds += [np.array([[-2.0, 0, 0], [-0.5, 0, 0], [1.0, 0, 0], [1.5, 0, 0]]),
               np.array([[0.0, 0, 0.7], [0.0, 0, -0.7]]), np.zeros((4, 3)),
               water_graph().positions, methane_graph().positions]
    got = [molecule_frames(pos) for pos in clouds]
    a, b = rng.standard_normal((2, 40, 3))
    assert np.array_equal(frames._cross_rows(a, b), np.cross(a, b))
    monkeypatch.setattr(frames, "_cross_rows", np.cross)
    for pos, frame in zip(clouds, got):
        assert np.array_equal(frame, molecule_frames(pos))


def test_molecule_frames_canonical_fallbacks():
    # single atom, a centered pair, and a line through the origin: every
    # atom's neighbor center is collinear with it, so every frame is canonical
    line = np.array([[-2.0, 0, 0], [-0.5, 0, 0], [1.0, 0, 0], [1.5, 0, 0]])
    for pos in (np.zeros((1, 3)), np.array([[0.0, 0, 0.7], [0.0, 0, -0.7]]), line):
        for f in molecule_frames(pos):
            assert np.array_equal(f, np.eye(3))


def test_molecule_frames_far_beyond_cutoff_stay_finite(rng):
    # at 1000x spread every exp(-d) underflows to 0, and the center was 0/0
    pos = rng.standard_normal((8, 3))
    pos -= pos.mean(axis=0)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        m = molecule_frames(1000.0 * pos)
    assert np.all(np.isfinite(m))
    assert np.abs(m @ m.transpose(0, 2, 1) - np.eye(3)).max() < 1e-12
    assert np.allclose(np.linalg.det(m), 1.0, atol=1e-12)
    assert not any(np.array_equal(f, np.eye(3)) for f in m)
