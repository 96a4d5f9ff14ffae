"""The box-pruned crossing search against a plain pair loop."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geomflow.csf import make_concinnous_eight, self_intersection  # noqa: E402
from geomflow.errors import TopologyError  # noqa: E402


def brute_force_crossing(P):
    """Every segment pair (i, j), i < j and not neighbours, in row-major order,
    with the same crossing formulas and the same merge of coinciding hits."""
    n = P.shape[0]
    pts = [(float(x), float(y)) for x, y in P]
    found = []
    for i in range(n):
        px, py = pts[i]
        rx, ry = pts[(i + 1) % n][0] - px, pts[(i + 1) % n][1] - py
        for j in range(i + 2, min(n, i + n - 1)):
            qx, qy = pts[j]
            sx, sy = pts[(j + 1) % n][0] - qx, pts[(j + 1) % n][1] - qy
            denom = rx * sy - ry * sx
            if denom == 0.0:
                continue
            dqx, dqy = qx - px, qy - py
            t = (dqx * sy - dqy * sx) / denom
            u = (dqx * ry - dqy * rx) / denom
            if 0.0 < t < 1.0 and 0.0 < u < 1.0:
                found.append((i, j, P[i] + t * (P[(i + 1) % n] - P[i])))
    if not found:
        raise TopologyError("no self-intersection found")
    scale = math.sqrt(np.max(np.sum((P - P.mean(axis=0)) ** 2, axis=1)))
    clusters = []
    for hit in found:
        if all(np.linalg.norm(hit[2] - other[2]) >= 1e-6 * scale for other in clusters):
            clusters.append(hit)
    if len(clusters) > 1:
        raise TopologyError(f"more than one crossing: {len(clusters)} distinct")
    return clusters[0]


def placed(P, seed, log_amplitude, start, angle):
    """P perturbed, rotated and with its first sample moved, so that its
    crossings fall anywhere in the runs of the search."""
    P = P + 10.0 ** log_amplitude * np.random.default_rng(seed).standard_normal(P.shape)
    c, s = math.cos(angle), math.sin(angle)
    return np.roll(P @ np.array([[c, s], [-s, c]]), start % P.shape[0], axis=0)


def perturbed_eight(n, seed, log_amplitude, start, angle):
    """A placed eight of n points; an eight takes a multiple of 4 points, so
    the extra ones are dropped from a lobe."""
    m = -(-n // 4)
    P = np.delete(make_concinnous_eight(1.0, n_points=4 * m).points,
                  np.arange(m // 2, m // 2 + 4 * m - n), axis=0)
    assert P.shape == (n, 2)
    return placed(P, seed, log_amplitude, start, angle)


placements = dict(seed=st.integers(0, 2**32 - 1), log_amplitude=st.floats(-6.0, -1.5),
                  start=st.integers(0, 1023), angle=st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([128, 130, 200, 257, 300, 512, 1024]), **placements)
def test_matches_brute_force_pair_loop(n, seed, log_amplitude, start, angle):
    # 130 and 257 end in a partial run; at 512 and 1024 each side of the
    # crossing holds many runs
    P = perturbed_eight(n, seed, log_amplitude, start, angle)
    try:
        expected = brute_force_crossing(P)
    except TopologyError:
        with pytest.raises(TopologyError):
            self_intersection(P)
        return
    i, j, pt = self_intersection(P)
    assert (i, j) == expected[:2]
    assert np.array_equal(pt, expected[2])


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([128, 200, 512, 1024]), **placements)
def test_two_crossings_are_refused(n, seed, log_amplitude, start, angle):
    # (cos t, sin 3t) crosses itself at (0.5, 0) and (-0.5, 0); on the finest
    # meshes the largest perturbations can zigzag a few short edges into a
    # third crossing, which the plain loop finds too
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    P = placed(np.column_stack([np.cos(t), np.sin(3.0 * t)]), seed, min(log_amplitude, -3.0),
               start, angle)
    with pytest.raises(TopologyError, match="more than one") as plain:
        brute_force_crossing(P)
    count = int(str(plain.value).split(": ")[1].split()[0])
    assert count >= 2
    with pytest.raises(TopologyError, match=f"found {count} distinct"):
        self_intersection(P)


def _zigzag(P, k, pt, across):
    """P with two vertices put after vertex k, 1e-9 to either side of ``pt``
    across the direction ``across``, in the order that makes segment k and
    the two new ones each cross the line through ``pt`` along ``across``."""
    normal = np.array([-across[1], across[0]]) / np.linalg.norm(across)
    side = math.copysign(1.0, float(np.dot(P[k] - pt, normal)))
    zig = [pt - side * 1e-9 * normal, pt + side * 1e-9 * normal]
    return np.insert(P, k + 1, zig, axis=0)


@pytest.mark.parametrize("n", [128, 512, 1024])
@pytest.mark.parametrize("start", [0, 3, 7, 8, 61])
@pytest.mark.parametrize("strand", ["first", "second"])
def test_crossing_at_vertices_merges_into_first_hit(n, start, strand):
    # one strand zigzags across the other at two vertices within 1e-9 of
    # the crossing: three hits, in consecutive segments of that strand,
    # which merge into the first in (i, j) order
    P = np.roll(make_concinnous_eight(1.0, n_points=n).points, start, axis=0)
    i, j, pt = self_intersection(P)
    E = np.roll(P, -1, axis=0) - P
    if strand == "first":
        Z, expected = _zigzag(P, i, pt, E[j]), (i, j + 2)
        hits = [(i + d, j + 2) for d in range(3)]
    else:
        Z, expected = _zigzag(P, j, pt, E[i]), (i, j)
        hits = [(i, j + d) for d in range(3)]
    gi, gj, point = self_intersection(Z)
    assert (gi, gj) == expected
    # the point is the first hit's, on segment gi: within 1e-8 of pt
    assert np.linalg.norm(point - pt) < 1e-8
    # every one of the three hits is a proper crossing
    for a, b in hits:
        r, s = Z[a + 1] - Z[a], Z[b + 1] - Z[b]
        denom = r[0] * s[1] - r[1] * s[0]
        q = Z[b] - Z[a]
        t = (q[0] * s[1] - q[1] * s[0]) / denom
        u = (q[0] * r[1] - q[1] * r[0]) / denom
        assert 0.0 < t < 1.0 and 0.0 < u < 1.0
    if n == 128:
        expected_hit = brute_force_crossing(Z)
        assert (gi, gj) == expected_hit[:2] and np.array_equal(point, expected_hit[2])
