"""Convex bodies, disk sections, MVEE and abstract linear spans."""

import hashlib
import warnings

import numpy as np
import pytest

from bombon import convexity, oracles
from bombon.convexity import (AffineComplexLine, ConvexBodyOracle, DiskTag,
                              abstract_line_points, ball_body,
                              disk_section_test, disk_sections,
                              ellipsoid_body, linear_closure, mvee_complex,
                              polydisk_body)
from bombon.errors import DegenerateSpan, NotOnSphere, OracleInconsistent
from bombon.linalg import max_abs, sym
from bombon.suite import mvee_violation


def test_ball_membership():
    body = ball_body(2)
    assert body.inside(np.array([0.5, 0.0], dtype=complex))
    assert body.inside(np.array([0.0, 1.0], dtype=complex))
    assert not body.inside(np.array([0.8, 0.8], dtype=complex))
    batch = body.inside(np.array([[0.1, 0.1], [2.0, 0.0]], dtype=complex))
    assert list(batch) == [True, False]


def test_ellipsoid_body_validates():
    with pytest.raises(ValueError):
        ellipsoid_body(np.zeros(2, dtype=complex), np.diag([1.0, -1.0]))
    body = ellipsoid_body(np.zeros(2, dtype=complex), np.diag([1.0, 4.0]))
    assert body.inside(np.array([0.0, 0.5], dtype=complex))
    assert not body.inside(np.array([0.0, 0.6], dtype=complex))


def test_affine_line_normalizes_direction():
    line = AffineComplexLine(np.zeros(2, dtype=complex),
                             np.array([3.0, 0.0], dtype=complex))
    assert np.linalg.norm(line.direction) == pytest.approx(1.0)
    # scalar parameter gives a single row
    assert np.allclose(line.at(2.0), [[2.0, 0.0]])
    assert line.at(np.array([1.0, 2.0])).shape == (2, 2)
    with pytest.raises(ValueError):
        AffineComplexLine(np.zeros(2), np.zeros(2))


def test_disk_section_ellipsoid_frozen():
    body = ellipsoid_body(np.zeros(2, dtype=complex), np.diag([1.0, 4.0]))
    line = AffineComplexLine(np.array([0.0, 0.3], dtype=complex),
                             np.array([1.0, 0.0], dtype=complex))
    v = disk_section_test(body, line, rng=np.random.default_rng(0))
    assert v.tag is DiskTag.DISK
    assert abs(v.center) < 1e-3
    assert v.radius == pytest.approx(0.8, abs=1e-3)


def test_disk_section_empty_and_point():
    body = ball_body(2)
    far = AffineComplexLine(np.array([5.0, 0.0], dtype=complex),
                            np.array([0.0, 1.0], dtype=complex))
    assert disk_section_test(body, far).tag is DiskTag.EMPTY
    tangent = AffineComplexLine(np.array([1.0, 0.0], dtype=complex),
                                np.array([0.0, 1.0], dtype=complex))
    v = disk_section_test(body, tangent, rng=np.random.default_rng(1))
    assert v.tag is DiskTag.POINT


def test_bidisk_lens_detected():
    body = polydisk_body((1.0, 1.0))
    line = AffineComplexLine(np.array([0.5, 0.0], dtype=complex),
                             np.array([1.0, 1.0], dtype=complex))
    v = disk_section_test(body, line, rng=np.random.default_rng(2))
    assert v.tag is DiskTag.NOT_A_DISK
    assert v.deviation > 1e-3


def test_bidisk_centered_line_is_disk():
    # through the center every coordinate bound is a centered disk
    body = polydisk_body((1.0, 1.0))
    line = AffineComplexLine(np.zeros(2, dtype=complex),
                             np.array([1.0, 1.0], dtype=complex))
    v = disk_section_test(body, line, rng=np.random.default_rng(3))
    assert v.tag is DiskTag.DISK
    assert v.radius == pytest.approx(np.sqrt(2.0), rel=1e-3)


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ellipsoid_corpus(rng, count):
    # (body, line, exact) of ellipsoid lines in C^2 and C^3 that are
    # clearly empty (exact None) or cut a disk exact = (center, radius)
    # of radius above four pitches 2R / _GRID: with e = base - c and the
    # unit direction d, the section is |t - center| <= radius, where
    # a = d*Hd, b = d*He, low = e*He - |b|^2 / a, center = -b / a and
    # radius = sqrt((1 - low) / a)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 4))
        m = _cgauss(rng, n, n)
        h = m @ m.conj().T + 0.3 * np.eye(n)
        c = 0.3 * _cgauss(rng, n)
        body = ellipsoid_body(c, h)
        line = AffineComplexLine(0.8 * _cgauss(rng, n), _cgauss(rng, n))
        d, e = line.direction, line.base - c
        a = float(np.real(np.vdot(d, h @ d)))
        b = complex(np.vdot(d, h @ e))
        low = float(np.real(np.vdot(e, h @ e))) - abs(b) ** 2 / a
        pitch = 2.0 * body.bounding_radius / convexity._GRID
        if low > 1.1:
            out.append((body, line, None))
        elif low < 0.8 and np.sqrt((1.0 - low) / a) > 4.0 * pitch:
            out.append((body, line, (-b / a, float(np.sqrt((1.0 - low) / a)))))
    return out


def test_ellipsoid_sections_match_exact_disks():
    corpus = _ellipsoid_corpus(np.random.default_rng(211), 200)
    assert sum(exact is not None for _, _, exact in corpus) >= 30
    for k, (body, line, exact) in enumerate(corpus):
        v = disk_section_test(body, line, rng=np.random.default_rng(k))
        if exact is None:
            assert v.tag is DiskTag.EMPTY, k
            continue
        center, radius = exact
        assert v.tag is DiskTag.DISK, k
        assert abs(v.center - center) <= 1e-6 * radius, k
        assert abs(v.radius - radius) <= 1e-6 * radius, k
        assert v.deviation <= 1e-6


def _bidisk_corpus(rng, count):
    # (line, tag) of unit-bidisk lines: |base_i + t dir_i| <= 1 is the
    # disk about -base_i / dir_i of radius 1 / |dir_i| in the t-plane,
    # and the section is the meet of the two disks: the smaller one
    # inside the other, the two apart, or a lens well away from both
    pitch = 2.0 * np.sqrt(2.0) / convexity._GRID
    out = []
    while len(out) < count:
        line = AffineComplexLine(0.5 * _cgauss(rng, 2), _cgauss(rng, 2))
        (c1, r1), (c2, r2) = sorted(
            ((-line.base[i] / line.direction[i], 1.0 / abs(line.direction[i]))
             for i in (0, 1)), key=lambda disk: disk[1])
        dist = abs(c1 - c2)
        if r1 < 4.0 * pitch:
            continue
        if dist + r1 < r2 - 0.05 * r1:
            out.append((line, DiskTag.DISK))
        elif dist > r1 + r2 + 0.05 * r1:
            out.append((line, DiskTag.EMPTY))
        elif r2 - r1 + 0.2 * r1 < dist < r1 + r2 - 0.5 * r1:
            out.append((line, DiskTag.NOT_A_DISK))
    return out


def test_bidisk_sections_match_their_shape():
    corpus = _bidisk_corpus(np.random.default_rng(223), 120)
    body = polydisk_body((1.0, 1.0))
    got = disk_sections(body, [line for line, _ in corpus])
    assert [v.tag for v in got] == [tag for _, tag in corpus]
    assert {tag for _, tag in corpus} == set(DiskTag) - {DiskTag.POINT}


def _lens_corpus(rng, count):
    # (line, p, (c1, r1, c2, r2)) of unit-bidisk lines, drawn as in
    # _bidisk_corpus, whose section is a lens: the smaller disk (c1, r1)
    # of the t-plane pokes out of the larger (c2, r2) by
    # dist + r1 - r2 = p r1 with 0 < p < 3%
    out = []
    while len(out) < count:
        base, d = 0.5 * _cgauss(rng, 4096, 2), _cgauss(rng, 4096, 2)
        c, r = -base / d, 1.0 / np.abs(d)
        order = np.argsort(r, axis=1)
        (c1, c2), (r1, r2) = (np.take_along_axis(c, order, 1).T,
                              np.take_along_axis(r, order, 1).T)
        p = (np.abs(c1 - c2) + r1 - r2) / r1
        out += [(AffineComplexLine(base[k], d[k]), p[k],
                 (c1[k], r1[k], c2[k], r2[k]))
                for k in np.flatnonzero((p > 0.0) & (p < 0.03))]
    return out[:count]


def _lens_deviation(c1, r1, c2, r2, k=4096):
    # largest | |t - c| - R | / R over the lens boundary, k points of each
    # circle kept where inside the other disk, for the least-squares
    # circle (c, R) through them: a bound on how far the lens is from
    # being a disk
    t = np.exp(2j * np.pi * np.arange(k) / k)
    a, b = c1 + r1 * t, c2 + r2 * t
    pts = np.concatenate([a[np.abs(a - c2) <= r2], b[np.abs(b - c1) <= r1]])
    m = np.column_stack([pts.real, pts.imag, np.ones(pts.size)])
    u, v, w = np.linalg.lstsq(m, np.abs(pts) ** 2, rcond=None)[0]
    center = complex(u, v) / 2.0
    radius = np.sqrt(w + abs(center) ** 2)
    return float(np.max(np.abs(np.abs(pts - center) - radius))) / radius


def test_lens_protrusion_bound():
    # The measured lens bound of disk_section_test at tol 1e-3 with 64
    # rays: every lens whose small disk pokes out by p > 2 tol of its
    # radius reads not_a_disk.  The worst lens of this corpus read as a
    # disk pokes out 1.5e-3.  A lens of two nearly equal disks lies
    # within about p / pi of a circle, so it may read disk at a larger
    # p, and rightly: it is excepted only when its exact boundary is
    # within tol of a circle.
    tol = 1e-3
    corpus = _lens_corpus(np.random.default_rng(239), 1000)
    got = disk_sections(polydisk_body((1.0, 1.0)),
                        [line for line, _, _ in corpus], tol=tol)
    wide = [(v.tag, disks) for v, (_, p, disks) in zip(got, corpus)
            if p > 2.0 * tol]
    assert len(wide) >= 500
    for tag, disks in wide:
        assert tag is DiskTag.NOT_A_DISK or _lens_deviation(*disks) <= tol
    # lenses within tol of their small disk read disk
    assert all(v.tag is DiskTag.DISK
               for v, (_, p, _) in zip(got, corpus) if p <= tol)


def test_disk_sections_equal_single_lines():
    # lines of one body share labels calls; each verdict is the one its
    # line gets alone, bit for bit
    rng = np.random.default_rng(227)
    lines = [line for line, _ in _bidisk_corpus(rng, 90)]
    bidisk = polydisk_body((1.0, 1.0))
    ell = ellipsoid_body(0.2 * _cgauss(rng, 3), np.diag([1.0, 2.0, 3.0]))
    lines3 = [AffineComplexLine(0.6 * _cgauss(rng, 3), _cgauss(rng, 3))
              for _ in range(40)]
    for body, batch in ((bidisk, lines), (ell, lines3)):
        got = disk_sections(body, batch, rng=np.random.default_rng(1))
        want = [disk_section_test(body, line, rng=np.random.default_rng(1))
                for line in batch]
        assert got == want
    assert len({v.tag for v in got}) >= 2


def test_disk_section_tags_pinned():
    # the tags of 500 ellipsoid and 500 bidisk lines, as computed with
    # the complex-arithmetic points and values before the real kernels
    rng = np.random.default_rng(1009)
    tags = [disk_section_test(body, line, rng=np.random.default_rng(k)).tag
            for k, (body, line, _) in enumerate(_ellipsoid_corpus(rng, 500))]
    tags += [v.tag for v in disk_sections(
        polydisk_body((1.0, 1.0)),
        [line for line, _ in _bidisk_corpus(rng, 500)],
        rng=np.random.default_rng(0))]
    text = " ".join(tag.value for tag in tags)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "21640db73df2a2efb93293e950eb8c24edbbf8e54e139b56463c3d876335ce8d")


def test_ball_sections_from_its_form_match_membership():
    # A ball of positive radius labels its chart lines from its form
    # [[|c|^2 - r^2, -c*], [-c, I]]; its sections get the tags of the
    # same ball labelled by membership alone, with centers and radii to
    # 1e-9 of the radius.  A radius whose square is 0 or overflows keeps
    # no form.
    rng = np.random.default_rng(277)
    for n, radius in ((1, 1.0), (2, 0.7), (3, 2.5)):
        ball = ball_body(n, radius, 0.3 * _cgauss(rng, n))
        assert ball._chart_form is not None
        plain = ConvexBodyOracle(ball.membership, ball.bounding_radius, n)
        lines = [AffineComplexLine(0.5 * _cgauss(rng, n), _cgauss(rng, n))
                 for _ in range(30)]
        got = disk_sections(ball, lines, rng=np.random.default_rng(0))
        want = disk_sections(plain, lines, rng=np.random.default_rng(0))
        assert [v.tag for v in got] == [v.tag for v in want]
        assert sum(v.tag is DiskTag.DISK for v in got) > 10
        for v, w in zip(got, want):
            assert abs(v.center - w.center) <= 1e-9 * radius
            assert abs(v.radius - w.radius) <= 1e-9 * radius
    for radius in (0.0, 1e-200, 1e200):
        assert ball_body(2, radius)._chart_form is None


def test_chart_oracle_row_at_infinity_is_outside_without_warning():
    oracle = convexity._chart_oracle(ball_body(2))
    pts = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.5, 0.0],
                    [1.0, 3.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle.labels(pts).tolist() == [-1, -1, 1, -1]
    assert oracle.side(pts).dtype == np.int8


def test_ellipsoid_chart_line_labels_equal_point_labels():
    # An ellipsoid's chart oracle labels a line's rows from the line's
    # 2x2 restriction of its homogeneous form, and each label is that of
    # the row's point, which membership decides: sampled lines, lines
    # tangent to the ellipsoid, lines through the point at infinity
    # (the row [1, 0]) and a line at infinity; both grids and ray rows.
    rng = np.random.default_rng(229)
    grids = (np.vstack([oracles.cp1_grid(oracles._GRID), [[1.0, 0.0]]]),
             oracles.cp1_grid(oracles._STAGE2))
    seen = set()
    for n in (1, 2, 3, 4):
        m = _cgauss(rng, n, n)
        h = m @ m.conj().T + 0.3 * np.eye(n)
        c = 0.3 * _cgauss(rng, n)
        body = ellipsoid_body(c, h)
        oracle = convexity._chart_oracle(body)
        bases = [_cgauss(rng, n + 1, 2) for _ in range(3)]
        for _ in range(3):
            # x0 on the boundary and d in its complex tangent hyperplane:
            # the line x0 + t d meets the body in x0 alone
            u = _cgauss(rng, n)
            x0 = c + np.linalg.solve(np.linalg.cholesky(h).conj().T,
                                     u / np.sqrt(np.vdot(u, h @ u).real))
            g = h @ (x0 - c)
            d = _cgauss(rng, n)
            d -= g * (np.vdot(g, d) / np.vdot(g, g))
            tangent = np.column_stack([np.append(1.0, x0), np.append(0.0, d)])
            bases.append(tangent @ _cgauss(rng, 2, 2))
        bases.append(np.column_stack([np.append(0.0, _cgauss(rng, n)),
                                      np.append(1.0, _cgauss(rng, n))]))
        bases.append(np.vstack([np.zeros((1, 2)), _cgauss(rng, n, 2)]))
        bases = np.array(bases)
        ang = np.exp(2j * np.pi * np.arange(oracles._RAYS) / oracles._RAYS)
        w = 10.0 ** rng.uniform(-8.0, 8.0, (len(bases), oracles._RAYS)) * ang
        rays = np.stack([w, np.ones_like(w)], axis=-1)
        for rows in grids + (rays,):
            got = oracle.on_lines(bases)(rows)
            per_line = np.broadcast_to(rows, (len(bases),) + rows.shape[-2:])
            want = [oracle.labels(r @ b.T) for r, b in zip(per_line, bases)]
            assert got.dtype == np.int8 and np.array_equal(got, want)
            assert np.all(got[-1] == -1)
            seen.update(got.ravel().tolist())
        assert got[:3].min() == -1
    assert seen == {-1, 1}


def test_body_beyond_its_bounding_ball_is_inconsistent():
    # every point inside, yet the chord through the origin is long
    everything = ConvexBodyOracle(lambda pts: np.ones(len(pts), bool), 1.0, 2)
    line = AffineComplexLine(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(OracleInconsistent, match="bounding ball"):
        disk_section_test(everything, line)


def test_mvee_symmetric_frozen():
    pts = np.array([[1.0], [-1.0], [1j], [-1j]], dtype=complex)
    ell = mvee_complex(pts, eps=1e-6)
    assert abs(ell.center[0]) < 1e-9
    assert max_abs(ell.h - np.eye(1)) < 1e-9
    assert ell.iterations <= 2
    assert mvee_complex(pts, eps=0.0).iterations == 1


def test_mvee_contains_and_certifies():
    failure = mvee_violation(np.random.default_rng(107), 8)
    assert failure is None, failure


def test_mvee_affine_equivariance():
    rng = np.random.default_rng(109)
    pts = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    s = np.array([[2.0, 1j], [0.0, 1.0]], dtype=complex)
    b = np.array([1.0, -2j], dtype=complex)
    e1 = mvee_complex(pts, eps=1e-7)
    e2 = mvee_complex(pts @ s.T + b, eps=1e-7)
    assert np.allclose(e2.center, s @ e1.center + b, atol=1e-6)
    assert max_abs(sym(s.conj().T @ e2.h @ s) - e1.h) < 1e-6


def _mvee_full_inverse(points, eps):
    # (iterations, weights) of the Khachiyan/Wolfe-Atwood loop with a
    # fresh inverse and fresh leverages on every iteration, as
    # mvee_complex computed them before it updated them by rank one
    pts = np.asarray(points, dtype=complex)
    m, n = pts.shape
    lifted = np.hstack([pts, np.ones((m, 1), dtype=complex)])
    nn = n + 1
    u = np.full(m, 1.0 / m)
    target = nn + n * eps
    for it in range(convexity._MVEE_MAX_ITER):
        vinv = np.linalg.inv((lifted.T * u) @ lifted.conj())
        w = np.real(np.einsum("ij,jk,ik->i", lifted.conj(), vinv, lifted))
        kappa = float(np.max(w))
        if kappa <= target:
            return it + 1, u
        j = int(np.argmax(w))
        alpha = (kappa - nn) / (nn * (kappa - 1.0))
        gain_fw = nn * np.log1p(-alpha) + np.log1p(alpha / (1.0 - alpha)
                                                   * kappa)
        support = np.where(u > 1e-15)[0]
        i = support[int(np.argmin(w[support]))]
        wi = float(w[i])
        gain_aw = -np.inf
        beta = 0.0
        if wi < nn and wi > 1.0 + 1e-14 and u[i] < 1.0:
            beta = min((nn - wi) / (nn * (wi - 1.0)), u[i] / (1.0 - u[i]))
            if beta > 0:
                gain_aw = nn * np.log1p(beta) + np.log1p(-beta * wi
                                                         / (1.0 + beta))
        if gain_aw > gain_fw:
            u = (1.0 + beta) * u
            u[i] -= beta
        else:
            u = (1.0 - alpha) * u
            u[j] += alpha
        u = np.maximum(u, 0.0)
        u /= u.sum()
    raise AssertionError("reference loop did not converge")


def test_mvee_rank_one_updates_match_full_inverse():
    # Seeded clouds in C^1..C^4 with n+1 to 5n+5 points, scaled 1e-6 to
    # 1e6: the rank-one updates take the steps of the full-inverse loop,
    # and the gap of the returned weights, from a fresh inverse, meets eps.
    rng = np.random.default_rng(113)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, 5 * n + 6))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        pts = scale * (rng.standard_normal((m, n))
                       + 1j * rng.standard_normal((m, n)))
        for eps in (1e-6, 1e-9):
            ell = mvee_complex(pts, eps=eps)
            iterations, weights = _mvee_full_inverse(pts, eps)
            assert ell.iterations == iterations
            assert np.max(np.abs(ell.weights - weights)) <= 1e-9
            assert len(ell.gap_history) == iterations
            lifted = np.hstack([pts, np.ones((m, 1))])
            vinv = np.linalg.inv((lifted.T * ell.weights) @ lifted.conj())
            lev = np.real(np.einsum("ij,jk,ik->i", lifted.conj(), vinv,
                                    lifted))
            assert lev.max() / (n + 1) - 1.0 <= eps
            assert ell.gap_history[-1] == lev.max() / (n + 1) - 1.0


@pytest.mark.parametrize("eps", [-1.0, np.nan, np.inf])
def test_mvee_rejects_unreachable_eps(eps):
    # the largest leverage is at least n + 1, so eps < 0 is never met
    pts = np.array([[1.0], [-1.0], [1j], [-1j]], dtype=complex)
    with pytest.raises(ValueError, match="eps"):
        mvee_complex(pts, eps=eps)


def test_mvee_degenerate_span():
    pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], dtype=complex)
    with pytest.raises(DegenerateSpan):
        mvee_complex(pts)


def test_linear_closure_frozen():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    cl = linear_closure(np.stack([e1, e2]))
    assert cl.dim == 1
    c, r = cl.sphere_center_radius()
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)
    assert r == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(NotOnSphere):
        linear_closure(np.array([[0.5, 0.0]], dtype=complex))


def test_abstract_line_points_on_sphere_and_line():
    rng = np.random.default_rng(113)
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = x / np.linalg.norm(x)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = y / np.linalg.norm(y)
        pts = abstract_line_points(x, y, k=12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)
        span = np.column_stack([x, y - x])
        for p in pts:
            coef, *_ = np.linalg.lstsq(span, p, rcond=None)
            assert np.linalg.norm(span @ coef - p) < 1e-9


def test_closure_of_line_points_stays_one_dimensional():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    pts = abstract_line_points(e1, e2, k=8)
    cl = linear_closure(pts)
    assert cl.dim == 1
    assert cl.contains(e1) and cl.contains(e2)
