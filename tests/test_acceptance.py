"""End-to-end checks at the documented tolerances, one test per claim.

Each test prints a single summary line (visible with -s); pytest -v
gives the pass/fail verdict per criterion.
"""

import time
from functools import partial

import numpy as np

from bombon.actions import (CoreSplit, bundle_projection,
                            homogeneity_transport, s1_action)
from bombon.convexity import (AffineComplexLine, DiskTag, disk_section_test,
                              ellipsoid_body, mvee_complex, polydisk_body)
from bombon.errors import TypeMismatch
from bombon.jsonio import canonical_dumps
from bombon.linalg import max_abs, sym
from bombon.oracles import RunConfig
from bombon.projective import ProjPoint, proj_close, sample_line
from bombon.quadrics import (equivalence_witness, random_bombon,
                             random_point_on, random_smooth_bombon)
from bombon.sections import (SectionTag, circle_points,
                             classify_line_section,
                             tangent_section_singular_point)
from bombon.suite import (classifier_vs_grid, fullness_violation,
                          tangent_audit, theorem_suite)

# the criteria classify without the two-sides probe
_classify = partial(classify_line_section, with_sides=False)


def test_criterion_01_classifier_matches_grid_oracle():
    rng = np.random.default_rng(101)
    pairs = 1000
    start = time.perf_counter()
    failure, low = classifier_vs_grid(rng, pairs, _classify)
    elapsed = time.perf_counter() - start
    assert failure is None, failure
    assert low < 0.02 * pairs
    assert elapsed < 10.0
    print(f"criterion 01: PASS ({pairs} pairs, 0 disagreements, "
          f"{low} low-confidence excluded, {elapsed:.1f}s)")


def test_criterion_02_circle_parametrization_lands():
    rng = np.random.default_rng(102)
    angles = np.pi * np.arange(32) / 32.0
    done = 0
    worst = 0.0
    while done < 200:
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        sec, _ = classify_line_section(x, sample_line(rng, n),
                                       with_sides=False)
        if sec.tag is not SectionTag.CIRCLE or sec.low_confidence:
            continue
        bound = 1e-9 * max_abs(x.a)
        for ang in angles:
            pt = circle_points(sec.circle, np.cos(ang), np.sin(ang))
            val = abs(x.value(pt))
            worst = max(worst, val / bound * 1e-9)
            assert val <= bound
        done += 1
    print(f"criterion 02: PASS (200 circles x 32 points, worst residual "
          f"{worst:.2e} vs 1e-9 bound)")


def test_criterion_03_fullness_identity():
    bad = fullness_violation(np.random.default_rng(103), 500)
    assert bad is None, f"fullness defect at type {bad}"
    print("criterion 03: PASS (500 forms, p + q + dim(sing) = n - 2 exact)")


def _random_counts(rng, n):
    n_zero = int(rng.integers(0, n))
    n_pos = int(rng.integers(1, n + 1 - n_zero))
    return n_pos, n_zero


def test_criterion_04_equivalence_witnesses():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        n_pos, n_zero = _random_counts(rng, n)
        x = random_bombon(rng, n, n_pos=n_pos, n_zero=n_zero)
        if rng.uniform() < 0.5:
            n_pos = n + 1 - n_zero - n_pos  # swapped counts, same type
        y = random_bombon(rng, n, n_pos=n_pos, n_zero=n_zero)
        wit = equivalence_witness(x, y)
        assert wit.residual(x.a, y.a) <= 1e-8 * max_abs(x.a)

    mismatches = 0
    while mismatches < 100:
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        p1, z1 = _random_counts(rng, n1)
        p2, z2 = _random_counts(rng, n2)
        x = random_bombon(rng, n1, n_pos=p1, n_zero=z1)
        y = random_bombon(rng, n2, n_pos=p2, n_zero=z2)
        if x.bombon_type() == y.bombon_type():
            continue
        try:
            equivalence_witness(x, y)
        except TypeMismatch:
            mismatches += 1
            continue
        raise AssertionError("witness produced for different types")
    print("criterion 04: PASS (100 same-type witnesses within 1e-8, "
          "100 different-type rejections)")


def test_criterion_05_tangent_audit():
    failure, excluded = tangent_audit(np.random.default_rng(105), 100,
                                      _classify)
    assert failure is None, failure
    print(f"criterion 05: PASS (100 tangent points x 128 lines, "
          f"{excluded} lines inside the exclusion band)")


def test_criterion_06_tangent_hypersection_singular_locus():
    rng = np.random.default_rng(106)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        n_pos = int(rng.integers(2, n))  # both signs at least twice
        x = random_smooth_bombon(rng, n, n_pos=n_pos)
        p = random_point_on(rng, x)
        got = tangent_section_singular_point(x, p, rtol=1e-8)
        assert proj_close(got.v, p.v, 1e-8)
    print("criterion 06: PASS (100 hypersections, singular locus = {x}, "
          "kernel dimension 1)")


def test_criterion_07_circle_action_orbits():
    rng = np.random.default_rng(107)
    thetas = 2.0 * np.pi * np.arange(16) / 16.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        x = random_smooth_bombon(rng, n)
        split = CoreSplit.from_quadric(x)
        p = random_point_on(rng, x)
        pu, pv = bundle_projection(x, split, p)
        basis = np.column_stack([pu.unit, pv.unit])
        for theta in thetas:
            orbit = s1_action(split, theta, p.unit)
            assert abs(x.value(ProjPoint(orbit))) <= 1e-9
            _, res, _, _ = np.linalg.lstsq(basis, orbit, rcond=None)
            if res.size:
                assert float(res[0]) <= 1e-18
        # fixed points: core samples stay put, the on-quadric point moves
        cu, cv = x.cores()
        for core in (cu, cv):
            if core.basis.shape[1] == 0:
                continue
            coef = rng.standard_normal(core.basis.shape[1]) \
                + 1j * rng.standard_normal(core.basis.shape[1])
            v = ProjPoint(core.basis @ coef)
            moved = s1_action(split, 1.7, v.unit)
            assert proj_close(moved, v.v, 1e-9)
        moved = s1_action(split, 1.7, p.unit)
        assert not proj_close(moved, p.v, 1e-9)
    print("criterion 07: PASS (100 orbits stay on the quadric and on the "
          "shadow line; cores are the fixed points)")


def test_criterion_08_homogeneity_transport():
    rng = np.random.default_rng(108)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        x = random_smooth_bombon(rng, n)
        p = random_point_on(rng, x)
        q = random_point_on(rng, x)
        wit = homogeneity_transport(x, p, q)
        assert wit.residual <= 1e-8 * max_abs(x.a)
        assert proj_close(wit.t @ p.unit, q.v, 1e-8)
    print("criterion 08: PASS (100 transports, congruence residual and "
          "endpoint match within 1e-8)")


def test_criterion_09_convex_sections():
    rng = np.random.default_rng(109)
    allowed = {DiskTag.DISK, DiskTag.POINT, DiskTag.EMPTY}
    n = 2
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    body = ellipsoid_body(
        0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        sym(m @ m.conj().T) + 0.3 * np.eye(n))
    tally = {t: 0 for t in DiskTag}
    for _ in range(500):
        base = 0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        verdict = disk_section_test(body, AffineComplexLine(base, d),
                                    tol=1e-3, rng=rng)
        tally[verdict.tag] += 1
        assert verdict.tag in allowed, verdict.tag.value

    bidisk = polydisk_body((1.0, 1.0))
    lenses = 0
    for _ in range(100):
        base = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        verdict = disk_section_test(bidisk, AffineComplexLine(base, d),
                                    tol=1e-3, rng=rng)
        if verdict.tag is DiskTag.NOT_A_DISK:
            lenses += 1
    assert lenses >= 1
    print(f"criterion 09: PASS (500 ellipsoid lines: "
          f"{tally[DiskTag.DISK]} disks, {tally[DiskTag.POINT]} points, "
          f"{tally[DiskTag.EMPTY]} empty; bidisk lenses {lenses}/100)")


def test_criterion_10_mvee():
    for n in (1, 2, 3):
        eye = np.eye(n, dtype=complex)
        pts = np.concatenate([eye, -eye, 1j * eye, -1j * eye])
        ell = mvee_complex(pts, eps=1e-6)
        assert float(np.linalg.norm(ell.center)) <= 1e-5
        assert max_abs(ell.h - eye) <= 1e-5
        gaps = np.asarray(ell.gap_history)
        assert np.all(np.diff(gaps) <= 1e-15)

    rng = np.random.default_rng(110)
    pts = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    s = np.array([[2.0, 1j], [0.0, 1.0]])
    b = np.array([1.0, -2j])
    ell = mvee_complex(pts, eps=1e-7)
    ell2 = mvee_complex(pts @ s.T + b, eps=1e-7)
    s_inv = np.linalg.inv(s)
    assert float(np.linalg.norm(ell2.center - (s @ ell.center + b))) <= 1e-6
    assert max_abs(ell2.h - s_inv.conj().T @ ell.h @ s_inv) <= 1e-6
    print("criterion 10: PASS (symmetric sets recover the unit ball, gap "
          "monotone, affine equivariance within 1e-6)")


def test_criterion_11_suite_deterministic():
    cfg = RunConfig(seed=7, n_lines=200)
    start = time.perf_counter()
    first, code1 = theorem_suite(cfg)
    elapsed = time.perf_counter() - start
    second, code2 = theorem_suite(cfg)
    assert code1 == 0 and code2 == 0
    assert first["verdict"] == "pass"
    assert elapsed < 60.0
    assert canonical_dumps(first) == canonical_dumps(second)
    print(f"criterion 11: PASS (full suite green in {elapsed:.1f}s, "
          f"byte-identical on rerun)")
