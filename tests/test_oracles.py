"""Grid oracle, membership oracles and the Monte-Carlo axiom verifier."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

import bombon
from bombon import convexity, linalg, oracles
from bombon.errors import PreconditionError, ZeroVector
from bombon.jsonio import canonical_dumps
from bombon.moebius import _fit_hermitian_through
from bombon.linalg import _gauge, form_values, zero_tol
from bombon.oracles import (OracleSet, RunConfig, bidisk_oracle, cp1_grid,
                            grid_line_tag, oracle_from_quadric,
                            oracle_line_tag, oracle_line_tags, spinor,
                            verify_axioms, verify_point_star)
from bombon.projective import ProjLine, ProjPoint, sample_line
from bombon.quadrics import QuadricBombon, random_bombon, random_point_on
from bombon import sections
from bombon.sections import (SectionClass, SectionTag, classify_line_section,
                             restrict_form)
from bombon.suite import classifier_vs_grid

ELLIPTIC = QuadricBombon.from_epsilons([1, 1, -1])


def test_fib_angles_and_grid():
    th, ph = oracles._fib_point(np.arange(128), 128)
    assert th.shape == (128,) and ph.shape == (128,)
    assert np.all((th >= 0) & (th <= np.pi))
    grid = cp1_grid(128)
    assert grid.shape == (128, 2)
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)


def test_grid_line_tag_frozen():
    circle_line = ProjLine([1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    assert grid_line_tag(ELLIPTIC.a, circle_line.basis()) \
        is SectionTag.CIRCLE
    empty_line = ProjLine([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert grid_line_tag(ELLIPTIC.a, empty_line.basis()) is SectionTag.EMPTY
    sing = QuadricBombon.from_epsilons([1, -1, 0])
    point_line = ProjLine([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert grid_line_tag(sing.a, point_line.basis()) \
        is SectionTag.SINGLE_POINT
    big = QuadricBombon.from_epsilons([1, 1, -1, -1])
    full_line = ProjLine([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])
    assert grid_line_tag(big.a, full_line.basis()) is SectionTag.FULL_LINE


def test_grid_line_tag_needs_a_line():
    v = np.array([1.0, 0.5j, 0.3])
    with pytest.raises(ValueError, match="rank two"):
        grid_line_tag(ELLIPTIC.a, np.column_stack([v, 2j * v]))
    # a basis holding NaN is refused as not finite, as the oracles do
    nan = np.column_stack([v, [np.nan, 1.0, 0.0]])
    with pytest.raises(ValueError, match="coordinates must be finite"):
        grid_line_tag(ELLIPTIC.a, nan)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        oracle_line_tag(oracle_from_quadric(ELLIPTIC), nan)


def test_grid_agrees_with_classifier():
    failure, _ = classifier_vs_grid(np.random.default_rng(127), 150,
                                    classify_line_section)
    assert failure is None, failure


def test_quadric_oracle_labels():
    oracle = oracle_from_quadric(ELLIPTIC)
    assert oracle.dim == 2
    assert oracle.labels(np.array([1.0, 0.0, 0.0], dtype=complex)) == 1
    assert oracle.labels(np.array([0.0, 0.0, 1.0], dtype=complex)) == -1
    assert oracle.labels(np.array([1.0, 0.0, 1.0], dtype=complex)) == 0
    batch = oracle.labels(np.eye(3, dtype=complex))
    assert list(batch) == [1, 1, -1]


def test_bidisk_oracle_labels():
    oracle = bidisk_oracle()
    assert oracle.labels(np.array([1.0, 0.0, 0.0], dtype=complex)) == 1
    assert oracle.labels(np.array([1.0, 2.0, 0.0], dtype=complex)) == -1
    assert oracle.labels(np.array([0.0, 1.0, 0.0], dtype=complex)) == -1
    assert oracle.labels(np.array([1.0, 1.0, 0.5], dtype=complex)) == 0


def _bidisk_formula(pts, r1, r2):
    # the bidisk oracle's labels as first written: four column abs calls
    # and np.where
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.maximum(np.abs(pts[:, 1]) / r1, np.abs(pts[:, 2]) / r2)
        g = np.where(np.abs(pts[:, 0]) == 0, np.inf, g / np.abs(pts[:, 0]))
    out = np.where(g < 1.0, 1, -1)
    return np.where(np.abs(g - 1.0) <= oracles._BIDISK_BAND, 0,
                    out).astype(np.int8)


def test_bidisk_labels_match_formula_bit_for_bit():
    # rows at z0 = 0, a zero row, gauges a few ulps either side of both
    # edges of the ON band, entries near 1e-300 and 1e300 (and quotients
    # that overflow), and random rows
    rng = np.random.default_rng(137)
    gauges = []
    for edge in (1.0 - oracles._BIDISK_BAND, 1.0 + oracles._BIDISK_BAND):
        x = edge
        for _ in range(4):
            x = np.nextafter(x, 0.0)
        for _ in range(9):
            gauges.append(x)
            x = np.nextafter(x, 2.0)
    rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1e-300, 1e300],
            [1e-300, 1e300, 0.0], [1e300, 1e-300, 1e-300]]
    for gauge in gauges:
        for scale in (1.0, 1e300, 1e-300, 3.7e-151):
            rows += [[scale, scale * gauge, 0.0],
                     [scale, 0.3 * scale, scale * gauge * 1j]]
    pts = np.vstack([np.array(rows, dtype=complex),
                     rng.standard_normal((400, 3))
                     + 1j * rng.standard_normal((400, 3))])
    for r1, r2 in ((1.0, 1.0), (0.5, 2.0), (3.0, 1e-3)):
        got = bidisk_oracle((r1, r2)).side(pts)
        with np.errstate(over="ignore"):
            want = _bidisk_formula(pts, r1, r2)
        assert got.dtype == np.int8
        assert got.tobytes() == want.tobytes()
    labels = bidisk_oracle().side(np.array(rows[5:], dtype=complex))
    assert {-1, 0, 1} <= set(labels.tolist())


def test_verify_axioms_consistent_on_quadric():
    cfg = RunConfig(seed=5, n_lines=60)
    rep = verify_axioms(oracle_from_quadric(ELLIPTIC), cfg)
    assert rep.verdict == "ConsistentWithBombon"
    assert rep.lines_tested == 60
    assert sum(rep.tallies.values()) == 60
    assert rep.two_sides_violations == 0
    assert rep.nonconforming_lines == []
    assert len(rep.line_tags) == 60
    assert rep.tallies["circle"] > 0


def test_verify_axioms_catches_bidisk():
    cfg = RunConfig(seed=5, n_lines=60)
    rep = verify_axioms(bidisk_oracle(), cfg)
    assert rep.verdict == "Violations"
    assert rep.tallies["nonconforming"] > 0
    assert rep.nonconforming_lines


def test_verify_axioms_vacuous():
    rep = verify_axioms(oracle_from_quadric(ELLIPTIC),
                        RunConfig(seed=1, n_lines=0))
    assert rep.verdict == "ConsistentWithBombon"
    assert rep.lines_tested == 0


def test_verify_axioms_deterministic():
    cfg = RunConfig(seed=12, n_lines=40)
    oracle = oracle_from_quadric(ELLIPTIC)
    r1 = verify_axioms(oracle, cfg)
    r2 = verify_axioms(oracle, cfg)
    assert canonical_dumps(r1.to_dict()) == canonical_dumps(r2.to_dict())
    r3 = verify_axioms(oracle, RunConfig(seed=13, n_lines=40))
    assert canonical_dumps(r1.to_dict()) != canonical_dumps(r3.to_dict())


def test_report_embeds_config():
    cfg = RunConfig(seed=99, n_lines=5)
    rep = verify_axioms(oracle_from_quadric(ELLIPTIC), cfg)
    d = rep.to_dict()
    assert d["config"]["seed"] == 99
    assert d["config"]["n_lines"] == 5
    assert "tolerances" in d["config"]
    assert d["version"]


def test_point_star_all_circles():
    rep = verify_point_star(oracle_from_quadric(ELLIPTIC),
                            ProjPoint([0.0, 0.0, 1.0]),
                            RunConfig(seed=3, n_lines=120))
    assert rep.verdict == "AllCircles"
    assert rep.circle > 0
    assert rep.other == 0


def test_point_star_precondition():
    flat = QuadricBombon.from_epsilons([1, -1, 0])
    with pytest.raises(PreconditionError):
        verify_point_star(oracle_from_quadric(flat),
                          ProjPoint([0.0, 0.0, 1.0]),
                          RunConfig(seed=3, n_lines=10))


def test_point_star_zero_base_point():
    with pytest.raises(ZeroVector):
        verify_point_star(oracle_from_quadric(ELLIPTIC), np.zeros(3),
                          RunConfig(seed=3, n_lines=10))


def test_quadric_oracle_rejects_bad_rows():
    # a zero row has no side and a non-finite row no value: typed errors,
    # not a label and not a RuntimeWarning
    oracle = oracle_from_quadric(ELLIPTIC)
    good = np.eye(3, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroVector):
            oracle.labels(np.vstack([good, np.zeros(3)]))
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                oracle.labels(np.vstack([good, [1.0, bad, 0.0]]))


def test_quadric_oracle_labels_at_extreme_scales():
    # rows whose squared norm under- or overflows keep their labels
    oracle = oracle_from_quadric(ELLIPTIC)
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                    [1.0, 0.5j, 0.3]], dtype=complex)
    base = oracle.labels(pts)
    assert base.tolist() == [1, -1, 0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1e-160, 1e160, 1e300):
            got = oracle.labels(np.vstack([pts * scale, pts]))
            assert got.tolist() == base.tolist() * 2


def _rays(rng, m):
    # (m, _RAYS, 2) chart rows (w, 1) of the zero tracer's rays, one set
    # per line, at radii across the bisection's range 1e-8..1e8
    ang = np.exp(2j * np.pi * np.arange(oracles._RAYS) / oracles._RAYS)
    w = 10.0 ** rng.uniform(-8.0, 8.0, (m, oracles._RAYS)) * ang
    return np.stack([w, np.ones_like(w)], axis=-1)


def _point_labels(oracle, bases, rows):
    # labels of the points p = B s of each line, built one line at a time
    rows = np.broadcast_to(rows, (len(bases),) + rows.shape[-2:])
    return np.array([oracle.labels(r @ b.T) for r, b in zip(rows, bases)])


def test_line_labels_at_extreme_scales_and_degenerate_lines():
    # A line's labels do not move when its representatives are scaled by
    # 1e-150 or 1e150.  A basis of rank one, and rows whose squared norm
    # on the line under- or overflows, take the point path and keep the
    # labels of their points; a zero row or basis has no side.
    rng = np.random.default_rng(97)
    grid = cp1_grid(oracles._GRID)
    for x in (ELLIPTIC, random_bombon(rng, 4, n_zero=1)):
        oracle = oracle_from_quadric(x)
        bases = np.array([sample_line(rng, x.n).basis() for _ in range(6)]
                         + [_tangent_through_grid_row(rng, x, grid)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (grid, _rays(rng, len(bases))):
                want = oracle.on_lines(bases)(rows)
                assert np.array_equal(want, _point_labels(oracle, bases, rows))
                for scale in (1e-150, 1e150):
                    lam = scale * np.exp(2j * np.pi * rng.random(len(bases)))
                    got = oracle.on_lines(bases * lam[:, None, None])(rows)
                    assert np.array_equal(got, want)
            v = random_point_on(rng, x).v + 0.1 * bases[0, :, 0]
            for rank_one in (np.column_stack([v, 2j * v]),
                             np.column_stack([v, np.zeros_like(v)])):
                got, = oracle.on_lines(rank_one[None])(grid)
                assert np.array_equal(got, oracle.labels(grid @ rank_one.T))
            tiled = np.vstack([grid * 1e-160, grid * 1e160, grid])
            assert np.array_equal(oracle.on_lines(bases)(tiled),
                                  np.tile(oracle.on_lines(bases)(grid), 3))
        with pytest.raises(ZeroVector):
            oracle.on_lines(bases)(np.vstack([grid, np.zeros(2)]))
        with pytest.raises(ZeroVector):
            oracle.on_lines(np.zeros((1, x.n + 1, 2)))(grid)
        # the row [1, 1] of the rank-one basis (v, -v) is the zero point,
        # whatever rounding leaves of the basis's second column
        with pytest.raises(ZeroVector):
            oracle.on_lines(np.column_stack([v, -v])[None])(
                np.vstack([grid, [1.0, 1.0]]))


def test_line_labels_equal_point_labels():
    # The quadric oracle labels a line's rows from the line's 2x2 form,
    # and each label is that of the row's point: CP^1-CP^5, every kernel
    # size, forms at scales 1e-3..1e3, sampled lines, tangent lines
    # through a row of either grid, lines inside kernels; both grids and
    # ray rows.
    rng = np.random.default_rng(89)
    grids = (cp1_grid(oracles._GRID), cp1_grid(oracles._STAGE2))
    seen = Counter()
    for n in range(1, 6):
        for n_zero in range(n):
            x = random_bombon(rng, n, n_zero=n_zero)
            x = QuadricBombon(x.a * 10.0 ** rng.uniform(-3.0, 3.0))
            oracle = oracle_from_quadric(x)
            bases = [sample_line(rng, n).basis() for _ in range(2)]
            bases += [_tangent_through_grid_row(rng, x, g) for g in grids]
            kernel = x.sig.kernel()
            if kernel.shape[1] >= 2:
                bases.append(kernel @ (rng.standard_normal((n_zero, 2))
                                       + 1j * rng.standard_normal(
                                           (n_zero, 2))))
            bases = np.array(bases)
            for rows in grids + (_rays(rng, len(bases)),):
                got = oracle.on_lines(bases)(rows)
                want = _point_labels(oracle, bases, rows)
                assert got.dtype == np.int8 and np.array_equal(got, want)
                seen.update(got.ravel().tolist())
    assert set(seen) == {-1, 0, 1}


def test_oracles_do_not_read_the_classifier(monkeypatch):
    # A restricted form or a section tag gone wrong in the classifier
    # changes neither the quadric oracle's verify reports nor the grid
    # judge's tags, so one fault cannot reach both sides of the suite's
    # classifier-against-oracle comparisons.
    rng = np.random.default_rng(101)
    cases = [(oracle_from_quadric(x), RunConfig(seed=seed, n_lines=40))
             for x, seed in ((ELLIPTIC, 5),
                             (QuadricBombon.from_epsilons([1, 1, -1, -1]), 8),
                             (QuadricBombon.from_epsilons([1, -1, -1, 0]), 9))]
    judged = _judge_corpus(rng, 150)

    def outputs():
        return ([verify_axioms(o, cfg).to_dict() for o, cfg in cases],
                [grid_line_tag(a, b) for a, b in judged])

    want = outputs()
    swap = {SectionTag.CIRCLE: SectionTag.EMPTY,
            SectionTag.EMPTY: SectionTag.CIRCLE}
    classify = sections.classify_line_section

    def swapped(*args, **kwargs):
        sec, rep = classify(*args, **kwargs)
        return SectionClass(swap.get(sec.tag, sec.tag)), rep

    # a zero restricted form, which reads as a full line, and swapped
    # tags, wherever a bombon module holds the two functions
    fakes = ((restrict_form, lambda x, s: np.zeros((2, 2), dtype=complex)),
             (classify_line_section, swapped))
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "bombon":
            for attr, value in list(vars(mod).items()):
                for real, fake in fakes:
                    if value is real:
                        monkeypatch.setattr(mod, attr, fake)
    circle_line = ProjLine([1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    assert sections.classify_line_section(ELLIPTIC, circle_line)[0].tag \
        is SectionTag.FULL_LINE
    assert outputs() == want


def _judge_corpus(rng, count):
    # (a, basis) lines for the grid judge: forms on CP^1-CP^5 with every
    # kernel size at scales 1e-3..1e3, and sampled lines, tangent lines
    # through a grid row and lines inside kernels of dimension >= 2
    grid = cp1_grid(oracles._GRID)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n, n_zero=int(rng.integers(0, n)))
        kind = int(rng.integers(0, 4))
        kernel = x.sig.kernel()
        if kind == 3 and kernel.shape[1] >= 2:
            coef = rng.standard_normal((kernel.shape[1], 2, 2))
            basis = kernel @ (coef[..., 0] + 1j * coef[..., 1])
        elif kind >= 2 and n >= 2:
            basis = _tangent_through_grid_row(rng, x, grid)
        else:
            basis = sample_line(rng, n).basis()
        out.append((x.a * 10.0 ** rng.uniform(-3.0, 3.0), basis))
    return out


def test_grid_line_tags_pinned():
    # The judge's tags on the first 1000 lines of its 5000-line gate
    # corpus, as computed from ambient points and the 2k x 2k real form
    # of the whole space before the judge read line forms, and then from
    # a 128-point grid of each line form before it read only the form's
    # eigenvalues.
    tags = [grid_line_tag(a, b).value
            for a, b in _judge_corpus(np.random.default_rng(103), 1000)]
    assert set(tags) == {tag.value for tag in SectionTag}
    assert hashlib.sha256(" ".join(tags).encode()).hexdigest() == (
        "45388cf364cd21852f2a5135e48dac8ae80936ec6dd5570452f3288994d3a3da")


def test_grid_line_tags_batch_matches_per_line(monkeypatch):
    # One call over the pinned corpus gives the pinned tags, with one
    # line form per shape of form and basis, and each line the tag of its
    # own call, whatever lines share the batch.
    corpus = _judge_corpus(np.random.default_rng(103), 1000)
    calls = []
    line_form = oracles._line_form

    def counted(a, b):
        calls.append(a.shape[1:] + b.shape)
        return line_form(a, b)

    monkeypatch.setattr(oracles, "_line_form", counted)
    tags = oracles.grid_line_tags([a for a, _ in corpus],
                                  [b for _, b in corpus])
    shapes = Counter((a.shape, np.shape(b)) for a, b in corpus)
    assert sorted(calls) == sorted(a + (k,) + b for (a, b), k in
                                   shapes.items())
    assert hashlib.sha256(" ".join(t.value for t in tags).encode()) \
        .hexdigest() == ("45388cf364cd21852f2a5135e48dac8ae80936ec6dd5570452f"
                         "3288994d3a3da")
    monkeypatch.setattr(oracles, "_line_form", line_form)
    assert [grid_line_tag(a, b) for a, b in corpus[::7]] == tags[::7]
    back = oracles.grid_line_tags([a for a, _ in corpus[::-3]],
                                  [b for _, b in corpus[::-3]])
    assert back == tags[::-3]
    assert oracles.grid_line_tags([], []) == []


def test_grid_line_tags_reports_first_bad_line():
    good = sample_line(np.random.default_rng(5), 2).basis()
    v = np.array([1.0, 0.5j, 0.0])
    flat = np.column_stack([v, 2j * v])
    nan = np.column_stack([v, [np.nan, 1.0, 0.0]])
    for bases, msg in (([good, flat, nan], "rank two"),
                       ([good, nan, flat], "must be finite")):
        with pytest.raises(ValueError, match=msg):
            oracles.grid_line_tags([ELLIPTIC.a] * 3, bases)
    # lines of two dimensions, judged in two groups
    a3 = np.diag([1.0, 1.0, 1.0, -1.0])
    nan3 = np.vstack([nan, [0.0, 1.0]])
    with pytest.raises(ValueError, match="must be finite"):
        oracles.grid_line_tags([ELLIPTIC.a, a3, ELLIPTIC.a],
                               [good, nan3, flat])
    with pytest.raises(ValueError, match="forms for"):
        oracles.grid_line_tags([ELLIPTIC.a], [good, good])


def _mp_line_range(a, b):
    # (min, max) eigenvalue, as floats, of the 2x2 form of ``a`` in a
    # Gram-Schmidt frame of the columns of ``b``, in 50-digit arithmetic
    with mpmath.workdps(50):
        am = mpmath.matrix(a.tolist())
        c0, c1 = (mpmath.matrix(b[:, j].tolist()) for j in range(2))
        q0 = c0 / mpmath.norm(c0)
        u = c1 - q0 * (q0.H * c1)[0]
        q1 = u / mpmath.norm(u)
        a00 = mpmath.re((q0.H * am * q0)[0])
        a11 = mpmath.re((q1.H * am * q1)[0])
        r = mpmath.sqrt(((a00 - a11) / 2) ** 2
                        + abs((q0.H * am * q1)[0]) ** 2)
        return float((a00 + a11) / 2 - r), float((a00 + a11) / 2 + r)


def _lopsided_line(rng):
    # (a, basis) on CP^1-CP^5: a form of eigenvalues in (-1, 1) scaled by
    # 10^u(-14, 3), and a line spanned by b0 and b0 + 10^u(-9, 0) r, whose
    # Gram-Schmidt factor is lopsided up to the rank cut
    n = int(rng.integers(1, 6))
    u = linalg.random_unitary(rng, n + 1)
    a = (u * rng.uniform(-1.0, 1.0, n + 1)) @ u.conj().T
    b0, r = _cgauss(rng, 2, n + 1)
    step = 10.0 ** rng.uniform(-9.0, 0.0)
    return a * 10.0 ** rng.uniform(-14.0, 3.0), np.column_stack(
        [b0, b0 + step * r])


def test_judge_range_matches_mpmath_eigenvalues():
    # The judge tags a line by the eigenvalues lam of its line form, the
    # ends of its value range.  On sampled lines of CP^1-CP^5, with A
    # scaled by 1e-3..1e3, both lie within 16 eps max|lam| of the
    # 50-digit eigenvalues of the line's orthonormalized 2x2 form (at
    # most 4.7 eps max|lam| over 2300 such lines).
    rng = np.random.default_rng(149)
    eps = np.finfo(float).eps
    for n in range(1, 6):
        for _ in range(24):
            x = random_bombon(rng, n, n_zero=int(rng.integers(0, n)))
            a = x.a * 10.0 ** rng.uniform(-3.0, 3.0)
            b = sample_line(rng, n).basis()
            (_, w), ok = oracles._line_form(a[None],
                                            _gauge(b[None], axis=1)[0])
            lam = w[0, ::2, 0]
            lo, hi = _mp_line_range(a, b)
            bound = 16.0 * eps * max(abs(lo), abs(hi))
            assert ok[0]
            assert abs(lam.min() - lo) <= bound
            assert abs(lam.max() - hi) <= bound
    # Lopsided lines whose range ends lie near the cut 1e-10 * max(1,
    # max|A|): the seeds below 30000 of ``_lopsided_line`` whose values at
    # the points B s, for s on a 128-point grid of CP^1, all lie within
    # 1e-12 * max(1, max|A|).  The basis crowds those points around one
    # direction, and a flat-grid rule reads full line.  Each reads the
    # tag of its 50-digit range.
    for seed in (11466, 16412, 16483, 16927, 18018, 22431, 23799):
        a, b = _lopsided_line(np.random.default_rng(seed))
        lo, hi = _mp_line_range(a, b)
        assert grid_line_tag(a, b) is oracles._range_tag(
            hi, lo, 1e-10 * max(1.0, np.abs(a).max()))


def test_judge_tags_at_the_cut():
    # Lines whose restricted form has eigenvalues mu and t * cut, for the
    # cut 1e-10 * max(1, max|A|) and t = +-0.5 and +-2, in a skewed basis
    # of the line, with mu = -+1 or t * cut / 4: each gets the tag of its
    # exact range, whatever the other eigenvalue.  Setting
    # the two eigenvalues moves max|A|, and with it the cut, by at most
    # 2e-10 relative, far inside the factor 2 margins.
    rng = np.random.default_rng(151)
    skew = np.array([[1.0, 0.3 - 0.2j], [0.1j, 0.7]])
    forms, bases, want = [], [], []
    for n in range(1, 6):
        for t in (-2.0, -0.5, 0.5, 2.0):
            for mu in (-1.0, 1.0, None):
                u = linalg.random_unitary(rng, n + 1)
                s = 10.0 ** rng.uniform(-3.0, 3.0)
                d = np.concatenate([[mu or 0.0, 0.0],
                                    rng.uniform(-3.0, 3.0, n - 1)])
                cut = 1e-10 * max(1.0, np.abs((u * (s * d)) @ u.conj().T)
                                  .max())
                d[1] = t * cut / s
                if mu is None:
                    d[0] = 0.25 * d[1]
                a = (u * (s * d)) @ u.conj().T
                forms.append(a)
                bases.append(u[:, :2] @ skew)
                want.append(oracles._range_tag(
                    s * d[:2].max(), s * d[:2].min(),
                    1e-10 * max(1.0, np.abs(a).max())))
    assert oracles.grid_line_tags(forms, bases) == want
    assert set(want) == set(SectionTag)


def test_judge_lopsided_bases_read_empty():
    # Each judge basis column is scaled by a power of two, so a line
    # spanned by a tiny or huge column and a unit one keeps rank two and
    # reads empty on diag(1, 1, -1), as the quadric oracle reads it.
    a = np.diag([1.0, 1.0, -1.0])
    oracle = oracle_from_quadric(QuadricBombon(a))
    e0, e1 = np.eye(3)[:, 0], np.eye(3)[:, 1]
    for s in (1e-300, 1e-170, 1e-150, 1e150, 1e300):
        for basis in (np.column_stack([s * e0, e1]),
                      np.column_stack([e0, s * e1])):
            assert grid_line_tag(a, basis) is SectionTag.EMPTY
            assert oracle_line_tag(oracle, basis)[0] == "empty"


def test_cp1_grid_cached_read_only():
    grid = cp1_grid(256)
    assert cp1_grid(256) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0


def test_cp1_grid_pinned_and_built_in_blocks(monkeypatch):
    # The grids as the whole-grid angle arrays gave them.  The stage-2
    # grid is built a block at a time; a size that is no multiple of a
    # block matches the whole-grid formula bit for bit.
    monkeypatch.setattr(oracles, "_grid_cache", {})
    for k, digest in (
            (oracles._STAGE2,
             "72048264c80ba2d9ac2f27f5851e40d9e0b0cbc4782f63ccd05f51a2f20673b8"),
            (128,
             "9ef5594b8018210a1f55ec0943936a8615be6cbabfa2959233c1ca7661e809e7")):
        assert hashlib.sha256(cp1_grid(k).tobytes()).hexdigest() == digest
    k = 2 * oracles._BLOCK + 1000
    assert cp1_grid(k).tobytes() == spinor(
        *oracles._fib_point(np.arange(k), k)).tobytes()


def test_stage2_working_memory_is_the_grid(monkeypatch):
    # One empty line needs the stage-2 grid.  With cold grid caches the
    # call's peak stays within a quarter of the grid's size above the
    # grid itself: the grid is built and labelled a block at a time.
    oracle = oracle_from_quadric(QuadricBombon.from_epsilons([1, 1, 1, -1]))
    cfg = RunConfig(seed=3, n_lines=1)
    verify_axioms(oracle, RunConfig(seed=1, n_lines=1))  # lazy imports
    monkeypatch.setattr(oracles, "_grid_cache", {})
    tracemalloc.start()
    try:
        rep = verify_axioms(oracle, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.line_tags == ("empty",)
    assert peak < 1.25 * cp1_grid(oracles._STAGE2).nbytes


def test_stage2_working_memory_is_the_grid_when_labelled(monkeypatch):
    # The same bound when the empty line's stage-2 grid is labelled a
    # block at a time: an oracle made with ``dataclasses.replace`` has no
    # form, so it labels the grid's points.
    base = oracle_from_quadric(QuadricBombon.from_epsilons([1, 1, 1, -1]))
    oracle = dataclasses.replace(base, side=base.side)
    assert oracle._form is None
    cfg = RunConfig(seed=3, n_lines=1)
    verify_axioms(oracle, RunConfig(seed=1, n_lines=1))  # lazy imports
    monkeypatch.setattr(oracles, "_grid_cache", {})
    stage2 = _spy_stage2(monkeypatch)
    tracemalloc.start()
    try:
        rep = verify_axioms(oracle, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.line_tags == ("empty",) and stage2 == [1]
    assert peak < 1.25 * cp1_grid(oracles._STAGE2).nbytes


def _spy_stage2(monkeypatch):
    # the number of lines of each 131072-row _grid_labels call, in a list
    # that fills as the calls are made
    calls = []
    grid_labels = oracles._grid_labels

    def spy(label, grid):
        if grid.shape[0] == oracles._STAGE2:
            calls.append(label.to_pts.shape[0])
        return grid_labels(label, grid)

    monkeypatch.setattr(oracles, "_grid_labels", spy)
    return calls


def _one_sided(oracle, bases):
    # whether each line shows one side on its stage-1 grid, and not only
    # the set
    lab = oracles._grid_labels(oracle.on_lines(bases),
                               cp1_grid(oracles._GRID))
    two = np.any(lab == 1, axis=1) & np.any(lab == -1, axis=1)
    return ~two & np.any(lab != 0, axis=1)


def test_stage2_grids_labelled_only_where_a_form_cannot_settle(monkeypatch):
    # Quadric and ellipsoid-chart lines whose line form is definite take
    # no stage-2 labelling; a one-sided line of the bidisk, of an oracle
    # without a form and a tangent quadric line take one each.  The tags
    # and disk verdicts are those of labelling every stage-2 grid.
    rng = np.random.default_rng(233)
    x = QuadricBombon.from_epsilons([1, 1, 1, -1])
    quad = oracle_from_quadric(x)
    bases = np.array([sample_line(rng, 3).basis() for _ in range(40)])
    tangent = np.array([_tangent_through_grid_row(rng, x, cp1_grid(
        oracles._STAGE2)) for _ in range(3)])
    bidisk_bases = np.array([sample_line(rng, 2).basis() for _ in range(40)])
    replaced = dataclasses.replace(quad, side=quad.side)
    body = convexity.ellipsoid_body(0.2 * np.ones(3), np.diag([1.0, 2.0, 3.0]))
    lines = [convexity.AffineComplexLine(
        0.6 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
        rng.standard_normal(3) + 1j * rng.standard_normal(3))
        for _ in range(40)]
    cases = ((quad, bases, 0), (quad, tangent, len(tangent)),
             (replaced, bases, int(_one_sided(replaced, bases).sum())),
             (bidisk_oracle(), bidisk_bases,
              int(_one_sided(bidisk_oracle(), bidisk_bases).sum())))
    want = [oracle_line_tags(oracle, b) for oracle, b, _ in cases]
    want_disks = _disk_sections_of(body, lines)
    assert {t for t, _, _ in want[0]} == {"empty", "circle"}
    assert {t for t, _, _ in want[1]} == {"single_point"}
    assert all(count > 0 for _, _, count in cases[1:])
    stage2 = _spy_stage2(monkeypatch)
    for (oracle, b, count), tags in zip(cases, want):
        stage2.clear()
        assert oracle_line_tags(oracle, b) == tags
        assert stage2 == [1] * count
    stage2.clear()
    got = _disk_sections_of(body, lines)
    assert got == want_disks and stage2 == []
    assert {v.tag for v in got} == {convexity.DiskTag.EMPTY,
                                    convexity.DiskTag.DISK}
    # the same tags when every stage-2 grid is labelled
    monkeypatch.setattr(oracles, "_line_label", lambda label: 0)
    assert oracle_line_tags(quad, bases) == want[0]
    assert _disk_sections_of(body, lines) == want_disks


def _disk_sections_of(body, lines):
    return convexity.disk_sections(body, lines, rng=np.random.default_rng(5))


def test_labels_are_int8_and_range_checked():
    # Built-in oracles label in int8; another dtype is read as the same
    # labels when its values are -1, 0 and 1, and is refused otherwise,
    # where a U labelled 2 would read as neither side.
    base = oracle_from_quadric(ELLIPTIC)
    pts = np.eye(3, dtype=complex)
    assert base.side(pts).dtype == np.int8
    assert bidisk_oracle().side(pts).dtype == np.int8
    cfg = RunConfig(seed=3, n_lines=20)
    want = verify_axioms(base, cfg).to_dict()
    wide = OracleSet(side=lambda p: base.side(p).astype(float),
                     description="wide", dim=2)
    assert wide.labels(pts).dtype == np.int8
    assert verify_axioms(wide, cfg).to_dict() == want

    def side(p):
        lab = base.side(p).astype(int)
        return np.where(lab == 1, 2, lab)

    two = OracleSet(side=side, description="two", dim=2)
    with pytest.raises(ValueError, match="side labels must be -1, 0 or 1"):
        verify_axioms(two, cfg)


def test_import_leaves_grid_cache_empty():
    code = ("import bombon, bombon.oracles as o; "
            "print(len(o._grid_cache))")
    src = os.path.dirname(os.path.dirname(bombon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0"]


def test_quadric_oracle_labels_scale_invariant():
    rng = np.random.default_rng(53)
    for n in (2, 3, 4):
        x = random_bombon(rng, n, n_pos=(n + 1) // 2, n_zero=0)
        oracle = oracle_from_quadric(x)
        pts = rng.standard_normal((40, n + 1)) \
            + 1j * rng.standard_normal((40, n + 1))
        pts = np.vstack([pts] + [random_point_on(rng, x).v for _ in range(8)])
        base = oracle.labels(pts)
        assert np.any(base == 0) and np.any(base == 1) and np.any(base == -1)
        for lam in (1e-100, 1e-3, 1e3, 1e100):
            scale = lam * np.exp(2j * np.pi * rng.random(pts.shape[0]))
            assert np.array_equal(oracle.labels(pts * scale[:, None]), base)


def _line_through_grid_row(p, d, g):
    # Line basis whose grid point g (a unit spinor) lands on p exactly
    # and whose orthogonal spinor lands on d.
    g_perp = np.array([-np.conj(g[1]), np.conj(g[0])])
    return np.outer(p, np.conj(g)) + np.outer(d, np.conj(g_perp))


def _tangent_through_grid_row(rng, x, grid):
    # A tangent line of x whose random grid row lands on a random point
    # of x, so that the grid labels a point on the set.
    p = random_point_on(rng, x).v
    ap = x.a @ p
    d = rng.standard_normal(x.n + 1) + 1j * rng.standard_normal(x.n + 1)
    d = d - ap * (np.vdot(ap, d) / np.vdot(ap, ap))
    g = grid[int(rng.integers(grid.shape[0]))]
    return _line_through_grid_row(p, d, g)


def test_grid_labels_blocked_equal_whole_grid():
    rng = np.random.default_rng(61)
    grid = cp1_grid(oracles._STAGE2)
    assert grid.shape[0] > oracles._BLOCK
    cases = []
    for n in range(1, 6):
        for n_zero in range(n):
            x = random_bombon(rng, n, n_zero=n_zero)
            oracle = oracle_from_quadric(x)
            cases.append((oracle, sample_line(rng, n).basis(), False))
            cases.append((oracle, _tangent_through_grid_row(rng, x, grid),
                          True))
    bidisk = bidisk_oracle()
    cases += [(bidisk, sample_line(rng, 2).basis(), False) for _ in range(4)]
    for oracle, basis, on_set in cases:
        got, = oracles._grid_labels(oracle.on_lines(basis[None]), grid)
        want = oracle.labels(grid @ basis.T)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if on_set:
            assert np.any(got == 0)
    # stage-1 size: whole lines per block, over more lines than a block
    bases = np.array([sample_line(rng, 3).basis() for _ in range(70)])
    oracle = oracle_from_quadric(random_bombon(rng, 3))
    assert np.array_equal(
        oracles._grid_labels(oracle.on_lines(bases), cp1_grid(128)),
        [oracle.labels(cp1_grid(128) @ basis.T) for basis in bases])


def _form_oracle(form, sides):
    # an oracle whose label of p is sides(Re(p* form p) / |p|^2), built
    # as the oracle builders build one
    vform = oracles._value_form(form)

    def side(pts):
        vn = form_values(pts, vform)
        return sides(vn[:, 0] / vn[:, 1])

    oracle = OracleSet(side=side, description="form", dim=form.shape[0] - 1)
    oracle._form = (np.asarray(form, dtype=complex), sides)
    return oracle


def _settled(oracle, bases):
    # the label _line_label gives each line, checked against the labels
    # of the line's whole stage-2 grid wherever it is not 0
    grid = cp1_grid(oracles._STAGE2)
    out = []
    for basis in bases:
        label = oracle.on_lines(basis[None])
        side = oracles._line_label(label)
        if side != 0:
            labels, = oracles._grid_labels(label, grid)
            assert np.all(labels == side), (oracle.description, basis)
        out.append(side)
    return out


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_line_label_is_every_stage2_label():
    # Wherever a line form settles a line, every row of its stage-2 grid
    # gets that label: quadric oracles on CP^1-CP^5 with every kernel
    # size; forms scaled by 1e-150..1e150 on bases scaled likewise, with
    # random phases; ellipsoid charts in C^1-C^4; and lines whose
    # restricted eigenvalues sit 1, 4, 16 and 64 ulps beyond the band
    # cut, or beyond 0 for the chart's cut.
    rng = np.random.default_rng(239)
    seen = Counter()
    for n in range(1, 6):
        for n_zero in range(n):
            x = random_bombon(rng, n, n_zero=n_zero)
            bases = [sample_line(rng, n).basis() for _ in range(4)]
            bases.append(_tangent_through_grid_row(
                rng, x, cp1_grid(oracles._STAGE2)))
            # the form and its negative, whose sides are swapped
            for oracle in map(oracle_from_quadric, (x, QuadricBombon(-x.a))):
                seen.update(_settled(oracle, bases))
            form, sides = oracle_from_quadric(x)._form
            for s in 10.0 ** rng.uniform(-150.0, 150.0, 2):
                scaled = _form_oracle(s * form, lambda v, s=s: sides(v / s))
                lam = 10.0 ** rng.uniform(-150.0, 150.0, len(bases))
                phases = np.exp(2j * np.pi * rng.random((len(bases), 1, 2)))
                seen.update(_settled(scaled, np.array(bases) * phases
                                     * lam[:, None, None]))
    for n in range(1, 5):
        m = _cgauss(rng, n, n)
        body = convexity.ellipsoid_body(0.3 * _cgauss(rng, n),
                                        m @ m.conj().T + 0.3 * np.eye(n))
        chart = [np.column_stack([np.append(1.0, 0.8 * _cgauss(rng, n)),
                                  np.append(0.0, _cgauss(rng, n))])
                 for _ in range(6)]
        seen.update(_settled(convexity._chart_oracle(body),
                             chart + [_cgauss(rng, n + 1, 2)]))
    assert seen[1] > 0 and seen[-1] > 0 and seen[0] > 0
    # restricted forms c I, and (c, 1/2), with c k ulps beyond a cut, on
    # the line (e0, e1) where every product is exact, and in a random
    # unitary frame: near-ties that rounding decides
    band, thr = oracle_from_quadric(ELLIPTIC)._form[1], zero_tol(ELLIPTIC.a)
    u, _ = np.linalg.qr(_cgauss(rng, 4, 4))
    settled = Counter()
    for k in (1, 4, 16, 64):
        for sign, cut, sides, tail in (
                (1.0, thr, band, [-0.5, 0.5]),
                (-1.0, thr, band, [0.5, -0.5]),
                (1.0, 0.0, convexity._inside, [-1.0, 1.0])):
            edge = cut + k * np.spacing(cut) if cut else k * oracles._SUB
            for c2 in (edge, 0.5):
                form = np.diag([sign * edge, sign * c2] + tail)
                got = _settled(_form_oracle(form, sides),
                               [np.eye(4)[:, :2], u[:, :2]])
                got += _settled(_form_oracle(u @ form @ u.conj().T, sides),
                                [u[:, :2]])
                settled.update({k: sum(g != 0 for g in got)})
            ulp = np.spacing(0.5)
            got = _settled(_form_oracle(np.diag([k * ulp, 0.5, -1.0, 1.0]),
                                        convexity._inside), [np.eye(4)[:, :2]])
            settled.update({k: sum(g != 0 for g in got)})
    assert settled[64] > 0


def test_line_label_declines_degenerate_bases(monkeypatch):
    # A basis of rank one and the lopsided basis (1e-160 e0, e1), which
    # passes the rank cut but whose line form has a singular value
    # whose square is below the normal range: the line form settles
    # neither, and their tags are those of labelling.  A basis holding
    # NaN gets no labeller.
    oracle = oracle_from_quadric(ELLIPTIC)
    v = np.array([1.0, 0.5j, 0.3])
    e = np.eye(3, dtype=complex)
    bases = (np.column_stack([v, 2j * v]),
             np.column_stack([1e-160 * e[:, 0], e[:, 1]]),
             np.column_stack([v, [np.nan, 1.0, 0.0]]))
    assert oracles._line_form(oracle._form[0], bases[1][None])[1][0]

    def tags():
        out = []
        for basis in bases:
            try:
                out.append(oracle_line_tag(oracle, basis))
            except ValueError as err:
                out.append(str(err))
        return out

    assert [oracles._line_label(oracle.on_lines(b[None]))
            for b in bases[:2]] == [0, 0]
    with pytest.raises(ValueError, match="coordinates must be finite"):
        oracle.on_lines(bases[2][None])
    got = tags()
    assert got[1:] == [("empty", True, ""), "coordinates must be finite"]
    monkeypatch.setattr(oracles, "_line_label", lambda label: 0)
    assert tags() == got


def _pinned_report(seed, tags, bad=()):
    tallies = {k: 0 for k in oracles._TALLY_KEYS}
    for t in tags:
        tallies[t] += 1
    nonconf = [{"line_index": i,
                "summary": f"circle fit residual {r} in chart units"}
               for i, r in bad]
    return {"version": bombon.__version__,
            "config": {"seed": seed, "n_lines": len(tags),
                       "tolerances": {"chart_residual": 1e-4, "grid": 1e-6,
                                      "zero": 1e-9},
                       "output_format": "json"},
            "lines_tested": len(tags), "tallies": tallies,
            "two_sides_violations": 0, "nonconforming_lines": nonconf,
            "line_tags": tags,
            "verdict": "Violations" if nonconf else "ConsistentWithBombon"}


def test_verify_axioms_reports_pinned():
    # Stage-2 (empty) lines, circle fits and nonconforming fit residuals.
    quad = oracle_from_quadric(ELLIPTIC)
    rep = verify_axioms(quad, RunConfig(seed=5, n_lines=10))
    assert rep.to_dict() == _pinned_report(
        5, ["circle"] * 7 + ["empty"] + ["circle"] * 2)
    singular = oracle_from_quadric(
        QuadricBombon.from_epsilons([1, -1, -1, -1, 0]))
    rep = verify_axioms(singular, RunConfig(seed=8, n_lines=10))
    assert rep.to_dict() == _pinned_report(
        8, "empty empty circle empty circle empty empty circle empty "
           "empty".split())
    rep = verify_axioms(bidisk_oracle(), RunConfig(seed=5, n_lines=10))
    residuals = ("3.325e-01", "5.122e-01", "4.770e-01", "3.476e-01",
                 "4.850e-01", "6.313e-01", "1.039e-01", "3.615e-01",
                 "2.538e-01", "1.585e-01")
    assert rep.to_dict() == _pinned_report(
        5, ["nonconforming"] * 10, enumerate(residuals))
    # Longer runs, whose two-sided lines span several tracing chunks.
    for oracle, cfg, digest in (
            (bidisk_oracle(), RunConfig(seed=5, n_lines=200),
             "6ebae69bccb0e91854b2651e2819d2adb0fcf766ca0b31da7a579e20df12510b"),
            (oracle_from_quadric(QuadricBombon.from_epsilons([1, 1, -1, -1])),
             RunConfig(seed=8, n_lines=60),
             "d756092af25706d9403f05f1f12e196b5ad982c74ffba2325b88f318468406aa")):
        text = canonical_dumps(verify_axioms(oracle, cfg).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _tag_corpus(rng):
    # (oracle, (m, n+1, 2) bases) groups that reach every tag: sampled
    # lines of quadrics on CP^1-CP^5 with every kernel size, full lines
    # inside kernels of dimension 2 or more, tangent lines through a
    # stage-2 grid point, and bidisk lines.
    grid = cp1_grid(oracles._STAGE2)
    groups = []
    for n in range(1, 6):
        for n_zero in range(n):
            x = random_bombon(rng, n, n_zero=n_zero)
            bases = [sample_line(rng, n).basis() for _ in range(6)]
            kernel = x.sig.kernel()
            if kernel.shape[1] >= 2:
                coef = rng.standard_normal((n_zero, 2))
                bases.append(kernel @ (coef + 1j * rng.standard_normal(
                    (n_zero, 2))))
            bases += [_tangent_through_grid_row(rng, x, grid)
                      for _ in range(2)]
            groups.append((oracle_from_quadric(x), np.array(bases)))
    groups.append((bidisk_oracle(),
                   np.array([sample_line(rng, 2).basis() for _ in range(90)])))
    groups.append((_shell_oracle(),
                   np.array([sample_line(rng, 2).basis() for _ in range(90)])))
    return groups


def _shell_oracle():
    # ELLIPTIC's side oracle with the part of U where the normalized form
    # exceeds 0.7 labelled V: some lines then fit a circle whose side
    # rings fail the two-sides check, and others pass it.
    base = oracle_from_quadric(ELLIPTIC)
    vform = oracles._value_form(ELLIPTIC.a)

    def side(pts):
        vn = form_values(pts, vform)
        deep = vn[:, 0] / vn[:, 1] > 0.7
        return np.where(deep, -1, base.side(pts))

    return OracleSet(side=side, description="shell", dim=2)


def test_line_tags_batch_equals_single_lines():
    rng = np.random.default_rng(67)
    seen, circle_sides = set(), set()
    for oracle, bases in _tag_corpus(rng):
        got = oracle_line_tags(oracle, bases)
        assert got == [oracle_line_tag(oracle, b) for b in bases]
        seen.update(tag for tag, _, _ in got)
        circle_sides.update(ok for tag, ok, _ in got if tag == "circle")
    assert seen == set(oracles._TALLY_KEYS)
    assert circle_sides == {True, False}
    assert oracle_line_tags(oracle_from_quadric(ELLIPTIC),
                            np.empty((0, 3, 2), dtype=complex)) == []


def test_line_tags_pinned():
    # the (tag, two_sides_ok, summary) of every line of the corpus, as
    # computed with the complex-arithmetic points and values before the
    # real kernels
    tags = []
    for oracle, bases in _tag_corpus(np.random.default_rng(67)):
        tags += oracle_line_tags(oracle, bases)
    assert len(tags) == 306
    assert hashlib.sha256(repr(tags).encode()).hexdigest() == (
        "cec2e5991c7e043e3bdf2a904de51dbddde0ab020ea09d4a190a050bbbbb479b")


def test_trace_zeros_batch_equals_single_lines():
    rng = np.random.default_rng(69)
    grid = cp1_grid(oracles._GRID)
    for oracle, bases in _tag_corpus(rng):
        pts = grid @ bases.transpose(0, 2, 1)
        lab = oracle.labels(pts.reshape(-1, pts.shape[2])).reshape(
            len(bases), -1)
        keep = np.any(lab == 1, axis=1) & np.any(lab == -1, axis=1)
        ends = np.array([np.column_stack([grid[np.argmax(row == 1)],
                                          grid[np.argmax(row == -1)]])
                         for row in lab[keep]]).reshape(-1, 2, 2)
        batch = [z for s in range(0, len(ends), oracles._TRACE_LINES)
                 for z in oracles._trace_zeros(
                     oracle.on_lines(bases[keep][s:s + oracles._TRACE_LINES]),
                     bases[keep][s:s + oracles._TRACE_LINES],
                     ends[s:s + oracles._TRACE_LINES])]
        assert len(batch) == len(ends)
        if oracle.dim == 2 and oracle.exact is None:
            assert len(ends) > oracles._TRACE_LINES
        for z, basis, end in zip(batch, bases[keep], ends):
            single, = oracles._trace_zeros(oracle.on_lines(basis[None]),
                                           basis[None], end[None])
            assert (z is None) == (single is None)
            if z is not None:
                assert z.shape == single.shape
                assert z.tobytes() == single.tobytes()


def _ray_angles():
    return np.exp(2j * np.pi * np.arange(oracles._RAYS) / oracles._RAYS)


def _traces_of(bases, ends):
    # each line's trace basis (p_u, p_v), as the zero tracer forms it
    return np.swapaxes(ends.transpose(0, 2, 1) @ bases.transpose(0, 2, 1),
                       1, 2)


def test_traced_labeller_labels_as_the_trace_bases_own():
    # The tracer labels a ray row t of the trace basis B E through the
    # labeller of B moved by E (``_LineLabeller.traced``), which reads
    # the row E t of B's line form.  Its labels are those of a labeller
    # built on B E itself, on every row whose value p* A p / |p|^2 lies
    # 1e-9 max|A| or more from each cut, and on every row of a line that
    # has no line form: rank-one lines and oracles without a form take
    # the point path, with one point map for both.
    rng = np.random.default_rng(271)
    logr = np.linspace(-8.0, 8.0, 41)
    rows = np.ones((len(logr), oracles._RAYS, 2), dtype=complex)
    rows[..., 0] = np.power(10.0, logr)[:, None] * _ray_angles()
    rows = np.vstack([rows.reshape(-1, 2), cp1_grid(oracles._GRID)])
    cases = []
    for n in range(1, 5):
        for n_zero in range(n):
            x = random_bombon(rng, n, n_zero=n_zero)
            bases = np.array([sample_line(rng, n).basis() for _ in range(12)])
            # rank-one lines: the second column a multiple of the first
            bases[:3, :, 1] = bases[:3, :, 0] * _cgauss(rng, 3)[:, None]
            cases.append((oracle_from_quadric(x), bases, x._cut))
        m = _cgauss(rng, n, n)
        body = convexity.ellipsoid_body(0.3 * _cgauss(rng, n),
                                        m @ m.conj().T + 0.3 * np.eye(n))
        cases.append((convexity._chart_oracle(body), np.concatenate(
            [np.ones((12, 1, 2)), _cgauss(rng, 12, n, 2)], axis=1), 0.0))
    quad = cases[-2][0]
    cases += [(dataclasses.replace(quad, side=quad.side), cases[-2][1], None),
              (bidisk_oracle(), np.array([sample_line(rng, 2).basis()
                                          for _ in range(12)]), None)]
    checked = total = 0
    for oracle, bases, cut in cases:
        ends = _cgauss(rng, len(bases), 2, 2)
        traces = _traces_of(bases, ends)
        got = oracle.on_lines(bases).traced(ends, traces)(rows)
        want = oracle.on_lines(traces)(rows)
        far = np.ones(got.shape, dtype=bool)
        if cut is not None:
            a = oracle._form[0]
            pts = rows @ traces.transpose(0, 2, 1)
            vals = (np.einsum("lri,ij,lrj->lr", pts.conj(), a, pts).real
                    / np.einsum("lri,lri->lr", pts.conj(), pts).real)
            margin = 1e-9 * linalg.max_abs(a)
            far = (np.abs(vals - cut) > margin) & (np.abs(vals + cut) > margin)
            far[~oracle.on_lines(bases).ok] = True
        assert np.array_equal(got[far], want[far])
        checked += int(far.sum())
        total += far.size
    assert checked > 0.999 * total


def _bisected(oracle, bases, ends):
    # (log10 |w|, bracketed, lab_lo, lab_hi, labeller) of every ray of the
    # zero tracer as it was before ray zeros were proposed from line
    # forms: each bracketed ray bisected in log10 |w| from [-8, 8], all
    # lines in one labelling call per step, through the lines' labeller
    # moved to their trace bases, as the tracer labels
    ang = _ray_angles()
    chart = np.ones((bases.shape[0], oracles._RAYS, 2), dtype=complex)
    label = oracle.on_lines(bases).traced(ends, _traces_of(bases, ends))

    def lab(logr):
        chart[..., 0] = np.power(10.0, logr) * ang
        return label(chart)

    lo = np.full(chart.shape[:2], -8.0)
    hi = np.full(chart.shape[:2], 8.0)
    lab_lo, lab_hi = lab(lo), lab(hi)
    valid = (lab_lo != 0) & (lab_hi != 0) & (lab_lo != lab_hi)
    ref = np.where(valid, lab_lo, np.nan)
    for _ in range(oracles._BISECT_ITERS):
        mid = (lo + hi) / 2.0
        t = lab(mid) * ref
        lo = np.where(t >= 0, mid, lo)
        hi = np.where(t <= 0, mid, hi)
    return (lo + hi) / 2.0, valid, lab_lo, lab_hi, lab


def _zeros_at(logr, valid, ends):
    # the tracer's output for rays whose zeros sit at log10 |w| = logr
    w = np.power(10.0, logr) * _ray_angles()
    return [np.column_stack([wi[vi], np.ones(int(vi.sum()))]) @ pi.T
            if np.any(vi) else None for wi, vi, pi in zip(w, valid, ends)]


def _record_traces(monkeypatch, runs):
    # (oracle, bases, ends) of every zero trace that the calls ``runs``
    # make
    calls = []
    trace = oracles._trace_zeros

    def spy(label, bases, ends):
        calls.append((label.oracle, bases, ends))
        return trace(label, bases, ends)

    with monkeypatch.context() as m:
        m.setattr(oracles, "_trace_zeros", spy)
        for run in runs:
            run()
    return calls


def _ellipsoid_chart_lines(rng, n, count):
    m = _cgauss(rng, n, n)
    body = convexity.ellipsoid_body(0.3 * _cgauss(rng, n),
                                    m @ m.conj().T + 0.3 * np.eye(n))
    return body, [convexity.AffineComplexLine(0.6 * _cgauss(rng, n),
                                              _cgauss(rng, n))
                  for _ in range(count)]


def _two_sided_traces(oracle, bases):
    # the zero trace of the lines of ``bases`` that show both sides on the
    # stage-1 grid, with the trace ends that oracle_line_tags gives them
    grid = cp1_grid(oracles._GRID)
    lab = oracles._grid_labels(oracle.on_lines(bases), grid)
    keep = np.any(lab == 1, axis=1) & np.any(lab == -1, axis=1)
    ends = np.array([np.column_stack([grid[np.argmax(row == 1)],
                                      grid[np.argmax(row == -1)]])
                     for row in lab[keep]]).reshape(-1, 2, 2)
    return oracle, bases[keep], ends


def _form_traces(monkeypatch, rng):
    # (trace call, ON band) of the two-sided lines of quadric oracles on
    # CP^1-CP^5 with every kernel size and their negatives, of the same
    # forms scaled by 1e-150..1e150 on bases scaled likewise with random
    # phases, and of ellipsoid charts in C^1-C^4, whose band is empty
    out = []
    for n in range(1, 6):
        for n_zero in range(n):
            x = random_bombon(rng, n, n_zero=n_zero)
            bases = np.array([sample_line(rng, n).basis() for _ in range(12)])
            thr = zero_tol(x.a)
            for y in (x, QuadricBombon(-x.a)):
                out.append((_two_sided_traces(oracle_from_quadric(y), bases),
                            thr))
            form, sides = oracle_from_quadric(x)._form
            for s in 10.0 ** rng.uniform(-150.0, 150.0, 2):
                scaled = _form_oracle(s * form, lambda v, s=s: sides(v / s))
                lam = 10.0 ** rng.uniform(-150.0, 150.0, len(bases))
                phases = np.exp(2j * np.pi * rng.random((len(bases), 1, 2)))
                out.append((_two_sided_traces(
                    scaled, bases * phases * lam[:, None, None]), s * thr))
    for n in range(1, 5):
        body, lines = _ellipsoid_chart_lines(rng, n, 12)
        out += [(call, 0.0) for call in _record_traces(
            monkeypatch, [lambda: convexity.disk_sections(body, lines)])]
    return [(call, thr) for call, thr in out if len(call[1])]


def _band_width(form, trace, w, thr):
    # width in log10 |w| of the ON band |v| <= thr along the rays of the
    # trace basis (p_u, p_v) at their zeros w, v = N / D the form's value
    # over the squared norm at w p_u + p_v: 2 thr / |dv / dlog10 r| there,
    # where N = 0, in unit-scale copies of the form and the basis
    scale = np.abs(form).max()
    f, p = form / scale, trace / np.abs(trace).max()
    m, g = p.conj().T @ f @ p, p.conj().T @ p
    r = np.abs(w)
    slope = 2.0 * (m[0, 0].real * r + (w.conj() / r * m[0, 1]).real)
    d = g[0, 0].real * r * r + 2.0 * (w.conj() * g[0, 1]).real + g[1, 1].real
    return 2.0 * (thr / scale) * d / (np.abs(slope) * r * np.log(10.0))


def _piece_traces(monkeypatch, rng):
    # trace calls of oracles whose ``_pieces`` propose the zeros: the
    # two-sided lines of bidisks with radii (1, 1) and (1, 0.6), and the
    # disk sections of polydisks in C^2 and C^3
    out = []
    for radii in ((1.0, 1.0), (1.0, 0.6)):
        for _ in range(3):
            out.append(_two_sided_traces(bidisk_oracle(radii), np.array(
                [sample_line(rng, 2).basis() for _ in range(60)])))
    for radii in ((1.0, 1.0), (1.0, 0.3), (0.7, 0.7, 0.5)):
        n = len(radii)
        lines = [convexity.AffineComplexLine(0.5 * _cgauss(rng, n),
                                             _cgauss(rng, n))
                 for _ in range(40)]
        out += _record_traces(monkeypatch, [
            lambda: convexity.disk_sections(convexity.polydisk_body(radii),
                                            lines)])
    return [call for call in out if len(call[1])]


def _check_trace(oracle, bases, ends):
    # Checks one zero trace against its candidates and the bisection, and
    # returns per line (kept log10 |w|, bisected ones there, those rays'
    # directions, kept by label 0, kept by flanks, bisected rays, rays
    # with several crossing candidates).  Every zero is bisection's bit
    # for bit, or one of its ray's candidates: the ray's only crossing,
    # certified by its label 0 or by flank labels that are the ray's end
    # labels.
    ang = _ray_angles()
    delta = oracles._FLANK
    got = oracles._trace_zeros(oracle.on_lines(bases), bases, ends)
    logr, valid, lab_lo, lab_hi, _ = _bisected(oracle, bases, ends)
    traces = _traces_of(bases, ends)
    label = oracle.on_lines(traces)
    x = oracles._ray_zeros(oracles._ray_forms(label, traces), ang)
    x = x.reshape(len(bases), -1, oracles._RAYS)
    cand = np.isfinite(x) & (np.abs(x) < 8.0)
    x = np.where(cand, x, 0.0)
    props = [_zeros_at(x[:, s], valid, ends) for s in range(x.shape[1])]
    out = []
    for i, (z, want) in enumerate(zip(got, _zeros_at(logr, valid, ends))):
        assert (z is None) == (want is None)
        if z is None:
            continue
        vi = valid[i]
        xs, cs, a = x[i][:, vi], cand[i][:, vi], ang[vi]

        def lab(logs):
            rows = np.stack([np.power(10.0, logs) * a,
                             np.ones(logs.shape)], axis=-1)
            return oracle.on_lines(traces[i:i + 1])(
                rows.reshape(1, -1, 2))[0].reshape(logs.shape)

        on, below, above = lab(xs), lab(xs - delta), lab(xs + delta)
        cross = cs & ((on == 0) | (below != above))
        cert = cs & ((on == 0) | (below == lab_lo[i][vi])
                     & (above == lab_hi[i][vi]))
        same = np.array([np.all(z == p[i], axis=1) for p in props]) & cs
        bisected = np.all(z == want, axis=1)
        one = cross.sum(axis=0) == 1
        # a zero that is not bisection's is its ray's one crossing,
        # certified; bisection can land on a candidate's bits exactly
        assert np.all(bisected | same.any(axis=0))
        assert np.all((one & (same & cross & cert).any(axis=0))[~bisected])
        assert np.all(bisected[~one])
        kept = one & same.any(axis=0)
        pick = same.argmax(axis=0)
        xk = np.take_along_axis(xs, pick[None], 0)[0][kept]
        zero = (np.take_along_axis(on, pick[None], 0)[0] == 0)[kept]
        out.append((xk, logr[i][vi][kept], a[kept], int(zero.sum()),
                    int((~zero).sum()), int((~kept).sum()),
                    int((cross.sum(axis=0) > 1).sum())))
    return out


def test_trace_zeros_are_certified_by_labels(monkeypatch):
    # An oracle with a form or pieces keeps a ray's proposed zero only
    # where it is the ray's one crossing candidate and labels certify it:
    # its own label is 0, or the labels at -+ _FLANK are the ray's end
    # labels.  Every other bracketed ray is bisected as before, bit for
    # bit, among them the bidisk's rays that cross the set three times.
    # A form's kept zero lies within the ON band's width, or within
    # 2 _FLANK, of the bisected zero, in log10 |w|.
    rng = np.random.default_rng(241)
    kept, on, flanked, bisected, several = (Counter() for _ in range(5))
    calls = [(call, "chart" if thr == 0.0 else "quadric", thr)
             for call, thr in _form_traces(monkeypatch, rng)]
    calls += [(call, "bidisk" if call[0].description.startswith("bidisk")
               else "polydisk", None)
              for call in _piece_traces(monkeypatch, rng)]
    for (oracle, bases, ends), kind, thr in calls:
        for trace, (xk, lk, a, n_on, n_flank, n_bis, n_several) in zip(
                _traces_of(bases, ends), _check_trace(oracle, bases, ends)):
            kept[kind] += xk.size
            on[kind] += n_on
            flanked[kind] += n_flank
            bisected[kind] += n_bis
            several[kind] += n_several
            if thr is not None:
                width = _band_width(oracle._form[0], trace,
                                    np.power(10.0, xk) * a, thr)
                assert np.all(np.abs(xk - lk) <= np.maximum(
                    1.01 * width, 2.0 * oracles._FLANK))
    # nearly every ray keeps its proposal: quadric and bidisk rays by
    # their ON label, chart rays, whose oracles have no ON band, by their
    # flanks
    assert set(kept) == {"quadric", "chart", "bidisk", "polydisk"}
    assert on["quadric"] > 0 and flanked["chart"] == kept["chart"] > 0
    assert on["bidisk"] > 0.99 * kept["bidisk"]
    assert flanked["polydisk"] == kept["polydisk"] > 0
    assert bisected["quadric"] + bisected["chart"] <= 1e-3 * (
        kept["quadric"] + kept["chart"])
    # every bidisk ray that is not kept crosses the set several times
    assert 0 < bisected["bidisk"] == several["bidisk"] <= 1e-2 * kept[
        "bidisk"]


@pytest.mark.parametrize("shift", [-0.1, 0.1])
def test_trace_zeros_fall_back_to_bisection(monkeypatch, shift):
    # Proposals a tenth of a decade off fail their certification, and
    # every ray falls back to the bisection, whose zeros are the old
    # tracer's bit for bit: those of form oracles and of the pieces of
    # the bidisk and the polydisk chart.  So are the traces of oracles
    # without either: an oracle made with ``dataclasses.replace`` and a
    # black-box shell.
    rng = np.random.default_rng(251)
    calls = [call for call, _ in _form_traces(monkeypatch, rng)]
    quad = oracle_from_quadric(QuadricBombon.from_epsilons([1, 1, -1, -1]))
    replaced = dataclasses.replace(quad, side=quad.side)
    cd = [convexity.AffineComplexLine(0.5 * _cgauss(rng, 2), _cgauss(rng, 2))
          for _ in range(30)]
    calls += _record_traces(monkeypatch, [
        lambda: oracle_line_tags(bidisk_oracle(), np.array(
            [sample_line(rng, 2).basis() for _ in range(90)])),
        lambda: oracle_line_tags(replaced, np.array(
            [sample_line(rng, 3).basis() for _ in range(30)])),
        lambda: oracle_line_tags(_shell_oracle(), np.array(
            [sample_line(rng, 2).basis() for _ in range(30)])),
        lambda: convexity.disk_sections(convexity.polydisk_body((1.0, 1.0)),
                                        cd)])
    proposes = [o._form is not None or o._pieces is not None
                for o, _, _ in calls]
    assert set(proposes) == {True, False}
    assert {o.description.split("(")[0] for (o, _, _), p in zip(
        calls, proposes) if p and o._form is None} == {"bidisk", "chart"}
    ray_zeros = oracles._ray_zeros
    proposed = []

    def off(*args):
        proposed.append(None)
        return ray_zeros(*args) + shift

    monkeypatch.setattr(oracles, "_ray_zeros", off)
    for oracle, bases, ends in calls:
        logr, valid, _, _, _ = _bisected(oracle, bases, ends)
        got = oracles._trace_zeros(oracle.on_lines(bases), bases, ends)
        for z, want in zip(got, _zeros_at(logr, valid, ends)):
            assert (z is None) == (want is None)
            assert z is None or z.tobytes() == want.tobytes()
    assert len(proposed) == sum(proposes)


def _ray_root_forms(rng):
    # seeded 2x2 ray forms [[a, m01], [conj(m01), c]]: a c < 0, where one
    # root is positive; beta^2 >> a c > 0 with roots near 10^7 and 10^-7
    # on the rays near angle 0, where the textbook formula cancels; and
    # random forms scaled by 10^-100..10^100
    out = []
    for _ in range(12):
        a, c = np.exp(rng.uniform(-3.0, 3.0, 2)) * [1.0, -1.0]
        out.append([[a, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))], [0, c]])
    for _ in range(12):
        r1, r2 = 1e7 * rng.uniform(0.5, 2.0), 1e-7 * rng.uniform(0.5, 2.0)
        a = np.exp(rng.uniform(-3.0, 3.0))
        beta = -a * (r1 + r2) / 2.0 * np.exp(1j * rng.uniform(-0.1, 0.1))
        out.append([[a, beta], [0, a * r1 * r2]])
    for _ in range(12):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out.append(h * 10.0 ** rng.uniform(-100.0, 100.0))
    m = np.array(out, dtype=complex)
    return (m + m.conj().transpose(0, 2, 1)) / 2.0


def test_ray_zeros_match_a_high_precision_reference():
    # _ray_zeros takes the roots of a r^2 + 2 beta r + c as q / a and
    # c / q, q = -(beta + sign(beta) sqrt(beta^2 - ac)), so that no root
    # is a difference of nearly equal terms.  Against 50-digit roots of
    # the same gauged a, c and beta, each root r's error is bounded to
    # first order in the unit roundoff u = eps / 2:
    # - fl(beta^2 - ac) = D + E, |E| <= u (beta^2 + |ac| + |D|), and the
    #   square root adds u, so it is within (kappa + 1) u relative, for
    #   kappa = (beta^2 + |ac| + |D|) / (2 D);
    # - beta and sign(beta) sqrt(D) have one sign, so q's sum adds u;
    # - q / a and c / q add u each;
    # so r is within (kappa + 3) u relative, and log10 r within
    # (kappa + 3) u / ln 10 of the exact log L, plus log10's own error,
    # at most two ulps of L, 4 u |L|.  The test allows 1% over that sum.
    # kappa is 1 for ac < 0 and near 1 for beta^2 >> |ac|; rays with
    # kappa > 1e6, near a double root, are not checked, since there the
    # first-order bound and the sign of D are not certain.  The textbook
    # formula (-beta -+ sign(beta) sqrt(D)) / a for the same root misses
    # the bound on many rays, those with beta^2 >> |ac| among them.
    rng = np.random.default_rng(263)
    m = _ray_root_forms(rng)
    ang = _ray_angles()
    got = oracles._ray_zeros(m, ang)
    u = np.finfo(float).eps / 2.0
    g = _gauge(m, axis=(-2, -1))[0]
    beta = (ang.conj() * g[:, 0, 1][:, None]).real
    checked, naive_misses, finite = 0, 0, 0
    with mpmath.workdps(50):
        for i in range(len(m)):
            a, c = mpmath.mpf(g[i, 0, 0].real), mpmath.mpf(g[i, 1, 1].real)
            for j in range(len(ang)):
                b = mpmath.mpf(beta[i, j])
                d = b * b - a * c
                kappa = (b * b + abs(a * c) + abs(d)) / (2 * abs(d))
                if kappa > 1e6:
                    continue
                checked += 1
                if d < 0:
                    assert np.all(np.isnan(got[i, :, j]))
                    continue
                q = -(b + mpmath.sign(b) * mpmath.sqrt(d))
                root = np.copysign(np.sqrt(
                    beta[i, j] ** 2 - float(a * c)), beta[i, j])
                for x, r, s in zip(got[i, :, j], (q / a, c / q), (1, -1)):
                    if r <= 0:
                        assert not np.isfinite(x)
                        continue
                    finite += 1
                    ref = mpmath.log10(r)
                    bound = 1.01 * float((kappa + 3) * u / mpmath.ln(10)
                                         + 4 * u * abs(ref))
                    assert abs(x - ref) <= bound
                    naive = (-beta[i, j] - s * root) / float(a)
                    with np.errstate(invalid="ignore", divide="ignore"):
                        err = abs(np.log10(naive) - float(ref))
                    naive_misses += not err <= bound
    assert checked > 0.9 * m.shape[0] * len(ang)
    assert finite > len(ang) * m.shape[0] // 2 and naive_misses > 100


def test_stacked_circle_fits_keep_each_lines_bytes():
    # The verifier fits and checks the lines with one count of traced
    # zeros as one stack.  Each line's fitted form, frame and summary
    # have the bytes of its batch of one, the frame those of the
    # one-matrix eigendecomposition it replaced, and the labels of its
    # side rings, labelled with the other lines' in one call, those of a
    # call of its own.
    rng = np.random.default_rng(269)
    stacked = 0
    for n in range(1, 5):
        for n_zero in range(n):
            oracle, bases, ends = _two_sided_traces(
                oracle_from_quadric(random_bombon(rng, n, n_zero=n_zero)),
                np.array([sample_line(rng, n).basis() for _ in range(40)]))
            zeros = oracles._traced_zeros(oracle.on_lines(bases), bases, ends)
            for idx, z, m in oracles._fits(zeros):
                stacked += len(idx) > 1
                fits = oracles._circle_fit(m, z)
                rings = []
                for j, i in enumerate(idx):
                    one = _fit_hermitian_through(zeros[i])[0]
                    assert m[j].tobytes() == one.tobytes()
                    (frame, why), = oracles._circle_fit(one[None], z[j:j + 1])
                    assert fits[j][1] == why
                    if frame is None:
                        assert fits[j][0] is None
                        continue
                    assert fits[j][0].tobytes() == frame.tobytes()
                    assert frame.tobytes() == linalg.circle_frame(
                        linalg._hermitian_eig(one, linalg.DEFAULT_TOL)
                    ).tobytes()
                    rings.append(sections.side_rings(bases[i], frame))
                if rings:
                    together = oracle.labels(np.concatenate(rings).reshape(
                        -1, n + 1)).reshape(len(rings), -1)
                    for ring, got in zip(rings, together):
                        alone = oracle.labels(ring.reshape(-1, n + 1))
                        assert got.tobytes() == alone.tobytes()
    assert stacked > 0


def test_certified_zeros_keep_one_certified_crossing():
    # The rule of _certified_zeros on rays whose labels step from -1 to 0
    # at log10 |w| = 0.5 and to +1 at 0.6, and on ray 6 from -1 to +1 at
    # 0.6: a ray keeps its one candidate that is a crossing when that
    # candidate's label is 0 (rays 0 and 2) or its flanks read -1 and +1
    # (ray 6); a crossing whose flanks read -1 and 0 (ray 1), two
    # crossings (ray 3), no crossing (ray 4) and a ray that brackets no
    # zero (ray 5) keep nothing.
    delta = oracles._FLANK

    def label(rows):
        x = np.log10(np.abs(rows[..., 0]))
        ray = np.rint(np.angle(rows[..., 0]) * oracles._RAYS / (2 * np.pi))
        step = np.where(ray == 6, 0.6, 0.5)
        return ((x >= step).astype(np.int8) + (x >= 0.6) - 1).astype(np.int8)

    cands = [[0.55], [0.5 - delta / 2], [0.3, 0.55], [0.55, 0.56], [0.3],
             [0.55], [0.6 - delta / 10]]
    x = np.full((1, 2, oracles._RAYS), np.nan)
    for j, c in enumerate(cands):
        x[0, :len(c), j] = c
    valid = np.zeros((1, oracles._RAYS), dtype=bool)
    valid[0, :len(cands)] = True
    valid[0, 5] = False
    lab_lo = np.full((1, oracles._RAYS), -1, dtype=np.int8)
    kept, zero = oracles._certified_zeros(label, x, _ray_angles(), valid,
                                          lab_lo, -lab_lo)
    assert np.flatnonzero(kept).tolist() == [0, 2, 6]
    assert zero[0, [0, 2, 6]].tolist() == [0.55, 0.55, 0.6 - delta / 10]


def test_piece_traces_label_in_few_block_calls(monkeypatch):
    # A 64-line bidisk trace labels its ends, its ray candidates at the
    # zeros and at their flanks, and the lines it still bisects, in
    # labels calls of at most _BLOCK rows.  A trace whose rays all keep
    # their proposals makes, for 64 lines, two calls for the ends, and one
    # call per candidate slot at the zeros and two at the flanks: with two
    # roots per piece, at most 2 + 3 * 4 = 14 calls, where bisecting
    # every ray made 62.
    rng = np.random.default_rng(257)
    oracle, bases, ends = _two_sided_traces(bidisk_oracle(), np.array(
        [sample_line(rng, 2).basis() for _ in range(160)]))
    lines = [convexity.AffineComplexLine(0.5 * _cgauss(rng, 2),
                                         _cgauss(rng, 2)) for _ in range(120)]
    chart_call = _record_traces(monkeypatch, [
        lambda: convexity.disk_sections(convexity.polydisk_body((1.0, 1.0)),
                                        lines)])[0]
    bisected = []
    certified = oracles._certified_zeros

    def spy_certified(*args):
        kept, zero = certified(*args)
        bisected.append(int((~kept).sum()))
        return kept, zero

    def labels_calls(o, b, e):
        # the row counts of the labels calls of the trace of b's first
        # _TRACE_LINES lines, with their labeller, and of those calls the
        # ones that bisect
        assert len(b) >= oracles._TRACE_LINES
        b, e = b[:oracles._TRACE_LINES], e[:oracles._TRACE_LINES]
        sizes, walk, side = [], [], o.side

        def spy(pts):
            sizes.append(len(pts))
            return side(pts)

        def spy_bisect(*args):
            before = len(sizes)
            out = bisect(*args)
            walk.append(len(sizes) - before)
            return out

        monkeypatch.setattr(o, "side", spy)
        monkeypatch.setattr(oracles, "_bisect", spy_bisect)
        oracles._trace_zeros(o.on_lines(b), b, e)
        return sizes, walk

    bisect = oracles._bisect
    monkeypatch.setattr(oracles, "_certified_zeros", spy_certified)
    bidisk, walk = labels_calls(oracle, bases, ends)
    chart, _ = labels_calls(*chart_call)
    # the bidisk trace bisects its rays that cross the set three times,
    # all of them together, four halvings per labels call: at most 15
    # calls, fewer once every ray has landed in the ON band
    assert bisected[0] > 0 and len(walk) == 1
    assert 0 < walk[0] <= oracles._BISECT_ITERS // oracles._HALVINGS
    assert max(bidisk) <= oracles._BLOCK
    assert bisected[1] == 0 and len(chart) <= 14
    assert max(chart) <= oracles._BLOCK


def test_tiny_circles_read_circles():
    # CP^1 quadrics whose minority side is a cap 2e-3 to 5e-3 rad wide:
    # bisection stopped anywhere in the ON band, |v| <= 1e-9 max|A|,
    # which is thick beside such a cap, and the circle fit through those
    # zeros missed the chart residual.  The zeros the form places read
    # every traced line a circle.  Lines whose stage-2 grid misses the cap
    # still read empty: the grid's resolution is about 0.01 rad.
    for diag, empty in (((-3284.0, 3.81e-3), 36), ((-62.8, 3.44e-4), 22),
                        ((1.0, -1e-6), 36), ((1.0, -1e-4), 1)):
        oracle = oracle_from_quadric(QuadricBombon(np.diag(diag)))
        rep = verify_axioms(oracle, RunConfig(seed=1, n_lines=40))
        assert rep.tallies["empty"] == empty
        assert rep.tallies["circle"] == 40 - empty
        assert rep.verdict == "ConsistentWithBombon"


def test_infinite_basis_is_a_value_error():
    # A basis entry of inf gets the finiteness error from every oracle,
    # and not a RuntimeWarning from the points built on it; proposing ray
    # zeros on degenerate trace bases warns neither.
    body = convexity.ellipsoid_body(np.zeros(2), np.eye(2))
    cases = (oracle_from_quadric(ELLIPTIC), convexity._chart_oracle(body),
             convexity._chart_oracle(convexity.polydisk_body((1.0, 1.0))),
             bidisk_oracle())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for oracle in cases:
            for bad in (np.inf, complex(0.0, -np.inf), np.nan):
                basis = np.eye(3, 2, dtype=complex)
                basis[2, 1] = bad
                with pytest.raises(ValueError,
                                   match="coordinates must be finite"):
                    oracle_line_tag(oracle, basis)
        e = np.eye(3, dtype=complex)
        traces = np.array([np.zeros((3, 2)), np.column_stack([e[0], 2j * e[0]]),
                           np.column_stack([1e-170 * e[0], e[1]]),
                           np.column_stack([e[0], e[2]])])
        for oracle in (_form_oracle(np.zeros((3, 3)), np.sign),
                       bidisk_oracle(), oracle_from_quadric(ELLIPTIC)):
            label = oracle.on_lines(traces)
            x = oracles._ray_zeros(oracles._ray_forms(label, traces),
                                   _ray_angles())
            assert x.shape[0] == 4 and x.shape[2:] == (2, oracles._RAYS)
    # the line (e0, e2) meets diag(1, 1, -1) where |w| = 1, and nowhere
    # else along a ray
    assert np.all(np.fmax(*x[3, 0]) == 0.0)


def test_line_tags_labels_calls_stay_within_block(monkeypatch):
    # No labels call and no line-labeller call exceeds _BLOCK rows, and
    # at most one chunk of 32 lines is ever read but not yet tagged, so a
    # run's working memory does not grow with its number of lines.
    x = QuadricBombon.from_epsilons([1, 1, -1, -1])
    inner = oracle_from_quadric(x)
    rng = np.random.default_rng(71)
    bases = np.array([sample_line(rng, 3).basis() for _ in range(300)])
    want = oracle_line_tags(inner, bases)
    sizes, line_sizes, open_lines, read, done = [], [], [], [], []
    call = oracles._LineLabeller.__call__

    def spy_call(self, rows):
        out = call(self, rows)
        line_sizes.append(out.size)
        return out

    monkeypatch.setattr(oracles._LineLabeller, "__call__", spy_call)
    assert oracle_line_tags(inner, bases) == want
    assert max(line_sizes) == oracles._BLOCK
    line_sizes.clear()

    def side(pts):
        sizes.append(pts.shape[0])
        open_lines.append(len(read) - len(done))
        return inner.side(pts)

    def lines():
        for b in bases:
            read.append(b)
            yield b

    original = oracles.oracle_line_tag

    def counted(*args, **kwargs):
        done.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracles, "oracle_line_tag", counted)
    spy = OracleSet(side=side, description="spy", dim=3)
    assert oracle_line_tags(spy, lines()) == want
    assert len(done) == 300
    assert max(sizes) == oracles._BLOCK
    assert max(line_sizes) == oracles._BLOCK
    assert max(open_lines) <= oracles._BLOCK // oracles._GRID


def test_fs_diameter_memory_is_bounded():
    # The diameter of a one-sided line's ON points takes no N x N Gram
    # matrix (96 MB for these 2000 points) and keeps its exact value.
    rng = np.random.default_rng(73)
    pts = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
    tracemalloc.start()
    try:
        got = oracles._fs_diameter(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    u = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    gram = np.abs(u @ u.conj().T)
    assert abs(got - np.max(np.arccos(np.clip(gram, 0.0, 1.0)))) <= 1e-12


def test_fs_diameter_of_a_tight_cluster_is_linear_time():
    # Every point within 0.1 of the first bounds the diameter by twice
    # that distance, which decides a single point; 30000 ON points skip
    # the pass over all pairs, which takes seconds.
    rng = np.random.default_rng(79)
    w = 0.01 * (rng.standard_normal(30000) + 1j * rng.standard_normal(30000))
    pts = np.column_stack([np.ones(30000), w])
    start = time.perf_counter()
    got = oracles._fs_diameter(pts)
    assert time.perf_counter() - start < 0.5
    assert got <= 0.2
    u = pts[:2000] / np.linalg.norm(pts[:2000], axis=1, keepdims=True)
    gram = np.abs(u @ u.conj().T)
    assert np.max(np.arccos(np.clip(gram, 0.0, 1.0))) <= got


def test_verify_tags_pass_through_oracle_line_tag(monkeypatch):
    # A wrapper of oracle_line_tag sees every line both verifiers tag.
    swap = {"circle": "empty", "empty": "circle"}
    original = oracles.oracle_line_tag
    seen = []

    def swapped(*args, **kwargs):
        tag, ok, summary = original(*args, **kwargs)
        seen.append(tag)
        return swap.get(tag, tag), ok, summary

    oracle = oracle_from_quadric(ELLIPTIC)
    cfg = RunConfig(seed=5, n_lines=150)
    plain = verify_axioms(oracle, cfg).to_dict()
    star = verify_point_star(oracle, np.array([0.0, 0.0, 1.0]), cfg)
    monkeypatch.setattr(oracles, "oracle_line_tag", swapped)
    rep = verify_axioms(oracle, cfg).to_dict()
    assert len(seen) == 150
    assert rep["line_tags"] == [swap.get(t, t) for t in plain["line_tags"]]
    assert rep["tallies"]["empty"] == plain["tallies"]["circle"] > 0
    seen.clear()
    swapped_star = verify_point_star(oracle, np.array([0.0, 0.0, 1.0]), cfg)
    assert len(seen) == star.circle + star.other
    assert (swapped_star.circle, swapped_star.other) == (0, star.circle)
