"""Grid oracle, membership oracles and the Monte-Carlo axiom verifier."""

import os
import subprocess
import sys

import numpy as np
import pytest

import bombon
from bombon import oracles
from bombon.errors import PreconditionError
from bombon.jsonio import canonical_dumps
from bombon.oracles import (RunConfig, bidisk_oracle, cp1_grid, fib_angles,
                            grid_line_tag, oracle_from_quadric, verify_axioms,
                            verify_point_star)
from bombon.projective import ProjLine, ProjPoint, sample_line
from bombon.quadrics import QuadricBombon, random_bombon, random_point_on
from bombon.sections import SectionTag, classify_line_section
from bombon.suite import classifier_vs_grid

ELLIPTIC = QuadricBombon.from_epsilons([1, 1, -1])


def test_fib_angles_and_grid():
    th, ph = fib_angles(128)
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


def test_cp1_grid_cached_read_only():
    grid = cp1_grid(256)
    assert cp1_grid(256) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0


def test_import_leaves_grid_cache_empty():
    code = ("import bombon, bombon.oracles as o; "
            "print(len(o._grid_cache), len(o._angle_cache))")
    src = os.path.dirname(os.path.dirname(bombon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0"]


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
            # a tangent line through a grid point that lies on the set
            p = random_point_on(rng, x).v
            ap = x.a @ p
            d = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            d = d - ap * (np.vdot(ap, d) / np.vdot(ap, ap))
            g = grid[int(rng.integers(grid.shape[0]))]
            cases.append((oracle, _line_through_grid_row(p, d, g), True))
    bidisk = bidisk_oracle()
    cases += [(bidisk, sample_line(rng, 2).basis(), False) for _ in range(4)]
    for oracle, basis, on_set in cases:
        got = oracles._grid_labels(oracle, grid, basis)
        want = oracle.labels(grid @ basis.T)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if on_set:
            assert np.any(got == 0)
    # stage-1 size: a single block
    basis = sample_line(rng, 3).basis()
    oracle = oracle_from_quadric(random_bombon(rng, 3))
    assert np.array_equal(oracles._grid_labels(oracle, cp1_grid(128), basis),
                          oracle.labels(cp1_grid(128) @ basis.T))


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
