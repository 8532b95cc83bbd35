"""Theorem regression suite.

Every documented invariant of the library runs here as a named, seeded
property over randomized instances (ambient dimension at most six).
``theorem_suite`` executes the registry deterministically from a
RunConfig seed and returns a JSON-ready report plus an exit code; a
fault-injection hook corrupts the section classifier so the harness can
prove it would notice.
"""

import numpy as np

from .actions import (CoreSplit, bundle_projection, homogeneity_transport,
                      pseudo_unitary_check, s1_action)
from .convexity import (AffineComplexLine, DiskTag, disk_section_test,
                        ellipsoid_body, john_touchpoint_check, linear_closure,
                        mvee_complex, polydisk_body)
from .jsonio import canonical_dumps
from .linalg import (hermitian_eig, max_abs, orthonormal_columns,
                     random_hermitian, random_unitary, sym, zero_tol)
from .moebius import (GenCircle, MoebiusMap, conjugate_point,
                      pushforward_circle, rotation)
from .oracles import (RunConfig, grid_line_tag, oracle_from_quadric,
                      verify_axioms)
from .projective import (ProjLine, ProjPoint, Subspace, canonicalize,
                         line_through, meet, proj_close, sample_line,
                         sample_point, span)
from .quadrics import (QuadricBombon, SideSign, SpecialKind,
                       equivalence_witness, join_with_apex, random_bombon,
                       random_point_on, random_smooth_bombon)
from .sections import (SectionClass, SectionTag, circle_points,
                       classify_line_section, section_with_subspace,
                       tangent_space)
from .version import VERSION


class SuiteContext:
    """Per-run knobs shared by all properties.

    ``classify`` is the section classifier under test; with the
    "classifier" fault injected it swaps Circle and Empty verdicts so
    any property comparing classifications to independent evidence
    must fail.
    """

    def __init__(self, cfg, corrupt=None):
        self.cfg = cfg
        self.corrupt = corrupt

    def classify(self, x, line, with_sides=False):
        sec, rep = classify_line_section(x, line, with_sides=with_sides)
        if self.corrupt == "classifier":
            swap = {SectionTag.CIRCLE: SectionTag.EMPTY,
                    SectionTag.EMPTY: SectionTag.CIRCLE}
            if sec.tag in swap:
                sec = SectionClass(swap[sec.tag], point=sec.point,
                                   circle=sec.circle,
                                   low_confidence=sec.low_confidence)
        return sec, rep

    def scaled(self, base, lo=5):
        # n_lines = 200 is the reference scale for randomized counts
        return max(lo, int(round(base * self.cfg.n_lines / 200.0)))


def _conditioned(rng, k, lo=0.3, hi=3.0):
    # invertible matrix with singular values in [lo, hi]
    s = np.exp(rng.uniform(np.log(lo), np.log(hi), size=k))
    return random_unitary(rng, k) @ np.diag(s) @ random_unitary(rng, k)


def _random_gencircle(rng):
    t = _conditioned(rng, 2)
    return GenCircle(sym(t.conj().T @ np.diag([1.0, -1.0]) @ t))


def _random_moebius(rng):
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) > 0.1:
            return MoebiusMap(m)


def _off_circle_point(rng, c):
    while True:
        z = sample_point(rng, 1)
        if abs(c.value(z)) > 1e-3 * max_abs(c.m):
            return z


def _confident_circle(rng, ctx, n_range=(2, 5), with_sides=False,
                      max_tries=400):
    for _ in range(max_tries):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        x = random_smooth_bombon(rng, n)
        line = sample_line(rng, n)
        sec, rep = ctx.classify(x, line, with_sides=with_sides)
        if sec.tag is SectionTag.CIRCLE and not sec.low_confidence:
            return x, line, sec, rep
    raise RuntimeError("no confident circle section found")


# --- projective core ------------------------------------------------------


def prop_canonicalize_idempotent(rng, ctx):
    count = ctx.scaled(200)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        c1 = canonicalize(v)
        if not np.array_equal(canonicalize(c1), c1):
            return False, count, "canonicalize moved a canonical vector"
    return True, count, f"{count} vectors, exact fixed points"


def prop_signature_unitary_invariance(rng, ctx):
    count = ctx.scaled(60)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        m = random_hermitian(rng, n + 1)
        u = random_unitary(rng, n + 1)
        s1 = hermitian_eig(m)
        s2 = hermitian_eig(sym(u.conj().T @ m @ u))
        if (s1.n_pos, s1.n_neg, s1.n_zero) != (s2.n_pos, s2.n_neg, s2.n_zero):
            return False, count, "signature counts changed under a unitary"
        if np.max(np.abs(s1.eigvals - s2.eigvals)) > 1e-8 * max(1.0, max_abs(m)):
            return False, count, "eigenvalues moved more than 1e-8"
    return True, count, f"{count} unitary conjugations"


def prop_sylvester_inertia(rng, ctx):
    count = ctx.scaled(60)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        m = random_hermitian(rng, n + 1)
        t = _conditioned(rng, n + 1)
        s1 = hermitian_eig(m)
        s2 = hermitian_eig(sym(t.conj().T @ m @ t))
        if (s1.n_pos, s1.n_neg, s1.n_zero) != (s2.n_pos, s2.n_neg, s2.n_zero):
            return False, count, "inertia changed under congruence"
    return True, count, f"{count} congruences, inertia preserved"


def prop_meet_contained_in_operands(rng, ctx):
    count = ctx.scaled(50)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        k1 = int(rng.integers(1, n + 1))
        k2 = int(rng.integers(1, n + 1))
        s = Subspace(rng.standard_normal((n + 1, k1))
                     + 1j * rng.standard_normal((n + 1, k1)))
        t = Subspace(rng.standard_normal((n + 1, k2))
                     + 1j * rng.standard_normal((n + 1, k2)))
        mt = meet(s, t)
        for j in range(mt.basis.shape[1]):
            v = mt.basis[:, j]
            if not (s.contains_vector(v, 1e-9) and t.contains_vector(v, 1e-9)):
                return False, count, "meet vector escapes an operand"
    return True, count, f"{count} random pairs"


def prop_span_monotone(rng, ctx):
    count = ctx.scaled(50)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        p = [sample_point(rng, n) for _ in range(int(rng.integers(1, n + 1)))]
        q = [sample_point(rng, n) for _ in range(int(rng.integers(1, 3)))]
        if not span(p + q, n).contains_subspace(span(p, n), 1e-9):
            return False, count, "span(P) not inside span(P union Q)"
    return True, count, f"{count} span comparisons"


# --- quadric bombons ------------------------------------------------------


def prop_fullness_identity(rng, ctx):
    count = ctx.scaled(500)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        x = random_bombon(rng, n)
        t = x.bombon_type()
        if t.p + t.q + t.sing_dim != n - 2:
            return False, count, f"fullness defect at type {t}"
    return True, count, f"{count} forms, p+q+dim(sing) = n-2 exactly"


def prop_evaluate_scale_invariance(rng, ctx):
    count = ctx.scaled(100)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        p = sample_point(rng, n)
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))
        lam = lam * np.exp(2j * np.pi * rng.uniform())
        _, s1 = x.evaluate(p)
        _, s2 = x.evaluate(ProjPoint(lam * p.v))
        if s1 != s2:
            return False, count, "side changed under scalar rescaling"
    return True, count, f"{count} rescalings"


def prop_canonical_roundtrip(rng, ctx):
    count = ctx.scaled(50)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        _, wit, canon = x.canonical_form()
        if not wit.certifies(x.a, canon):
            return False, count, "canonical witness fails its congruence"
        t = _conditioned(rng, n + 1)
        y = QuadricBombon(sym(t.conj().T @ x.a @ t))
        w2 = equivalence_witness(x, y)
        if w2.residual(x.a, y.a) > 1e-8 * max(1.0, max_abs(x.a)):
            return False, count, "equivalence witness residual too large"
    return True, count, f"{count} canonical and equivalence witnesses"


def prop_join_singular_locus(rng, ctx):
    count = ctx.scaled(40)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        m = rng.standard_normal((n + 1, n + 1)) \
            + 1j * rng.standard_normal((n + 1, n + 1))
        gamma = Subspace(m[:, :k + 1])
        delta = Subspace(m[:, k + 1:])
        nz = int(rng.integers(0, k))
        x = random_bombon(rng, k, n_zero=nz)
        j = join_with_apex(x, gamma, delta)
        sing = j.singular_locus()
        want_dim = delta.projective_dim + nz
        if sing.projective_dim != want_dim:
            return False, count, (f"singular locus dimension "
                                  f"{sing.projective_dim}, want {want_dim}")
        if not sing.contains_subspace(delta, 1e-8):
            return False, count, "apex escaped the singular locus"
        lifted = gamma.basis @ x.sig.kernel()
        for col in range(lifted.shape[1]):
            if not sing.contains_vector(lifted[:, col], 1e-8):
                return False, count, "lifted kernel escaped the singular locus"
    return True, count, f"{count} joins, locus = apex + lifted kernel"


def prop_cores_strictly_sided(rng, ctx):
    forms = ctx.scaled(20)
    per = 50
    for _ in range(forms):
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        cu, cv = x.cores()
        tau = zero_tol(x.a, x.tol)
        for sub, side in ((cu, SideSign.U), (cv, SideSign.V)):
            for _ in range(per):
                coef = rng.standard_normal(sub.basis.shape[1]) \
                    + 1j * rng.standard_normal(sub.basis.shape[1])
                p = ProjPoint(sub.basis @ coef)
                val, got = x.evaluate(p)
                if got is not side or abs(val) <= tau:
                    return False, forms * 2 * per, "core point not strictly sided"
    return True, forms * 2 * per, f"{forms * 2 * per} core samples"


# --- sections and tangents ------------------------------------------------


def prop_section_classifier_vs_grid(rng, ctx):
    count = ctx.scaled(1000, lo=40)
    low = 0
    for _ in range(count):
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        line = sample_line(rng, n)
        sec, _ = ctx.classify(x, line, with_sides=False)
        if sec.low_confidence:
            low += 1
            continue
        tag = grid_line_tag(x.a, line.basis())
        if tag is not sec.tag:
            return False, count, (f"classifier said {sec.tag.value}, "
                                  f"grid oracle said {tag.value}")
    return True, count, (f"{count} pairs, 0 disagreements, "
                         f"{low} low-confidence excluded")


def prop_circle_two_sides(rng, ctx):
    count = ctx.scaled(100)
    for _ in range(count):
        _, _, _, rep = _confident_circle(rng, ctx, with_sides=True)
        if rep is None or not rep.separates:
            return False, count, "circle section failed to separate sides"
    return True, count, f"{count} circle sections separate their disks"


def prop_circle_parametrization_lands(rng, ctx):
    count = ctx.scaled(200)
    angles = np.pi * np.arange(32) / 32.0
    for _ in range(count):
        x, _, sec, _ = _confident_circle(rng, ctx)
        worst = 0.0
        for ang in angles:
            pt = circle_points(sec.circle, np.cos(ang), np.sin(ang))
            worst = max(worst, abs(x.value(pt)))
        if worst > 1e-9 * max_abs(x.a):
            return False, count, f"parametrization residual {worst:.2e}"
    return True, count, f"{count} circles, 32-point grids land on the quadric"


def prop_tangent_hyperplane_audit(rng, ctx):
    points = ctx.scaled(100, lo=4)
    per = 64
    excluded = 0
    for _ in range(points):
        n = int(rng.integers(2, 6))
        x = random_smooth_bombon(rng, n)
        p = random_point_on(rng, x)
        h = tangent_space(x, p)
        k = h.basis.shape[1]
        for _ in range(per):
            coef = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            q = ProjPoint(h.basis @ coef)
            if proj_close(q.v, p.v, 1e-9):
                continue
            sec, _ = ctx.classify(x, line_through(p, q))
            if sec.low_confidence:
                excluded += 1
            elif sec.tag is SectionTag.CIRCLE:
                return False, points * 2 * per, "in-hyperplane line cut a circle"
        for _ in range(per):
            q = sample_point(rng, n)
            if proj_close(q.v, p.v, 1e-9):
                continue
            sec, _ = ctx.classify(x, line_through(p, q))
            if sec.low_confidence:
                excluded += 1
            elif sec.tag is not SectionTag.CIRCLE:
                return False, points * 2 * per, (
                    f"line leaving the tangent hyperplane gave "
                    f"{sec.tag.value}")
    return True, points * 2 * per, (f"{points} tangent points, "
                                    f"{excluded} low-confidence excluded")


def prop_hypersection_trichotomy(rng, ctx):
    special = ctx.scaled(16, lo=4)
    for _ in range(special):
        if rng.uniform() < 0.5:
            n = int(rng.integers(2, 5))
            x = random_smooth_bombon(rng, n, n_pos=1 if rng.uniform() < 0.5
                                     else n)
            if x.classify_special() is not SpecialKind.ELLIPTIC:
                return False, special, "expected an elliptic form"
        else:
            # conical needs max(n_pos, n_neg) >= 2 beside the kernel
            n = int(rng.integers(3, 5))
            nz = int(rng.integers(1, n - 1))
            npos = 1 if rng.uniform() < 0.5 else n - nz
            x = random_bombon(rng, n, n_pos=npos, n_zero=nz)
            if x.classify_special() is not SpecialKind.CONICAL:
                return False, special, "expected a conical form"
        p = random_point_on(rng, x)
        sec = section_with_subspace(x, tangent_space(x, p))
        if not isinstance(sec, Subspace):
            return False, special, "tangent section is not a subspace"
        if not sec.contains_point(p, 1e-7):
            return False, special, "tangent section subspace misses the point"
        want = x.sig.n_zero
        if sec.projective_dim != want:
            return False, special, (f"tangent section dimension "
                                    f"{sec.projective_dim}, want {want}")
    generic = ctx.scaled(200)
    for _ in range(generic):
        n = int(rng.integers(3, 6))
        npos = int(rng.integers(2, n))
        x = random_bombon(rng, n, n_pos=npos, n_zero=0)
        h = Subspace(rng.standard_normal((n + 1, n))
                     + 1j * rng.standard_normal((n + 1, n)))
        if not isinstance(section_with_subspace(x, h), QuadricBombon):
            return False, special + generic, (
                "hypersection of a non-elliptic smooth form is not a bombon")
    return True, special + generic, (f"{special} tangent subspace sections, "
                                     f"{generic} generic bombon sections")


# --- Moebius geometry -----------------------------------------------------


def prop_rotation_homomorphism(rng, ctx):
    count = ctx.scaled(50)
    for _ in range(count):
        c = _random_gencircle(rng)
        u = _off_circle_point(rng, c)
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        f = rotation(c, u, t1)
        g = rotation(c, u, t2)
        h = rotation(c, u, t1 + t2)
        for _ in range(5):
            z = sample_point(rng, 1)
            if not f.apply(g.apply(z).v).isclose(h.apply(z), 1e-9):
                return False, count, "rotation group law failed pointwise"
    return True, count, f"{count} angle pairs, 5 probe points each"


def prop_rotation_opposite_orientation(rng, ctx):
    count = ctx.scaled(50)
    for _ in range(count):
        c = _random_gencircle(rng)
        u = _off_circle_point(rng, c)
        v = conjugate_point(c, u)
        theta = rng.uniform(-np.pi, np.pi)
        f = rotation(c, u, theta)
        g = rotation(c, v, -theta)
        for _ in range(5):
            z = sample_point(rng, 1)
            if not f.apply(z).isclose(g.apply(z), 1e-9):
                return False, count, ("conjugate-centered rotation is not "
                                      "the inverse orientation")
    return True, count, f"{count} rotations match their conjugate reversal"


def prop_conjugate_point_involution(rng, ctx):
    count = ctx.scaled(100)
    for _ in range(count):
        c = _random_gencircle(rng)
        u = _off_circle_point(rng, c)
        w = conjugate_point(c, u)
        if not conjugate_point(c, w).isclose(u, 1e-9):
            return False, count, "conjugation applied twice moved the point"
    return True, count, f"{count} involutions"


def prop_circle_moebius_covariance(rng, ctx):
    count = ctx.scaled(200)
    for _ in range(count):
        c = _random_gencircle(rng)
        f = _random_moebius(rng)
        push = pushforward_circle(f, c)
        back = c.to_unit_chart().inverse()
        zon = back.apply([np.exp(2j * np.pi * rng.uniform()), 1.0])
        if abs(push.value(f.apply(zon).v)) > 1e-7 * max_abs(push.m):
            return False, count, "on-circle point left the pushforward circle"
        zoff = _off_circle_point(rng, c)
        if c.side(zoff) != push.side(f.apply(zoff).v):
            return False, count, "side flipped under pushforward"
    return True, count, f"{count} maps, membership and sides covariant"


def prop_gencircle_matches_classifier(rng, ctx):
    count = ctx.scaled(100)
    full = ProjLine(np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex))
    for _ in range(count):
        m = random_hermitian(rng, 2)
        sig = hermitian_eig(m)
        if sig.n_zero:
            continue
        mixed = sig.n_pos == 1 and sig.n_neg == 1
        if mixed:
            x = QuadricBombon(m)
            sec, _ = ctx.classify(x, full)
            if sec.tag is not SectionTag.CIRCLE:
                return False, count, "mixed 2x2 form not classified Circle"
            circ = GenCircle(m)
            for z in circ.witness_zeros():
                if not x.contains(z):
                    return False, count, "circle witness zero left the quadric"
        else:
            try:
                GenCircle(m)
                return False, count, "GenCircle accepted a non-mixed form"
            except ValueError:
                pass
    return True, count, f"{count} 2x2 forms, circle iff signature (1,1)"


# --- group actions --------------------------------------------------------


def prop_s1_group_law(rng, ctx):
    count = ctx.scaled(100)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        x = random_smooth_bombon(rng, n)
        split = CoreSplit.from_quadric(x)
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        lhs = s1_action(x, split, t1, s1_action(x, split, t2, v))
        rhs = s1_action(x, split, t1 + t2, v)
        if np.max(np.abs(lhs - rhs)) > 1e-12 * np.linalg.norm(v):
            return False, count, "group law residual above 1e-12"
    return True, count, f"{count} compositions"


def prop_orbit_circle_coincidence(rng, ctx):
    count = ctx.scaled(100)
    thetas = 2.0 * np.pi * np.arange(16) / 16.0
    for _ in range(count):
        n = int(rng.integers(1, 6))
        x = random_smooth_bombon(rng, n)
        split = CoreSplit.from_quadric(x)
        p = random_point_on(rng, x)
        pu, pv = bundle_projection(x, split, p)
        orbit = np.stack([s1_action(x, split, t, p.unit) for t in thetas])
        vals = [abs(x.value(ProjPoint(w))) for w in orbit]
        if max(vals) > 1e-9:
            return False, count, f"orbit value {max(vals):.2e} off the quadric"
        stacked = np.column_stack([pu.v, pv.v, orbit.T])
        if orthonormal_columns(stacked, rtol=1e-9).shape[1] != 2:
            return False, count, "orbit left the bundle projection line"
    return True, count, f"{count} orbits of 16 samples on their lines"


def prop_fixed_points_are_cores(rng, ctx):
    count = ctx.scaled(30)
    theta = 1.7
    for _ in range(count):
        n = int(rng.integers(1, 6))
        x = random_smooth_bombon(rng, n)
        split = CoreSplit.from_quadric(x)
        cu, cv = x.cores()
        for sub in (cu, cv):
            coef = rng.standard_normal(sub.basis.shape[1]) \
                + 1j * rng.standard_normal(sub.basis.shape[1])
            w = sub.basis @ coef
            moved = s1_action(x, split, theta, w)
            if not proj_close(moved, w, 1e-9):
                return False, count, "core point moved under the action"
        p = random_point_on(rng, x)
        moved = s1_action(x, split, theta, p.unit)
        if proj_close(moved, p.unit, 1e-6):
            return False, count, "generic quadric point was fixed"
    return True, count, f"{count} forms, fixed set = union of cores"


def prop_transport_preserves_sections(rng, ctx):
    count = ctx.scaled(20)
    per = 5
    checked = 0
    for _ in range(count):
        n = int(rng.integers(2, 6))
        x = random_smooth_bombon(rng, n)
        p = random_point_on(rng, x)
        q = random_point_on(rng, x)
        w = homogeneity_transport(x, p, q)
        for _ in range(per):
            line = sample_line(rng, n)
            s1, _ = ctx.classify(x, line)
            moved = ProjLine(w.t @ line.a, w.t @ line.b)
            s2, _ = ctx.classify(x, moved)
            if s1.low_confidence or s2.low_confidence:
                continue
            checked += 1
            if s1.tag is not s2.tag:
                return False, count * per, (
                    f"transport changed {s1.tag.value} to {s2.tag.value}")
    return True, count * per, f"{checked} transported lines kept their tags"


def prop_transport_via_intermediate(rng, ctx):
    count = ctx.scaled(20)
    for _ in range(count):
        extra = int(rng.integers(0, 2))
        dim = 4 + extra
        signs = np.array([1.0, 1.0] + [-1.0] * (dim - 2))
        u = random_unitary(rng, dim)
        x = QuadricBombon(sym(u @ np.diag(signs) @ u.conj().T))
        e = np.eye(dim, dtype=complex)
        xv = ProjPoint(u @ (e[:, 0] + e[:, 2]))
        yv = ProjPoint(u @ (e[:, 1] + e[:, 3]))
        sec, _ = ctx.classify(x, line_through(xv, yv))
        if sec.tag is not SectionTag.FULL_LINE:
            return False, count, "constructed isotropic plane is not full"
        z = None
        for _ in range(200):
            cand = random_point_on(rng, x)
            if proj_close(cand.v, xv.v, 1e-6) or proj_close(cand.v, yv.v, 1e-6):
                continue
            s1, _ = ctx.classify(x, line_through(cand, xv))
            s2, _ = ctx.classify(x, line_through(cand, yv))
            if (s1.tag is SectionTag.CIRCLE and s2.tag is SectionTag.CIRCLE
                    and not s1.low_confidence and not s2.low_confidence):
                z = cand
                break
        if z is None:
            return False, count, "no usable intermediate point found"
        t = homogeneity_transport(x, z, yv).t @ homogeneity_transport(x, xv, z).t
        if not pseudo_unitary_check(t, x.a, 1e-7):
            return False, count, "composed transport is not pseudo-unitary"
        if not proj_close(t @ xv.v, yv.v, 1e-8):
            return False, count, "composed transport missed the target point"
    return True, count, f"{count} full-line pairs routed through intermediates"


# --- convex appendix ------------------------------------------------------


def _random_ellipsoid(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = sym(m @ m.conj().T) + 0.3 * np.eye(n)
    c = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ellipsoid_body(c, h)


def prop_ellipsoid_sections_are_disks(rng, ctx):
    count = ctx.scaled(500)
    allowed = {DiskTag.DISK, DiskTag.POINT, DiskTag.EMPTY}
    tally = {t: 0 for t in DiskTag}
    for _ in range(count):
        n = int(rng.integers(2, 4))
        body = _random_ellipsoid(rng, n)
        base = 0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        verdict = disk_section_test(body, AffineComplexLine(base, d),
                                    tol=1e-3, rng=rng)
        tally[verdict.tag] += 1
        if verdict.tag not in allowed:
            return False, count, (f"ellipsoid section judged "
                                  f"{verdict.tag.value} "
                                  f"(deviation {verdict.deviation:.2e})")
    return True, count, (f"{count} lines: {tally[DiskTag.DISK]} disks, "
                         f"{tally[DiskTag.POINT]} points, "
                         f"{tally[DiskTag.EMPTY]} empty")


def prop_bidisk_finds_not_a_disk(rng, ctx):
    count = ctx.scaled(100)
    body = polydisk_body((1.0, 1.0))
    found = 0
    for _ in range(count):
        base = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        verdict = disk_section_test(body, AffineComplexLine(base, d),
                                    tol=1e-3, rng=rng)
        if verdict.tag is DiskTag.NOT_A_DISK:
            found += 1
    if found == 0:
        return False, count, "no lens section found on the bidisk"
    return True, count, f"{found} of {count} bidisk sections are not disks"


def prop_mvee_certificate(rng, ctx):
    count = ctx.scaled(8, lo=3)
    eps = 1e-6
    for _ in range(count):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2 * n + 2, 4 * n + 5))
        pts = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        ell = mvee_complex(pts, eps=eps)
        gaps = np.asarray(ell.gap_history)
        if np.any(np.diff(gaps) > 1e-15):
            return False, count, "duality gap certificate increased"
        if float(np.max(ell.gauge(pts))) > 1.0 + eps + 1e-9:
            return False, count, "a point escaped the certified ellipsoid"
        if not john_touchpoint_check(pts, ell):
            return False, count, "touching points fail to span affinely"
    return True, count, f"{count} ellipsoids certified to gap {eps:.0e}"


def prop_mvee_equivariance(rng, ctx):
    count = ctx.scaled(8, lo=3)
    for _ in range(count):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2 * n + 2, 3 * n + 4))
        pts = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        s = _conditioned(rng, n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        e1 = mvee_complex(pts, eps=1e-6)
        e2 = mvee_complex(pts @ s.T + b, eps=1e-6)
        if np.max(np.abs(e2.center - (s @ e1.center + b))) > 1e-6:
            return False, count, "MVEE center is not equivariant"
        pulled = sym(s.conj().T @ e2.h @ s)
        if max_abs(pulled - e1.h) > 1e-6 * max(1.0, max_abs(e1.h)):
            return False, count, "MVEE form is not equivariant"
    return True, count, f"{count} affine images match"


def prop_linear_closure_laws(rng, ctx):
    count = ctx.scaled(30)
    for _ in range(count):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 2))
        pts = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cl = linear_closure(pts)
        c, r = cl.sphere_center_radius()
        extra = []
        for _ in range(3):
            if cl.dim == 0 or r == 0:
                extra.append(pts[0])
                continue
            w = rng.standard_normal(cl.dim) + 1j * rng.standard_normal(cl.dim)
            w = r * w / np.linalg.norm(w)
            extra.append(c + cl.directions @ w)
        cl2 = linear_closure(np.vstack([pts, np.asarray(extra)]))
        if cl2.dim != cl.dim:
            return False, count, "closure grew on its own sphere points"
        more = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        more = more / np.linalg.norm(more, axis=1, keepdims=True)
        big = linear_closure(np.vstack([pts, more]))
        ok = big.contains(pts[0], 1e-7) and all(
            big.contains(pts[0] + cl.directions[:, j], 1e-7)
            for j in range(cl.dim))
        if not ok:
            return False, count, "closure is not monotone"
    return True, count, f"{count} closures, idempotent and monotone"


# --- verifier and report plumbing -----------------------------------------


def prop_report_determinism(rng, ctx):
    cfg = RunConfig(seed=int(rng.integers(2 ** 31)),
                    n_lines=min(ctx.cfg.n_lines, 60),
                    tolerances=dict(ctx.cfg.tolerances))
    x = random_smooth_bombon(rng, 2)
    r1 = verify_axioms(oracle_from_quadric(x), cfg)
    r2 = verify_axioms(oracle_from_quadric(x), cfg)
    if canonical_dumps(r1.to_dict()) != canonical_dumps(r2.to_dict()):
        return False, 2, "identical configs produced different reports"
    return True, 2, f"two runs of {cfg.n_lines} lines, byte-identical"


def prop_verifier_matches_classifier(rng, ctx):
    cfg = RunConfig(seed=int(rng.integers(2 ** 31)),
                    n_lines=min(ctx.cfg.n_lines, 120),
                    tolerances=dict(ctx.cfg.tolerances))
    x = random_smooth_bombon(rng, 2)
    rep = verify_axioms(oracle_from_quadric(x), cfg)
    mirror = np.random.default_rng(cfg.seed)
    low = 0
    for i in range(cfg.n_lines):
        line = sample_line(mirror, 2)
        sec, _ = ctx.classify(x, line)
        if sec.low_confidence:
            low += 1
            continue
        if rep.line_tags[i] != sec.tag.value:
            return False, cfg.n_lines, (
                f"line {i}: verifier {rep.line_tags[i]}, "
                f"classifier {sec.tag.value}")
    if sum(rep.tallies.values()) != rep.lines_tested:
        return False, cfg.n_lines, "tallies do not sum to lines tested"
    return True, cfg.n_lines, (f"{cfg.n_lines} lines agree, "
                               f"{low} low-confidence excluded")


def prop_exit_code_contract(rng, ctx):
    if ctx.corrupt is not None:
        return True, 0, "skipped under fault injection (would recurse)"
    cfg = RunConfig(seed=ctx.cfg.seed + 101, n_lines=10,
                    tolerances=dict(ctx.cfg.tolerances))
    good, code_good = theorem_suite(cfg, names=("canonicalize_idempotent",
                                                "evaluate_scale_invariance"))
    if code_good != 0 or good["failures"] != 0:
        return False, 2, "clean sub-run did not exit 0"
    bad, code_bad = theorem_suite(cfg, corrupt="classifier",
                                  names=("section_classifier_vs_grid",))
    named = [p["name"] for p in bad["properties"] if not p["passed"]]
    if code_bad != 1 or named != ["section_classifier_vs_grid"]:
        return False, 2, "fault injection did not fail the named property"
    return True, 2, "exit 0 iff zero failures, fault injection detected"


REGISTRY = (
    ("canonicalize_idempotent", prop_canonicalize_idempotent),
    ("signature_unitary_invariance", prop_signature_unitary_invariance),
    ("sylvester_inertia", prop_sylvester_inertia),
    ("meet_contained_in_operands", prop_meet_contained_in_operands),
    ("span_monotone", prop_span_monotone),
    ("fullness_identity", prop_fullness_identity),
    ("evaluate_scale_invariance", prop_evaluate_scale_invariance),
    ("canonical_roundtrip", prop_canonical_roundtrip),
    ("join_singular_locus", prop_join_singular_locus),
    ("cores_strictly_sided", prop_cores_strictly_sided),
    ("section_classifier_vs_grid", prop_section_classifier_vs_grid),
    ("circle_two_sides", prop_circle_two_sides),
    ("circle_parametrization_lands", prop_circle_parametrization_lands),
    ("tangent_hyperplane_audit", prop_tangent_hyperplane_audit),
    ("hypersection_trichotomy", prop_hypersection_trichotomy),
    ("rotation_homomorphism", prop_rotation_homomorphism),
    ("rotation_opposite_orientation", prop_rotation_opposite_orientation),
    ("conjugate_point_involution", prop_conjugate_point_involution),
    ("circle_moebius_covariance", prop_circle_moebius_covariance),
    ("gencircle_matches_classifier", prop_gencircle_matches_classifier),
    ("s1_group_law", prop_s1_group_law),
    ("orbit_circle_coincidence", prop_orbit_circle_coincidence),
    ("fixed_points_are_cores", prop_fixed_points_are_cores),
    ("transport_preserves_sections", prop_transport_preserves_sections),
    ("transport_via_intermediate", prop_transport_via_intermediate),
    ("ellipsoid_sections_are_disks", prop_ellipsoid_sections_are_disks),
    ("bidisk_finds_not_a_disk", prop_bidisk_finds_not_a_disk),
    ("mvee_certificate", prop_mvee_certificate),
    ("mvee_equivariance", prop_mvee_equivariance),
    ("linear_closure_laws", prop_linear_closure_laws),
    ("report_determinism", prop_report_determinism),
    ("verifier_matches_classifier", prop_verifier_matches_classifier),
    ("exit_code_contract", prop_exit_code_contract),
)


def theorem_suite(cfg=None, corrupt=None, names=None):
    """Run the property registry; return (report dict, exit code).

    Each property draws from its own SeedSequence child keyed by
    registry position, so a subset run reproduces exactly what the full
    run would feed the same property.  ``corrupt`` injects the named
    fault ("classifier") to prove the suite notices; ``names`` selects a
    subset.
    """
    cfg = RunConfig() if cfg is None else cfg
    if names is not None:
        known = {name for name, _ in REGISTRY}
        bad = sorted(set(names) - known)
        if bad:
            raise ValueError(f"unknown properties: {', '.join(bad)}")
    children = np.random.SeedSequence(cfg.seed).spawn(len(REGISTRY))
    selected = None if names is None else set(names)
    results = []
    failures = 0
    for i, (name, fn) in enumerate(REGISTRY):
        if selected is not None and name not in selected:
            continue
        ctx = SuiteContext(cfg, corrupt)
        rng = np.random.default_rng(children[i])
        try:
            ok, count, detail = fn(rng, ctx)
        except Exception as exc:
            ok, count, detail = False, 0, (f"raised {type(exc).__name__}: "
                                           f"{exc}")
        results.append({"name": name, "passed": bool(ok),
                        "count": int(count), "detail": str(detail)})
        if not ok:
            failures += 1
    report = {"version": VERSION,
              "config": cfg.to_dict(),
              "fault": corrupt if corrupt else "none",
              "properties": results,
              "failures": failures,
              "verdict": "pass" if failures == 0 else "fail"}
    return report, (0 if failures == 0 else 1)
