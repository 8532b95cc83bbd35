"""Inputs, operations and output checks of the three benchmark workloads.

Every input is generated from the workload seed at set-up, and the
program only ever sees the generated objects.  The forms, lines and
points are built with numpy from their eigendecompositions, so the
answer each op must give is known from the construction.  A workload is
a fixed pool of operations; the runner repeats it in a closed loop with
one client.  Each pool is built with fixed shares of every input kind
(for verify, shares measured at set-up that depend on the oracle's
signature alone), so the mix of work does not depend on the seed.

- classify: ``classify_line_section`` on quadrics in CP^1..CP^5 of every
  kernel size, each line once with and once without the two-sides probe.
- verify:   ``verify_axioms`` on quadric oracles in CP^2..CP^4, with each
  oracle's natural share of empty lines, and on the bidisk oracle; plus
  batches of convex-body sections, MVEE fits and grid-oracle line tags.
- forms:    in-process ``bombon`` CLI requests on CP^3, CP^11, CP^23.
"""

import contextlib
import io
import json
import os
import time

import numpy as np

import reference
from bombon import (actions, cli, convexity, jsonio, oracles, projective,
                    quadrics, sections)

# seconds of ops between two runs of the reference kernel
REF_EVERY_S = 0.02

# --- numpy-only generators ---------------------------------------------------


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit(v):
    return v / np.linalg.norm(v)


def _unitary(rng, k):
    q, r = np.linalg.qr(_cgauss(rng, k, k))
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


class Form:
    """A Hermitian form U diag(eigs) U* with its construction data."""

    def __init__(self, rng, n_pos, n_neg, n_zero, lo=0.3, hi=3.0):
        dim = n_pos + n_neg + n_zero
        mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
        self.eigs = mags * np.array([1.0] * n_pos + [-1.0] * n_neg
                                    + [0.0] * n_zero)
        self.u = _unitary(rng, dim)
        a = self.u @ np.diag(self.eigs) @ self.u.conj().T
        self.a = (a + a.conj().T) / 2.0
        self.n_pos, self.n_neg, self.n_zero = n_pos, n_neg, n_zero
        self.dim = dim

    def cols(self, sign):
        if sign > 0:
            return self.u[:, self.eigs > 0]
        if sign < 0:
            return self.u[:, self.eigs < 0]
        return self.u[:, self.eigs == 0]

    def value(self, v):
        return float(np.real(np.vdot(v, self.a @ v)))

    def point_on(self, rng):
        """Unit vector with v* A v = 0 up to rounding, off the kernel."""
        vp = self.cols(1) @ _cgauss(rng, self.n_pos)
        vn = self.cols(-1) @ _cgauss(rng, self.n_neg)
        p = vp / np.sqrt(self.value(vp)) + vn / np.sqrt(-self.value(vn))
        if self.n_zero:
            p = p + 0.3 * (self.cols(0) @ _cgauss(rng, self.n_zero))
        return _unit(p)

    def tangent_direction(self, rng, p):
        """Unit vector q with p* A q = 0 and |q* A q| well away from 0."""
        ap = self.a @ p
        while True:
            r = _cgauss(rng, self.dim)
            q = _unit(r - ap * (np.vdot(ap, r) / np.vdot(ap, ap)))
            if abs(self.value(q)) > 0.05:
                return q

    def line_kinds(self, a, b, margin=1e-3):
        """Kind of each line through rows a[i], b[i]: 'circle' or 'empty'
        from the sign of the restricted determinant, None when the line
        is too close to tangency to call."""
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        aa = np.einsum("ij,ij->i", a.conj(), a @ self.a.T)
        bb = np.einsum("ij,ij->i", b.conj(), b @ self.a.T)
        ab = np.einsum("ij,ij->i", a.conj(), b @ self.a.T)
        det = aa.real * bb.real - np.abs(ab) ** 2
        scale = np.max(np.abs(np.stack([aa, bb, ab])), axis=0)
        cut = margin * scale * scale
        return [("circle" if d < -c else "empty" if d > c else None)
                for d, c in zip(det, cut)]

    def verifier_line_kinds(self, seed, n_lines):
        """Kinds of the lines ``verify_axioms`` draws for RunConfig seed
        ``seed``: the same standard-normal stream as ``sample_line``."""
        z = np.random.default_rng(seed).standard_normal((n_lines, 4, self.dim))
        return self.line_kinds(z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3])


# --- op plumbing -------------------------------------------------------------


class Raised:
    """Output of an op that raised; never equal to a real output."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text})"


class Workload:
    """A fixed pool of ops.

    ``run_pass()`` runs every op once and returns (op index, seconds,
    output) for each, and the times of the reference kernel runs made
    between the ops, at least one every ``REF_EVERY_S`` seconds.
    """

    name = ""
    op_unit = "op"

    def __init__(self):
        self.ops = []

    @property
    def pool_size(self):
        return len(self.ops)

    def warm_up(self):
        self.run_pass()

    def run_pass(self, tracer=None):
        results = []
        refs = []
        perf = time.perf_counter
        next_ref = perf()
        for i, op in enumerate(self.ops):
            if perf() >= next_ref:
                refs.append(reference.sample())
                next_ref = perf() + REF_EVERY_S
            if tracer is not None:
                tracer.op_id += 1
                span = tracer.open()
            t0 = perf()
            try:
                out = op()
            except Exception as exc:  # an op that raises is a failed op
                out = Raised(exc)
            dt = perf() - t0
            if tracer is not None:
                tracer.close(span, f"op.{self.name}")
            results.append((i, dt, out))
        refs.append(reference.sample())
        return results, refs

    def describe(self):
        """Diagnostic lines about the inputs built at set-up."""
        return []

    def fingerprint(self, index, out):
        """Comparable form of an op's output, for cross-pass identity."""
        return repr(out)

    def check(self, index, out):
        """Full check of an op's output; returns an error string or None."""
        raise NotImplementedError

    def groups(self):
        """Op index -> group label for the per-group latency table."""
        return {}

    def close(self):
        pass


# --- classify ----------------------------------------------------------------


class ClassifyWorkload(Workload):
    """Line sections on CP^1..CP^5 quadrics of every kernel size.

    Per quadric: random lines with a fixed count of circles and of
    empties (by the sign of the restricted determinant), tangent lines
    (single point), lines nudged off tangency so that a restricted
    eigenvalue sits within 10x of the zero cut (low confidence), and,
    when the kernel has dimension >= 2, lines inside the singular locus
    (full line).  One op is one ``classify_line_section`` call; every
    line is classified twice in a row, once without and once with the
    two-sides probe, so half the ops use each mode.
    """

    name = "classify"
    op_unit = "classify_line_section call"

    def __init__(self, seed, tiny=False):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        n_circ, n_empty, n_tan, n_nudge, n_full = (
            (3, 1, 1, 1, 1) if tiny else (12, 4, 4, 2, 2))
        self.items = []   # (quadric, line, kind)
        for n in range(1, 6):
            for n_zero in range(0, n):
                nonzero = n + 1 - n_zero
                n_pos = nonzero // 2
                form = Form(rng, n_pos, nonzero - n_pos, n_zero)
                x = quadrics.QuadricBombon(form.a)
                lines = self._lines(rng, form, n, n_circ, n_empty, n_tan,
                                    n_nudge, n_full)
                for a, b, kind in lines:
                    self.items.append((x, projective.ProjLine(a, b), kind))
        for x, line, _ in self.items:
            self.ops += [self._op(x, line, False), self._op(x, line, True)]
        self._grid = {}

    @staticmethod
    def _lines(rng, form, n, n_circ, n_empty, n_tan, n_nudge, n_full):
        out = []
        want = {"circle": n_circ,
                "empty": n_empty if max(form.n_pos, form.n_neg) >= 2 else 0}
        if want["empty"] == 0:
            want["circle"] += n_empty
        while any(want.values()):
            a = _unit(_cgauss(rng, form.dim))
            b = _unit(_cgauss(rng, form.dim))
            kind = form.line_kinds(a[None], b[None])[0]
            if kind is not None and want[kind] > 0:
                want[kind] -= 1
                out.append((a, b, kind))
        # a tangent hyperplane carries a nonzero restricted form only when
        # one side has two dimensions; flat quadrics are tangent-free
        if max(form.n_pos, form.n_neg) >= 2:
            for _ in range(n_tan):
                p = form.point_on(rng)
                out.append((p, form.tangent_direction(rng, p), "single_point"))
            for _ in range(n_nudge):
                p = form.point_on(rng)
                q = form.tangent_direction(rng, p)
                c = form.value(q)
                # restricted diagonal entry eps with 0.1 thr < |eps| <= 10 thr
                eps = (rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0])
                       * 1e-9 * max(1.0, abs(c)))
                ap = form.a @ p
                p2 = _unit(p + (eps / (2.0 * np.vdot(ap, ap).real)) * ap)
                out.append((p2, form.tangent_direction(rng, p2), "nudged"))
        if form.n_zero >= 2:
            ker = form.cols(0)
            for _ in range(n_full):
                out.append((_unit(ker @ _cgauss(rng, form.n_zero)),
                            _unit(ker @ _cgauss(rng, form.n_zero)),
                            "full_line"))
        return out

    @staticmethod
    def _op(x, line, with_sides):
        return lambda: sections.classify_line_section(x, line,
                                                      with_sides=with_sides)

    def fingerprint(self, index, out):
        if isinstance(out, Raised):
            return repr(out)
        sec, rep = out
        return (sec.tag.value, sec.low_confidence,
                None if rep is None else rep.separates)

    def check(self, index, out):
        x, line, kind = self.items[index // 2]
        with_sides = index % 2 == 1
        if isinstance(out, Raised):
            return f"raised {out.text}"
        sec, rep = out
        tag = sec.tag.value
        # the same line in the other mode must get the same verdict
        other, _ = sections.classify_line_section(x, line,
                                                  with_sides=not with_sides)
        if (other.tag, other.low_confidence) != (sec.tag, sec.low_confidence):
            return (f"verdict with_sides={with_sides} {tag}, "
                    f"with_sides={not with_sides} {other.tag.value}")
        if kind == "nudged":
            return None if sec.low_confidence else (
                f"nudged tangent line classified {tag} with full confidence")
        if sec.low_confidence:
            return f"{kind} line flagged low confidence ({tag})"
        if tag != kind:
            return f"built as {kind}, classified {tag}"
        if index // 2 not in self._grid:
            self._grid[index // 2] = oracles.grid_line_tag(
                x.a, line.basis()).value
        grid = self._grid[index // 2]
        if grid != tag:
            return f"classifier said {tag}, grid oracle said {grid}"
        if with_sides and tag == "circle" and (rep is None
                                               or not rep.separates):
            return "circle with sides does not separate the two sides"
        return None

    def groups(self):
        return {i: f"{self.items[i // 2][2]}/{('nosides', 'sides')[i % 2]}"
                for i in range(len(self.ops))}


# --- verify ------------------------------------------------------------------


class VerifyWorkload(Workload):
    """Oracle checks: ``verify_axioms`` on membership oracles, plus the
    convex-body and grid oracles in batches.

    Empty lines set the cost of ``verify_axioms`` (each pays for the
    131072-point stage-2 grid), so its calls carry each oracle's natural
    share of them.  At set-up that share is measured over
    ``SHARE_LINES`` lines drawn the way ``verify_axioms`` draws them;
    ``CALLS`` calls of ``LINES`` lines then carry that share of empty
    lines, rounded to whole lines and spread evenly over the calls, and
    each call's RunConfig seed is picked so that its lines hold exactly
    its planned empties.  The quadric forms have eigenvalues of modulus
    1, so the share depends on the signature alone and not on the seed.
    The bidisk oracle runs more lines per call so that it reports
    nonconforming lines.

    The batch ops, ``BATCH`` items each so that they cost about as much
    as a ``verify_axioms`` call: ``disk_section_test`` on lines through
    random ellipsoids and through the bidisk, ``mvee_complex`` on point
    clouds, and ``grid_line_tag`` on lines of two of the quadrics.  Every
    line is drawn the way the suite draws it and kept only when its
    section is clear of the verdict boundaries, so the answer is known
    from the geometry.
    """

    name = "verify"
    op_unit = "oracle check"

    # (label, (n_pos, n_neg, n_zero))
    ORACLES = (("cp2_elliptic", (1, 2, 0)),
               ("cp3_elliptic", (1, 3, 0)),
               ("cp3_balanced", (2, 2, 0)),
               ("cp4_elliptic", (1, 4, 0)),
               ("cp4_balanced", (2, 3, 0)),
               ("cp3_singular", (1, 2, 1)))
    LINES = 2
    CALLS = 6
    SHARE_LINES = 4000
    BIDISK_LINES = 16
    BATCH = 8
    GRID_FORMS = ("cp3_balanced", "cp4_elliptic")

    def __init__(self, seed, tiny=False):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        calls = self.n_calls = 1 if tiny else self.CALLS
        self.items = []   # (label, kind, data)
        self.shares = []  # (label, measured empty share, planned empties)
        forms = {}
        for label, sig in self.ORACLES:
            form = forms[label] = Form(rng, *sig, lo=1.0, hi=1.0)
            x = quadrics.QuadricBombon(form.a)
            orc = oracles.oracle_from_quadric(x)
            kinds = form.verifier_line_kinds(int(rng.integers(2 ** 31)),
                                             self.SHARE_LINES)
            share = kinds.count("empty") / len(kinds)
            total = round(share * calls * self.LINES)
            self.shares.append((label, share, total))
            for c in range(calls):
                empties = total // calls + (c < total % calls)
                cfg = oracles.RunConfig(
                    seed=self._pick_seed(rng, form, self.LINES, empties),
                    n_lines=self.LINES)
                self.items.append((label, "axioms", (orc, cfg, x)))
        bidisk = oracles.bidisk_oracle()
        for _ in range(1 if tiny else 2):
            cfg = oracles.RunConfig(seed=int(rng.integers(2 ** 31)),
                                    n_lines=self.BIDISK_LINES)
            self.items.append(("bidisk", "axioms", (bidisk, cfg, None)))
        batch = 2 if tiny else self.BATCH
        for n in (2, 3):
            self.items.append((f"ellipsoid_c{n}_sections", "sections",
                               self._ellipsoid_lines(rng, n, batch)))
        self.items.append(("bidisk_sections", "sections",
                           self._bidisk_lines(rng, batch)))
        self.items.append(("mvee", "mvee",
                           self._clouds(rng, batch)))
        for label in self.GRID_FORMS:
            self.items.append((f"{label}_grid", "grid",
                               self._grid_lines(rng, forms[label], batch)))
        for label, kind, data in self.items:
            self.ops.append(getattr(self, f"_op_{kind}")(*data[:2]))

    @staticmethod
    def _pick_seed(rng, form, n_lines, n_empty):
        # the first seed whose lines hold exactly n_empty clear empties
        # and no borderline line
        while True:
            seed = int(rng.integers(2 ** 31))
            kinds = form.verifier_line_kinds(seed, n_lines)
            if None not in kinds and kinds.count("empty") == n_empty:
                return seed

    # Each kept line comes with its exact section in the line's t-plane:
    # (tag, center, radius), center and radius None unless a disk.

    @staticmethod
    def _ellipsoid_lines(rng, n, count):
        m = _cgauss(rng, n, n)
        h = m @ m.conj().T + 0.3 * np.eye(n)
        h = (h + h.conj().T) / 2.0
        c = 0.3 * _cgauss(rng, n)
        body = convexity.ellipsoid_body(c, h)
        pitch = 2.0 * body.bounding_radius / convexity._GRID
        lines = []
        while len(lines) < count:
            line = convexity.AffineComplexLine(0.8 * _cgauss(rng, n),
                                               _cgauss(rng, n))
            e = line.base - c
            a = float(np.real(np.vdot(line.direction, h @ line.direction)))
            b = complex(np.vdot(line.direction, h @ e))
            low = float(np.real(np.vdot(e, h @ e))) - abs(b) ** 2 / a
            if low > 1.1:
                lines.append((line, ("empty", None, None)))
            elif low < 0.8:
                radius = float(np.sqrt((1.0 - low) / a))
                if radius > 4.0 * pitch:
                    lines.append((line, ("disk", -b / a, radius)))
        return body, lines

    @staticmethod
    def _bidisk_lines(rng, count):
        body = convexity.polydisk_body((1.0, 1.0))
        pitch = 2.0 * body.bounding_radius / convexity._GRID
        lines = []
        while len(lines) < count:
            line = convexity.AffineComplexLine(0.5 * _cgauss(rng, 2),
                                               _cgauss(rng, 2))
            # |base_i + t dir_i| <= 1 is the disk about -base_i / dir_i of
            # radius 1 / |dir_i| in the t-plane; the section is their meet
            disks = sorted(((-line.base[i] / line.direction[i],
                             1.0 / abs(line.direction[i])) for i in (0, 1)),
                           key=lambda d: d[1])
            (c1, r1), (c2, r2) = disks
            dist = abs(c1 - c2)
            if r1 < 4.0 * pitch:
                continue
            if dist + r1 < r2 - 0.05 * r1:
                lines.append((line, ("disk", c1, r1)))
            elif dist > r1 + r2 + 0.05 * r1:
                lines.append((line, ("empty", None, None)))
            elif r2 - r1 + 0.2 * r1 < dist < r1 + r2 - 0.5 * r1:
                lines.append((line, ("not_a_disk", None, None)))
        return body, lines

    @staticmethod
    def _clouds(rng, count):
        clouds = []
        for _ in range(count):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2 * n + 2, 4 * n + 5))
            clouds.append(_cgauss(rng, m, n))
        return clouds, None

    @staticmethod
    def _grid_lines(rng, form, count):
        lines = []
        while len(lines) < count:
            a = _unit(_cgauss(rng, form.dim))
            b = _unit(_cgauss(rng, form.dim))
            kind = form.line_kinds(a[None], b[None])[0]
            if kind is not None:
                lines.append((projective.ProjLine(a, b), kind))
        return form.a, lines

    def describe(self):
        return [f"#   oracle {label:<14} empty share {share:.3f} over "
                f"{self.SHARE_LINES} lines -> {total} of "
                f"{self.n_calls * self.LINES} lines empty"
                for label, share, total in self.shares]

    @staticmethod
    def _op_axioms(orc, cfg):
        return lambda: oracles.verify_axioms(orc, cfg)

    @staticmethod
    def _op_sections(body, lines):
        # a fixed generator per line, so every run of the op is the same
        return lambda: [convexity.disk_section_test(
            body, line, tol=1e-3, rng=np.random.default_rng(k))
            for k, (line, _) in enumerate(lines)]

    @staticmethod
    def _op_mvee(clouds, _):
        return lambda: [convexity.mvee_complex(pts, eps=1e-6)
                        for pts in clouds]

    @staticmethod
    def _op_grid(a, lines):
        return lambda: [oracles.grid_line_tag(a, line.basis()).value
                        for line, _ in lines]

    def fingerprint(self, index, out):
        if isinstance(out, Raised):
            return repr(out)
        kind = self.items[index][1]
        if kind == "axioms":
            return jsonio.canonical_dumps(out.to_dict())
        if kind == "sections":
            return repr([(v.tag.value, v.center, v.radius) for v in out])
        if kind == "mvee":
            return repr([(e.iterations, e.center.tolist()) for e in out])
        return repr(out)

    def check(self, index, out):
        label, kind, data = self.items[index]
        if isinstance(out, Raised):
            return f"{label}: raised {out.text}"
        err = getattr(self, f"_check_{kind}")(data, out)
        return None if err is None else f"{label}: {err}"

    @staticmethod
    def _check_axioms(data, out):
        orc, cfg, x = data
        if sum(out.tallies.values()) != cfg.n_lines:
            return f"tallies do not sum to {cfg.n_lines}"
        if x is None:
            return None if out.verdict == "Violations" else (
                f"verdict {out.verdict}, expected Violations")
        if out.verdict != "ConsistentWithBombon":
            return f"verdict {out.verdict}"
        mirror = np.random.default_rng(cfg.seed)
        for i in range(cfg.n_lines):
            line = projective.sample_line(mirror, orc.dim)
            sec, _ = sections.classify_line_section(x, line, with_sides=False)
            if not sec.low_confidence and out.line_tags[i] != sec.tag.value:
                return (f"line {i}: verifier {out.line_tags[i]}, "
                        f"classifier {sec.tag.value}")
        return None

    @staticmethod
    def _check_sections(data, out):
        _, lines = data
        for i, ((_, (tag, center, radius)), v) in enumerate(zip(lines, out)):
            if v.tag.value != tag:
                return f"line {i}: section {v.tag.value}, built as {tag}"
            if tag == "disk" and (abs(v.center - center) > 1e-6 * radius
                                  or abs(v.radius - radius) > 1e-6 * radius):
                return (f"line {i}: disk ({v.center:.6g}, {v.radius:.6g}), "
                        f"built as ({center:.6g}, {radius:.6g})")
        return None

    @staticmethod
    def _check_mvee(data, out):
        clouds, _ = data
        for i, (pts, ell) in enumerate(zip(clouds, out)):
            if np.any(np.diff(np.asarray(ell.gap_history)) > 1e-15):
                return f"cloud {i}: duality gap certificate increased"
            if float(np.max(ell.gauge(pts))) > 1.0 + ell.eps + 1e-9:
                return f"cloud {i}: a point escaped the certified ellipsoid"
            if not convexity.john_touchpoint_check(pts, ell):
                return f"cloud {i}: touching points fail to span affinely"
        return None

    @staticmethod
    def _check_grid(data, out):
        _, lines = data
        for i, ((_, kind), tag) in enumerate(zip(lines, out)):
            if tag != kind:
                return f"line {i}: grid oracle said {tag}, built as {kind}"
        return None

    def groups(self):
        return {i: item[0] for i, item in enumerate(self.items)}


# --- forms -------------------------------------------------------------------


def _enc_vector(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, complex)]


def _enc_matrix(m):
    return [_enc_vector(row) for row in np.asarray(m, complex)]


def _dec_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _enc_quadric(a):
    return {"n": a.shape[0] - 1, "A": _enc_matrix(a)}


class FormsWorkload(Workload):
    """In-process ``bombon`` CLI requests on JSON files written at set-up.

    For each of CP^3, CP^11 and CP^23: ``type`` of a quadric with a
    2-dimensional kernel, and ``canonical``, ``equiv``, ``transport``,
    ``tangent`` and ``cores`` of a smooth one.
    """

    name = "forms"
    op_unit = "request"
    COMMANDS = ("type", "canonical", "equiv", "transport", "tangent", "cores")

    def __init__(self, seed, workdir, tiny=False):
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        self.items = []   # (command, n, path, expectation)
        sizes = (3, 11) if tiny else (3, 11, 23)
        for n in [n for n in sizes for _ in range(1 if tiny else 2)]:
            k = n + 1
            n_pos = max(2, k // 2 - k // 8)
            smooth = Form(rng, n_pos, k - n_pos, 0)
            sing = Form(rng, (k - 2) // 2, k - 2 - (k - 2) // 2, 2)
            s = _unitary(rng, k) @ np.diag(np.exp(rng.uniform(
                np.log(0.5), np.log(2.0), size=k))) @ _unitary(rng, k)
            b = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))) * (
                s.conj().T @ smooth.a @ s)
            b = (b + b.conj().T) / 2.0
            p = smooth.point_on(rng)
            q = smooth.point_on(rng)
            quad = _enc_quadric(smooth.a)
            payloads = {
                "type": ({"quadric": _enc_quadric(sing.a)}, sing),
                "canonical": ({"quadric": quad}, smooth),
                "equiv": ({"first": quad, "second": _enc_quadric(b)},
                          (smooth, b)),
                "transport": ({"quadric": quad, "from": _enc_vector(p),
                               "to": _enc_vector(q)}, (smooth, p, q)),
                "tangent": ({"quadric": quad, "point": _enc_vector(p)},
                            (smooth, p)),
                "cores": ({"quadric": quad}, smooth),
            }
            for cmd in self.COMMANDS:
                body, expect = payloads[cmd]
                path = os.path.join(workdir, f"{len(self.items)}-{cmd}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(body, fh)
                self.items.append((cmd, n, path, expect))
        for cmd, _, path, _ in self.items:
            self.ops.append(self._op(cmd, path))

    @staticmethod
    def _op(cmd, path):
        def request():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([cmd, "--input", path])
            return code, buf.getvalue()
        return request

    def check(self, index, out):
        cmd, n, _, expect = self.items[index]
        if isinstance(out, Raised):
            return f"{cmd} CP^{n}: raised {out.text}"
        code, text = out
        if code != 0:
            return f"{cmd} CP^{n}: exit {code}: {text.strip()[:200]}"
        got = json.loads(text)
        err = getattr(self, f"_check_{cmd}")(got, expect)
        return None if err is None else f"{cmd} CP^{n}: {err}"

    @staticmethod
    def _check_type(got, form):
        lo, hi = sorted((form.n_pos, form.n_neg))
        want = (lo - 1, hi - 1, form.dim - 1, form.n_zero - 1)
        have = (got["p"], got["q"], got["n"], got["sing_dim"])
        return None if have == want else f"type {have}, built as {want}"

    @staticmethod
    def _check_canonical(got, form):
        t = _dec_matrix(got["t"])
        canon = _dec_matrix(got["canonical"])
        wit = quadrics.CongruenceWitness(t=t, scale=got["scale"],
                                         flipped=got["flipped"])
        if not wit.certifies(form.a, canon):
            return "congruence witness does not certify the canonical form"
        signs = np.real(np.diag(canon)).round().astype(int).tolist()
        counts = sorted((signs.count(1), signs.count(-1)))
        if counts != sorted((form.n_pos, form.n_neg)):
            return f"canonical signs {signs} do not match the construction"
        return None

    @staticmethod
    def _check_equiv(got, expect):
        form, b = expect
        if not got.get("equivalent"):
            return "congruent quadrics reported inequivalent"
        wit = quadrics.CongruenceWitness(t=_dec_matrix(got["t"]),
                                         scale=got["scale"],
                                         flipped=got["flipped"])
        return None if wit.certifies(form.a, b) else (
            "equivalence witness does not certify")

    @staticmethod
    def _check_transport(got, expect):
        form, p, q = expect
        t = _dec_matrix(got["t"])
        if not actions.pseudo_unitary_check(t, form.a):
            return "transport is not pseudo-unitary"
        if not projective.proj_close(t @ p, q, 1e-8):
            return "[T p] != [q]"
        return None

    @staticmethod
    def _check_tangent(got, expect):
        form, p = expect
        basis = _dec_matrix(got["subspace"]["basis"])
        if basis.shape[0] != form.dim - 1:
            return f"tangent space spanned by {basis.shape[0]} vectors"
        ap = form.a @ p
        tol = 1e-8 * max(1.0, float(np.max(np.abs(form.a))))
        if float(np.max(np.abs(basis.conj() @ ap))) > tol:
            return "tangent space is not A-orthogonal to the point"
        mixed = min(form.n_pos, form.n_neg) >= 2
        kind = got["section"]["kind"]
        if kind != ("quadric" if mixed else "subspace"):
            return f"tangent section is a {kind}"
        return None

    @staticmethod
    def _check_cores(got, form):
        for key, sign, size in (("core_u", 1.0, form.n_pos),
                                ("core_v", -1.0, form.n_neg)):
            basis = _dec_matrix(got[key]["basis"]).T
            if basis.shape[1] != size:
                return f"{key} has dimension {basis.shape[1]}, want {size}"
            lam = np.linalg.eigvalsh(sign * (basis.conj().T @ form.a @ basis))
            if float(np.min(lam)) <= 0.0:
                return f"{key} is not strictly on its side"
        return None

    def groups(self):
        return {i: f"{item[0]}@CP{item[1]}" for i, item in enumerate(self.items)}


# --- fault injection ---------------------------------------------------------


_SWAP = {"circle": "empty", "empty": "circle"}


def install_fault(workload_name, stack):
    """Swap Circle and Empty on the workload's path; undone by ``stack``."""
    if workload_name == "classify":
        original = sections.classify_line_section

        def swapped(*args, **kwargs):
            sec, rep = original(*args, **kwargs)
            if sec.tag.value in _SWAP:
                sec = sections.SectionClass(
                    sections.SectionTag(_SWAP[sec.tag.value]), point=sec.point,
                    circle=sec.circle, low_confidence=sec.low_confidence)
            return sec, rep

        sections.classify_line_section = swapped
        stack.callback(setattr, sections, "classify_line_section", original)
    elif workload_name == "verify":
        original = oracles.oracle_line_tag

        def swapped(*args, **kwargs):
            tag, ok, summary = original(*args, **kwargs)
            return _SWAP.get(tag, tag), ok, summary

        oracles.oracle_line_tag = swapped
        stack.callback(setattr, oracles, "oracle_line_tag", original)
    else:
        raise ValueError(f"no fault injection for workload {workload_name}")


def build(name, seed, workdir, tiny=False):
    if name == "classify":
        return ClassifyWorkload(seed, tiny)
    if name == "verify":
        return VerifyWorkload(seed, tiny)
    if name == "forms":
        return FormsWorkload(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name}")

