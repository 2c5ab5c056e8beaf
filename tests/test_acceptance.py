"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Every test prints "[criterion N] PASS/FAIL — detail" (echoed again in the
terminal summary) and then asserts, so a red run still reports all verdicts.
"""

import math
import time
from fractions import Fraction

import numpy as np

from superfs import (
    TheoryData,
    Twist,
    TwistedGroupAlgebra,
    catalog_group,
    classify,
    clifford_twist,
    combine_twists,
    crosscheck,
    cyclic,
    eighth_root,
    h2_representatives,
    nonorientable,
    orientable,
    product_group,
    z2_homomorphisms,
)

from conftest import record_verdict
from helpers import shift_by_coboundary

CATALOG = ("z2", "z3", "z4", "z2xz2", "z6", "s3", "d4", "q8", "z2xz2xz2", "a4")
EIGHTH_ROOTS = np.exp(2j * np.pi * np.arange(8) / 8)

_SWEEP_CACHE = None


def catalog_sweep():
    """Classify every (catalog group, grading, sign-cocycle class) once."""
    global _SWEEP_CACHE
    if _SWEEP_CACHE is None:
        cases = []
        for name in CATALOG:
            group = catalog_group(name)
            for phi in z2_homomorphisms(group):
                for base in h2_representatives(group):
                    report = classify(TwistedGroupAlgebra(base.with_phi(phi)), seed=0)
                    cases.append((name, phi, report))
        _SWEEP_CACHE = cases
    return _SWEEP_CACHE


def test_criterion_01():
    start = time.monotonic()
    cases = catalog_sweep()
    n_sups = 0
    bad = []
    for name, phi, report in cases:
        if not report.all_pass:
            bad.append((name, "report"))
        for sup in report.supermodules:
            n_sups += 1
            snap_dist = min(abs(sup.fs_raw),
                            float(np.min(np.abs(sup.fs_raw - EIGHTH_ROOTS))))
            if snap_dist > 1e-6:
                bad.append((name, "snap", sup.fs_raw))
            if (abs(sup.fs_raw) < 1e-6) != (sup.reality == "complex"):
                bad.append((name, "zero-iff-complex"))
            if sup.reality == "real" and abs(sup.fs_raw - eighth_root(sup.bw)) > 1e-6:
                bad.append((name, "class", sup.bw))
    elapsed = time.monotonic() - start
    ok = not bad and len(cases) == 611 and elapsed < 300
    record_verdict(1, ok, f"indicator sweep: {len(cases)} cases, {n_sups} "
                   f"supermodules snap to 0 or 8th roots, zero iff complex, "
                   f"class matched; {elapsed:.1f}s"
                   + (f"; failures {bad[:4]}" if bad else ""))
    assert ok


def test_criterion_02():
    bad = []
    for n in range(1, 9):
        report = classify(TwistedGroupAlgebra(clifford_twist(n)))
        sups = report.supermodules
        expected = np.exp(2j * np.pi * n / 8)
        if not (report.all_pass and len(sups) == 1
                and abs(sups[0].fs_raw - expected) < 1e-9
                and sups[0].bw == n % 8):
            bad.append(n)
    record_verdict(2, not bad, "Clifford ladder n=1..8: unique supermodule, "
                   "indicator e^{2πin/8} within 1e-9, class n mod 8"
                   + (f"; failed at {bad}" if bad else ""))
    assert not bad


def _tensor_products_multiplicative(ta, tb):
    """Match each supermodule pair with its factor in the combined algebra and
    compare indicators. Returns (#pairs checked, list of failures)."""
    tc = combine_twists(ta, tb)
    ga, gb, gc = ta.group, tb.group, tc.group
    ra = classify(TwistedGroupAlgebra(ta))
    rb = classify(TwistedGroupAlgebra(tb))
    rc = classify(TwistedGroupAlgebra(tc))
    nh = gb.order
    failures = []
    pairs = 0
    for sa in ra.supermodules:
        stra = sa.supercharacter
        for sb in rb.supermodules:
            pairs += 1
            cand = np.empty(gc.order, dtype=complex)
            for h in range(nh):
                col = (stra if tb.phi[h] else sa.character) * sb.character[h]
                cand[np.arange(ga.order) * nh + h] = col
            factor = 2 if (sa.q_type == 1 and sb.q_type == 1) else 1
            hits = [sc for sc in rc.supermodules
                    if np.max(np.abs(sc.character * factor - cand)) < 1e-6]
            if len(hits) != 1:
                failures.append(("match", sa.dims, sb.dims, len(hits)))
                continue
            if abs(hits[0].fs_raw - sa.fs_raw * sb.fs_raw) > 1e-6:
                failures.append(("product", sa.dims, sb.dims))
    return pairs, failures


def _random_z2_twist(group, rng):
    phis = z2_homomorphisms(group)
    alphas = h2_representatives(group)
    phi = phis[int(rng.integers(len(phis)))]
    base = alphas[int(rng.integers(len(alphas)))]
    return base.with_phi(phi)


def test_criterion_03():
    rng = np.random.default_rng(7)
    checked = 0
    total_pairs = 0
    bad = []
    while checked < 20:
        na, nb = rng.integers(len(CATALOG), size=2)
        ga, gb = catalog_group(CATALOG[na]), catalog_group(CATALOG[nb])
        if ga.order * gb.order > 96:
            continue
        ta, tb = _random_z2_twist(ga, rng), _random_z2_twist(gb, rng)
        pairs, failures = _tensor_products_multiplicative(ta, tb)
        total_pairs += pairs
        if failures:
            bad.append((CATALOG[na], CATALOG[nb], failures[:2]))
        checked += 1
    record_verdict(3, not bad, f"tensor multiplicativity: {checked} random "
                   f"combined theories, {total_pairs} supermodule products "
                   "matched with indicator product within 1e-6"
                   + (f"; failures {bad[:3]}" if bad else ""))
    assert not bad


def test_criterion_04():
    bad = []
    count = 0
    for name, phi, report in catalog_sweep():
        if not phi.any():
            continue
        for sup in report.supermodules:
            count += 1
            scale = math.sqrt(2) ** sup.q_type
            rhs = (sup.s_ordinary + 1j * sup.eta_gow) / scale
            if abs(sup.fs_raw - rhs) > 1e-6:
                bad.append((name, sup.dims))
    ok = not bad and count > 0
    record_verdict(4, ok, f"even/odd indicator identity on {count} supermodules "
                   "with nontrivial grading"
                   + (f"; failures {bad[:4]}" if bad else ""))
    assert ok


def test_criterion_05():
    theories = [(name, catalog_group(name)) for name in ("s3", "d4", "q8", "a4")]
    theories.append(("z2xa4", product_group(cyclic(2), catalog_group("a4"))))
    irrep_counts = {"s3": 3, "d4": 5, "q8": 5, "a4": 4, "z2xa4": 8}
    bad = []
    for name, group in theories:
        theory = TheoryData(Twist.zero(group), "oriented")
        for genus in (0, 1, 2):
            r = crosscheck(theory, orientable(genus))[0]
            if r.verdict != "PASS" or r.abs_diff > 1e-6:
                bad.append((name, genus, r.abs_diff))
            if genus == 1:
                z = r.lhs
                if (abs(z.imag) > 1e-6 or abs(z.real - round(z.real)) > 1e-6
                        or round(z.real) != irrep_counts[name]):
                    bad.append((name, "torus-count", z))
    record_verdict(5, not bad, "oriented counts, genus 0..2, five groups up to "
                   "order 24; torus value integral and equal to the irrep count"
                   + (f"; failures {bad[:4]}" if bad else ""))
    assert not bad


def test_criterion_06():
    group = product_group(cyclic(2), cyclic(2))
    alpha = [[Fraction((i // 2) * (j % 2), 2) for j in range(4)] for i in range(4)]
    twist = Twist.from_fractions(group, [0] * 4, alpha)
    r = crosscheck(TheoryData(twist, "oriented"), orientable(1))[0]
    ok = (r.verdict == "PASS" and abs(r.lhs - 1) < 1e-6 and abs(r.rhs - 1) < 1e-6)
    record_verdict(6, ok, "nontrivially twisted Z2xZ2 on the torus: both sides "
                   f"equal 1 (lhs={r.lhs:.8f}, rhs={r.rhs:.8f}, one projective "
                   "irrep of dim 2)")
    assert ok


def test_criterion_07():
    bad = []
    for name in CATALOG:
        group = catalog_group(name)
        twist = Twist.zero(group)
        r = crosscheck(TheoryData(twist, "unoriented"), nonorientable(1))[0]
        involutions = int(np.sum(np.diag(group.table) == 0))
        report = classify(TwistedGroupAlgebra(twist))
        fs_sum = sum(s.s_ordinary * s.dims[0] for s in report.supermodules)
        scaled = r.lhs * group.order
        if (r.verdict != "PASS" or abs(scaled - involutions) > 1e-6
                or fs_sum != involutions):
            bad.append((name, "square-count"))
        for k in (2, 3):
            rk = crosscheck(TheoryData(twist, "unoriented"),
                            nonorientable(k))[0]
            if rk.verdict != "PASS" or rk.abs_diff > 1e-6:
                bad.append((name, k))
    twisted = 0
    for name in ("z2xz2", "d4", "q8"):
        group = catalog_group(name)
        for base in h2_representatives(group):
            if base.alpha_is_trivial:
                continue
            theory = TheoryData(base, "unoriented")
            for k in (2, 3):
                twisted += 1
                rk = crosscheck(theory, nonorientable(k))[0]
                if rk.verdict != "PASS" or rk.abs_diff > 1e-6:
                    bad.append((name, "twisted", k))
    ok = not bad and twisted > 0
    record_verdict(7, ok, "projective plane reproduces the involution count = "
                   "indicator-weighted dimension sum on all 10 groups; Klein "
                   f"bottle and k=3 agree, incl. {twisted} twisted cases"
                   + (f"; failures {bad[:4]}" if bad else ""))
    assert ok


def test_criterion_08():
    bad = []
    t1 = clifford_twist(1)
    torus = crosscheck(TheoryData(t1, "spin"), orientable(1))
    if len(torus) != 4:
        bad.append(("torus", "structure-count"))
    for r in torus:
        if r.verdict != "PASS" or abs(r.lhs - (-1.0) ** r.invariant[1]) > 1e-6:
            bad.append(("torus", r.structure.values))
    t4 = Twist.from_fractions(catalog_group("z4"), [0, 1, 0, 1], [[0] * 4] * 4)
    gv = catalog_group("z2xz2")
    tv = Twist.zero(gv).with_phi(z2_homomorphisms(gv)[1])
    for name, twist in (("z2", t1), ("z4", t4), ("z2xz2", tv)):
        reports = crosscheck(TheoryData(twist, "spin"), orientable(2))
        if len(reports) != 16:
            bad.append((name, "structure-count", len(reports)))
        for r in reports:
            if r.verdict != "PASS" or r.abs_diff > 1e-6:
                bad.append((name, r.structure.values, r.abs_diff))
    record_verdict(8, not bad, "spin torus tracks (-1)^Arf on 4 structures; "
                   "genus-2 crosschecks on all 16 structures for three "
                   "odd-graded theories"
                   + (f"; failures {bad[:4]}" if bad else ""))
    assert not bad


def test_criterion_09():
    bad = []
    t1 = clifford_twist(1)
    rp2 = crosscheck(TheoryData(t1, "pin-"), nonorientable(1))
    vals = {r.invariant[1]: r.lhs for r in rp2}
    if not (abs(vals.get(1, 0) - (0.5 + 0.5j)) < 1e-6
            and abs(vals.get(7, 0) - (0.5 - 0.5j)) < 1e-6
            and all(r.verdict == "PASS" for r in rp2)):
        bad.append(("rp2", sorted(vals)))
    gv = catalog_group("z2xz2")
    tv = h2_representatives(gv)[3].with_phi(z2_homomorphisms(gv)[1])
    gd = catalog_group("d4")
    td = h2_representatives(gd)[1].with_phi(z2_homomorphisms(gd)[2])
    gq = catalog_group("q8")
    tq = Twist.zero(gq).with_phi(z2_homomorphisms(gq)[1])
    for name, twist in (("cl1", t1), ("z2xz2", tv), ("d4", td), ("q8", tq)):
        for k, count in ((2, 4), (3, 8)):
            reports = crosscheck(TheoryData(twist, "pin-"), nonorientable(k))
            if len(reports) != count:
                bad.append((name, k, "structure-count"))
            for r in reports:
                if r.verdict != "PASS" or r.abs_diff > 1e-6:
                    bad.append((name, k, r.structure.values))
    record_verdict(9, not bad, "pin- projective plane gives (1±i)/2 at the two "
                   "structures; Klein bottle (4) and k=3 (8) agree for four "
                   "sign-twisted theories"
                   + (f"; failures {bad[:4]}" if bad else ""))
    assert not bad


def _partition_values(twist, family, surface):
    reports = crosscheck(TheoryData(twist, family), surface)
    return [r.lhs for r in reports]


def test_criterion_10():
    rng = np.random.default_rng(13)
    gq = catalog_group("q8")
    tq = h2_representatives(gq)[1].with_phi(z2_homomorphisms(gq)[1])
    t3 = Twist.from_fractions(
        cyclic(3), [0] * 3, [[Fraction((i * j) % 3, 3) for j in range(3)] for i in range(3)])
    theories = [
        ("cl1", clifford_twist(1), "pin-", nonorientable(2)),
        ("q8", tq, "spin", orientable(1)),
        ("z2xz2", h2_representatives(catalog_group("z2xz2"))[3], "unoriented",
         nonorientable(2)),
        ("s3", Twist.zero(catalog_group("s3")), "oriented", orientable(2)),
        ("z3-cube-root", t3, "oriented", orientable(1)),
    ]
    bad = []
    checked = 0
    for name, twist, family, surface in theories:
        group = twist.group
        if twist.is_z2:
            base_report = classify(TwistedGroupAlgebra(twist))
            base_sig = sorted((s.fs_k if s.fs_k is not None else -1, str(s.bw))
                              for s in base_report.supermodules)
            if base_report.dim_sum != group.order:
                bad.append((name, "dim-sum", base_report.dim_sum))
        base_z = _partition_values(twist, family, surface)
        for _ in range(10):
            checked += 1
            beta = rng.integers(0, twist.denom if twist.denom > 1 else 2,
                                group.order)
            beta[0] = 0
            shifted = shift_by_coboundary(twist, beta)
            if twist.is_z2:
                report = classify(TwistedGroupAlgebra(shifted))
                sig = sorted((s.fs_k if s.fs_k is not None else -1, str(s.bw))
                             for s in report.supermodules)
                if sig != base_sig:
                    bad.append((name, "signature"))
                if report.dim_sum != group.order:
                    bad.append((name, "dim-sum-shifted"))
            z = _partition_values(shifted, family, surface)
            if len(z) != len(base_z) or any(
                    abs(a - b) > 1e-8 for a, b in zip(z, base_z)):
                bad.append((name, "partition"))
    for _, _, report in catalog_sweep():
        if report.dim_sum != report.order:
            bad.append(("sweep", "dim-sum"))
            break
    record_verdict(10, not bad, f"{checked} coboundary shifts across 5 theories: "
                   "indicator/class multisets and partition values unchanged "
                   "(1e-8); dimension sums exactly |G| everywhere"
                   + (f"; failures {bad[:4]}" if bad else ""))
    assert not bad
