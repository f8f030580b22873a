"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic; the tolerances are equalities.  Stated
runtime budgets are asserted as hard caps (they hold with wide margins on
commodity hardware).
"""

import random
import time
from contextlib import contextmanager
from functools import reduce

import gitfankit.gitfan as gf
import gitfankit.grassmann as gr
import gitfankit.semilattice as sl
from gitfankit.polyhedral import Cone, fan_from_maximal, is_subfan, stellar_subdivide


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    outcome = {"ok": False, "note": ""}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if outcome["ok"] else "FAIL"
        note = f" [{outcome['note']}]" if outcome["note"] else ""
        print(f"criterion {number} ({name}): {status} ({elapsed:.1f}s){note}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def test_criterion_1_y_set_oracle():
    with criterion(1, "Y-set oracle equivalence", 70) as out:
        for n in (2, 3):
            brute = gr.brute_force_supports(n)
            assert set(gr.y_set_masks(n)) == brute, f"oracle mismatch at n={n}"
        witnessed = 0
        for mask in gr.y_set_masks(4):
            u, v = gr.y_set_witness(mask, 4)
            assert gr.wedge_support(u, v) == mask
            witnessed += 1
        rng = random.Random(2024)
        for _ in range(10_000):
            u = tuple(rng.randint(-3, 3) for _ in range(5))
            v = tuple(rng.randint(-3, 3) for _ in range(5))
            assert gr.is_y_set(gr.wedge_support(u, v), 4)
        out["note"] = f"n=2,3 exact; n=4: {witnessed} witnesses + 10^4 samples"


def test_criterion_2_wall_theorem():
    with criterion(2, "GIT-fan wall theorem", 120) as out:
        for n in (3, 4, 5):
            assert gf.git_fan(n) == gf.wall_fan(n), f"fan mismatch at n={n}"
        fan3 = gf.git_fan(3)
        assert len(gf.wall_normals(3)) == 3
        assert len(fan3.maximal) == 4
        fan4 = gf.git_fan(4)
        star4 = gf.omega_star(4)
        inside = sum(1 for c in fan4.maximal if star4.contains_cone(c))
        assert inside == 8 and len(fan4.maximal) == 12
        out["note"] = (
            f"chambers: n=3 {len(fan3.maximal)}, n=4 {len(fan4.maximal)}, "
            f"n=5 {len(gf.git_fan(5).maximal)}"
        )


def test_criterion_3_star_subfan():
    with criterion(3, "GIT-fan subfan relation", 120) as out:
        for n in (3, 4, 5):
            assert is_subfan(gf.git_fan_star(n), gf.git_fan(n)), f"n={n}"
        out["note"] = "n=3,4,5"


def test_criterion_4_blowup_example():
    with criterion(4, "blow-up example reproduction", 1):
        eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        orthant = fan_from_maximal([Cone.from_generators(eye, 3)])
        nu1, nu2, nu0 = (1, 1, 0), (0, 1, 1), (1, 1, 1)
        s12 = reduce(stellar_subdivide, [nu1, nu2], orthant)
        s21 = reduce(stellar_subdivide, [nu2, nu1], orthant)
        assert s12 != s21
        a = reduce(stellar_subdivide, [nu0, nu1, nu2], orthant)
        b = reduce(stellar_subdivide, [nu0, nu2, nu1], orthant)
        assert a == b
        lat = sl.face_poset(orthant)
        c12 = Cone.from_generators([eye[0], eye[1]], 3)
        c23 = Cone.from_generators([eye[1], eye[2]], 3)
        full = Cone.from_generators(eye, 3)
        closure = sl.harmonious_closure(lat, [c12, c23])
        assert closure == frozenset([c12, c23, full])


def test_criterion_5_stellar_blowup_bridge():
    with criterion(5, "stellar/blow-up bridge", 60) as out:
        rep = sl.verify_fk_bridge(seed=2024, samples=200, max_ambient=4, max_rays=7)
        assert rep["result"], rep["certificates"][:3]
        out["note"] = f"{rep['samples']} random fans"


def test_criterion_6_join_criterion_soundness():
    with criterion(6, "blow-up join criterion soundness", 300) as out:
        rep = sl.verify_blowup_join_criterion(max_dim=3)
        assert rep["result"], rep["certificates"][:3]
        assert rep["checked"] == 7982
        out["note"] = f"{rep['checked']} nested instances, 0 counterexamples"


def test_criterion_7_delta_subfan():
    with criterion(7, "Delta-reduction subfan of Sigma_r (n=3)", 10):
        rep3 = gf.verify_delta_subfan(3)
        assert rep3["result"]
        assert all(c["matched"] for c in rep3["certificates"])
    with criterion(7, "Delta-reduction subfan of Sigma_r (n=4)", 600) as out:
        rep4 = gf.verify_delta_subfan(4)
        assert rep4["result"]
        assert all(c["matched"] for c in rep4["certificates"])
        out["note"] = (
            f"{rep4['delta_maximal']} Delta cones inside "
            f"{rep4['sigma_r_maximal']} Sigma_r cones"
        )


def test_criterion_8_nu_well_definedness():
    with criterion(8, "nu ray well-definedness", 30) as out:
        for n in (4, 5):
            rep = gf.verify_nu_equality(n)
            assert rep["result"], rep["certificates"]
        out["note"] = "n=4,5: block expressions identical, carriers interior"


def test_criterion_9_center_ideal_fixture():
    with criterion(9, "center ideal fixture", 1):
        wd = gr.weights(3)
        nu = gf.nu_vector([2, 3], 3)
        assert nu == wd.v[(0, 1)]
        ideal = gf.center_ideal(gf.sigma_fan_cached(3, 0), nu, 3)
        assert ideal.c == 2
        displayed = set(gf.center_pullback([2, 3], 3))
        assert displayed == {"T2^2", "T3^2", "T2*S3-T3*S2"}
        assert displayed <= set(ideal.pullback_generators)
        assert set(ideal.pullback_generators) - displayed == {"T2*T3"}


def test_criterion_10_tropical_self_consistency():
    with criterion(10, "tropical convention self-consistency", 30) as out:
        assert gr.tropical_sign() == -1
        wd = gr.weights(3)
        all_pairs = gr.pairs(3)[0]
        shortcut_deviations = []
        for mask in range(1 << 6):
            members = [p for k, p in enumerate(all_pairs) if mask >> k & 1]
            sigma = Cone.from_generators([wd.v[p] for p in members], 3)
            expected = gr.is_y_set(mask ^ ((1 << 6) - 1), 3)
            assert gr.delta_meets_relint(sigma, wd) == expected, members
            rep = tuple(sum(wd.v[p][r] for p in members) for r in range(3))
            if gr.delta_contains(rep, wd) != expected:
                shortcut_deviations.append((members, sigma.dim))
        # the single-representative shortcut cannot decide cones of higher
        # dimension than Delta; it must agree everywhere below that
        assert all(dim == 3 for _, dim in shortcut_deviations)
        out["note"] = (
            "relint criterion exact on all 64 subsets; point shortcut "
            f"undecided on {len(shortcut_deviations)} full-dimensional cones"
        )
