"""Exact checks of gitfankit payloads, written apart from the program.

Every checker takes the decoded JSON payload(s) and returns a list of
problems; an empty list means the payload has every property the
mathematics forces.  Only integers and ``fractions.Fraction`` are used, and
nothing is imported from ``gitfankit``: a fault in the program's exact
kernel cannot hide a fault in its output.

``CORRUPTIONS`` feeds each checker deliberately broken payloads; a checker
that accepts one of them is itself broken (see ``self_test``).
"""

from __future__ import annotations

import ast
import copy
import itertools
import math
import random
import re
from fractions import Fraction
from typing import Optional, Sequence

# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _eliminate(columns: Sequence[Sequence[int]], extra: Sequence[Sequence[int]]):
    """Row-reduce [columns | extra] over Q, columns given as vectors.

    Returns (rank of ``columns``, reduced matrix rows).
    """
    dim = len(columns[0]) if columns else len(extra[0])
    cols = list(columns) + list(extra)
    m = [[Fraction(c[i]) for c in cols] for i in range(dim)]
    k = len(columns)
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, dim) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(dim):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
    return row, m


def rank(vectors: Sequence[Sequence[int]]) -> int:
    if not vectors:
        return 0
    return _eliminate(vectors, [])[0]


def coordinates(
    basis: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
) -> list[Optional[list[Fraction]]]:
    """Coordinates of each target in a linearly independent basis, or None
    when the target is outside its span."""
    r, m = _eliminate(basis, targets)
    k = len(basis)
    if r != k:
        raise ValueError("basis is linearly dependent")
    out: list[Optional[list[Fraction]]] = []
    for t in range(len(targets)):
        col = k + t
        if any(m[i][col] != 0 for i in range(r, len(m))):
            out.append(None)
        else:
            out.append([m[i][col] for i in range(r)])
    return out


def _is_primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g == 1


# ---------------------------------------------------------------------------
# verify all -n 4
# ---------------------------------------------------------------------------

BATTERY_CLAIMS = ["walls", "star-subfan", "fk-bridge", "thm44", "delta-subfan", "rays", "nu-equality"]


def check_battery(payload: dict, seed: int) -> list[str]:
    problems: list[str] = []
    reports = payload.get("reports", [])
    claims = [r.get("claim") for r in reports]
    if payload.get("n") != 4 or claims != BATTERY_CLAIMS:
        return [f"battery ran {claims} at n={payload.get('n')}"]
    by = dict(zip(claims, reports))
    for claim, rep in by.items():
        if rep.get("result") is not True:
            problems.append(f"{claim}: result is not true")
    counts = by["walls"].get("counts", {})
    if counts.get("maximal_chambers") != 12 or counts.get("chambers_inside_star") != 8:
        problems.append(f"walls: counts {counts} are not 12 chambers, 8 inside Omega*")
    fk = by["fk-bridge"]
    if fk.get("samples") != 200 or fk.get("seed") != seed or fk.get("certificates"):
        problems.append("fk-bridge: not 200 clean samples of the workload seed")
    t44 = by["thm44"]
    if not t44.get("checked", 0) > 0 or t44.get("certificates"):
        problems.append("thm44: no instance checked, or certificates present")
    ds = by["delta-subfan"]
    certs = ds.get("certificates", [])
    if not certs or ds.get("delta_maximal") != len(certs):
        problems.append("delta-subfan: certificate count differs from delta_maximal")
    for i, cert in enumerate(certs):
        problems.extend(f"delta-subfan certificate {i}: {p}" for p in _check_delta_certificate(cert))
    return problems


def _check_delta_certificate(cert: dict) -> list[str]:
    if cert.get("matched") is not True:
        return ["not matched"]
    delta = [tuple(r) for r in cert["delta_cone_rays"]]
    sigma = [tuple(r) for r in cert["sigma_r_cone_rays"]]
    if not delta or not set(delta) <= set(sigma):
        return ["delta rays are not a subset of the sigma_r cone's rays"]
    if rank(sigma) != len(sigma):
        return ["sigma_r cone is not simplicial"]
    (coords,) = coordinates(delta, [cert["delta_witness"]])
    if coords is None or not all(c > 0 for c in coords):
        return ["witness is not a strictly positive combination of the delta rays"]
    return []


def check_probe(returncode: int, stderr: str) -> list[str]:
    """Contract: a claim outside its domain is a usage error, exit 2."""
    problems = []
    if returncode != 2:
        problems.append(f"exit code {returncode}, expected 2")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


# ---------------------------------------------------------------------------
# fan sigmar -n 5
# ---------------------------------------------------------------------------


def _fan_cones(payload: dict) -> tuple[list[tuple[int, ...]], list[list[tuple[int, ...]]]]:
    rays = [tuple(int(x) for x in r) for r in payload["rays"]]
    cones = [[rays[i] for i in c["rays"]] for c in payload["cones"]]
    return rays, cones


def check_sigmar(payload: dict, sigma1: dict) -> list[str]:
    problems: list[str] = []
    n = payload["n"]
    n_true_blocks = 2 ** (n - 1) - 1 - n  # two-block partitions of {1..n}, blocks >= 2
    rays, cones = _fan_cones(payload)
    base_rays, base_cones = _fan_cones(sigma1)
    if len(set(rays)) != len(rays):
        problems.append("repeated ray")
    if not all(_is_primitive(r) for r in rays):
        problems.append("a ray is not primitive")
    if any("lineality" in c for c in payload["cones"]):
        problems.append("a cone has lineality")
    new = set(rays) - set(base_rays)
    if not set(base_rays) <= set(rays) or len(new) != n_true_blocks:
        problems.append(
            f"rays are not the sigma1 rays plus {n_true_blocks} new ones "
            f"({len(set(base_rays) - set(rays))} missing, {len(new)} new)"
        )
    dims = [rank(c) for c in cones]
    if any(d != len(c) for d, c in zip(dims, cones)):
        problems.append("a maximal cone is not simplicial")
    if any(rank(c) != len(c) for c in base_cones):
        problems.append("sigma1 is not simplicial")
    if problems:
        return problems
    # coordinates of every sigma_r ray in every sigma1 cone's ray basis
    coords = [dict(zip(rays, coordinates(b, rays))) for b in base_cones]
    pieces: list[list[int]] = [[] for _ in base_cones]
    for ci, (cone, d) in enumerate(zip(cones, dims)):
        homes = [
            bi
            for bi, b in enumerate(base_cones)
            if len(b) == d
            and all(coords[bi][r] is not None and min(coords[bi][r]) >= 0 for r in cone)
        ]
        if len(homes) != 1:
            problems.append(f"cone {ci} lies in {len(homes)} sigma1 cones of its dimension")
            continue
        pieces[homes[0]].append(ci)
    if problems:
        return problems
    # each sigma1 cone is tiled: an inner facet of a piece is shared by
    # exactly two pieces, a facet on the boundary lies in a facet of the cone
    for bi, members in enumerate(pieces):
        if not members:
            problems.append(f"sigma1 cone {bi} holds no sigma_r cone")
            continue
        owners: dict[frozenset, int] = {}
        for ci in members:
            for dropped in cones[ci]:
                facet = frozenset(r for r in cones[ci] if r != dropped)
                owners[facet] = owners.get(facet, 0) + 1
        width = len(base_cones[bi])
        for facet, count in owners.items():
            on_boundary = any(
                all(coords[bi][r][k] == 0 for r in facet) for k in range(width)
            )
            if count != (1 if on_boundary else 2):
                problems.append(
                    f"sigma1 cone {bi}: a facet is held by {count} pieces "
                    f"({'boundary' if on_boundary else 'interior'})"
                )
                break
    return problems


# ---------------------------------------------------------------------------
# poset gitfan -n 5
# ---------------------------------------------------------------------------

_LABEL = re.compile(r"rays=(\(.*?\)), lineality=(\(.*?\)), facets=")


def _label_generators(label: str) -> tuple[tuple, tuple]:
    m = _LABEL.search(label)
    if m is None:
        raise ValueError(f"cannot read the cone label {label[:60]!r}")
    return ast.literal_eval(m.group(1)), ast.literal_eval(m.group(2))


def check_poset(payload: dict, gitfan: dict) -> list[str]:
    problems: list[str] = []
    size = len(payload["elements"])
    up: list[list[int]] = [[] for _ in range(size)]
    down: list[list[int]] = [[] for _ in range(size)]
    for lo, hi in payload["hasse"]:
        up[lo].append(hi)
        down[hi].append(lo)
    bottoms = [i for i in range(size) if not down[i]]
    if len(bottoms) != 1:
        return [f"{len(bottoms)} minimal elements, expected a unique bottom"]
    bottom = bottoms[0]
    rank_of = {bottom: 0}
    frontier = [bottom]
    while frontier:
        nxt = []
        for x in frontier:
            for y in up[x]:
                if y not in rank_of:
                    rank_of[y] = rank_of[x] + 1
                    nxt.append(y)
        frontier = nxt
    if len(rank_of) != size:
        return ["some element is not above the bottom"]
    if any(rank_of[hi] != rank_of[lo] + 1 for lo, hi in payload["hasse"]):
        problems.append("a cover does not raise rank by one: not graded")
    for x in range(size):
        through: dict[int, int] = {}
        for y in up[x]:
            for z in up[y]:
                through[z] = through.get(z, 0) + 1
        if any(c != 2 for c in through.values()):
            problems.append(f"a length-2 interval above element {x} is not a diamond")
            break
    f = [0] * (max(rank_of.values()) + 1)
    for r in rank_of.values():
        f[r] += 1
    euler = sum((-1) ** (r - 1) * f[r] for r in range(1, len(f)))
    if euler != 1:
        problems.append(f"alternating face count {euler}, expected 1 (a 4-ball)")
    labels = payload["elements"]
    bottom_rays, bottom_lin = _label_generators(labels[bottom])
    if bottom_rays or bottom_lin:
        problems.append("the bottom is not the zero cone")
    atom_rays = set()
    for a in up[bottom]:
        rays, lin = _label_generators(labels[a])
        if len(rays) != 1 or lin:
            problems.append("an atom is not a ray")
            break
        atom_rays.add(tuple(rays[0]))
    fan_rays = {tuple(int(x) for x in r) for r in gitfan["rays"]}
    if atom_rays != fan_rays or len(fan_rays) != 25:
        problems.append(
            f"atoms are {len(atom_rays)} rays, not the {len(fan_rays)} rays of the GIT fan"
        )
    for i, label in enumerate(labels):
        rays, lin = _label_generators(label)
        if rank(list(rays) + list(lin)) != rank_of[i]:
            problems.append(f"element {i} has rank {rank_of[i]} but another dimension")
            break
    return problems


# ---------------------------------------------------------------------------
# ysets -n 6
# ---------------------------------------------------------------------------


def _exchange_ok(members: frozenset) -> bool:
    """Pluecker: p_ij p_kl = p_ik p_jl - p_il p_jk on four distinct indices."""
    for (i, j), (k, l) in itertools.combinations(sorted(members), 2):
        if len({i, j, k, l}) < 4:
            continue
        def has(a, b):
            return (min(a, b), max(a, b)) in members
        if not ((has(i, k) and has(j, l)) or (has(i, l) and has(j, k))):
            return False
    return True


def wedge_support(u: Sequence[int], v: Sequence[int]) -> frozenset:
    m = len(u)
    return frozenset(
        (i, j) for i in range(m) for j in range(i + 1, m) if u[i] * v[j] - u[j] * v[i]
    )


def check_ysets(payload: dict, seed: int, samples: int = 2000) -> list[str]:
    problems: list[str] = []
    n = payload["n"]
    listed = set()
    for entry in payload["ysets"]:
        members = frozenset(tuple(int(x) for x in p.split(",")) for p in entry)
        if any(not (0 <= i < j <= n) for i, j in members):
            problems.append(f"pair out of range in {entry}")
            break
        if members in listed:
            problems.append(f"{entry} is listed twice")
            break
        if not _exchange_ok(members):
            problems.append(f"{entry} violates the exchange condition")
            break
        listed.add(members)
    if payload["count"] != len(payload["ysets"]):
        problems.append("count differs from the list length")
    rng = random.Random(seed)
    for _ in range(samples):
        zeros = rng.random()
        u = [0 if rng.random() < zeros else rng.randint(-2, 2) for _ in range(n + 1)]
        v = [0 if rng.random() < zeros else rng.randint(-2, 2) for _ in range(n + 1)]
        support = wedge_support(u, v)
        if support not in listed:
            problems.append(f"support of {u} ^ {v} is missing")
            break
    return problems


# ---------------------------------------------------------------------------
# corruptions: each checker must reject each of these
# ---------------------------------------------------------------------------


def _perturb_delta_ray(payloads: dict) -> dict:
    p = copy.deepcopy(payloads)
    ds = next(r for r in p["battery"]["reports"] if r["claim"] == "delta-subfan")
    ds["certificates"][0]["delta_cone_rays"][0][0] += 1
    return p


def _negate_delta_witness(payloads: dict) -> dict:
    p = copy.deepcopy(payloads)
    ds = next(r for r in p["battery"]["reports"] if r["claim"] == "delta-subfan")
    cert = ds["certificates"][-1]
    cert["delta_witness"] = [-x for x in cert["delta_witness"]]
    return p


def _drop_cone(payloads: dict) -> dict:
    p = copy.deepcopy(payloads)
    del p["sigmar"]["cones"][len(p["sigmar"]["cones"]) // 2]
    return p


def _perturb_ray(payloads: dict) -> dict:
    p = copy.deepcopy(payloads)
    ray = p["sigmar"]["rays"][0]
    ray[-1] = str(int(ray[-1]) + 1)
    return p


def _break_diamond(payloads: dict) -> dict:
    p = copy.deepcopy(payloads)
    hasse = p["poset"]["hasse"]
    (bottom,) = {lo for lo, _ in hasse} - {hi for _, hi in hasse}
    atoms = {hi for lo, hi in hasse if lo == bottom}
    # drop a cover from an atom to a rank-2 element: [bottom, upper] loses a side
    k = next(k for k, (lo, hi) in enumerate(hasse) if lo in atoms)
    del hasse[k]
    return p


def _add_non_yset(payloads: dict) -> dict:
    p = copy.deepcopy(payloads)
    p["ysets"]["ysets"].append(["0,1", "2,3"])
    p["ysets"]["count"] += 1
    return p


CORRUPTIONS = {
    "battery-n4": [_perturb_delta_ray, _negate_delta_witness],
    "sigmar-n4": [_drop_cone, _perturb_ray],
    "sigmar-n5": [_drop_cone, _perturb_ray],
    "poset-n5": [_break_diamond, _add_non_yset],
}


def check_payloads(workload: str, payloads: dict, seed: int) -> list[str]:
    """All payload checks of one round of a workload."""
    if workload == "battery-n4":
        return check_battery(payloads["battery"], seed)
    if workload.startswith("sigmar-"):
        return check_sigmar(payloads["sigmar"], payloads["sigma1"])
    if workload == "poset-n5":
        return check_poset(payloads["poset"], payloads["gitfan"]) + check_ysets(
            payloads["ysets"], seed
        )
    raise ValueError(workload)


def self_test(workload: str, payloads: dict, seed: int) -> list[str]:
    """Names of corruptions the workload's checkers failed to reject."""
    return [
        corrupt.__name__
        for corrupt in CORRUPTIONS[workload]
        if not check_payloads(workload, corrupt(payloads), seed)
    ]
