"""Whole-polynomial verification: residue-class relations, the recursive and
absolute height bounds, the iterated two-step bound, and bounded suprema of
the height over parameter pairs.

Every check recomputes both sides from the engines; nothing is cached across
a check boundary, so each report is independently reproducible.
"""

from __future__ import annotations

from math import gcd

from .arith import enumerate_coprime_pairs
from .errors import InvalidTriple, PreconditionViolated
from .height import coefficient_set, height, is_flat
from .report import VerificationReport
from .represent import Triple

# Reference heights from published tables; with KNOWN_SUP and KNOWN_FLAT below,
# the only hard-coded values in the package.  Everything else is derived.
KNOWN_HEIGHTS: tuple[tuple[tuple[int, int, int], int], ...] = (
    ((5, 7, 3), 2),
    ((11, 13, 4), 3),
    ((3, 5, 17), 2),
    ((7, 16, 115), 3),
    ((7, 11, 5), 3),
    ((13, 43, 564), 4),
)

# Offsets whose true pairwise supremum is pinned by published computations.
KNOWN_SUP = {1: 0, 2: 1, 3: 2, 4: 3, 5: 3}

# Triples with third element = k*pq +- 1; these must be flat.
KNOWN_FLAT: tuple[tuple[int, int, int], ...] = (
    (3, 5, 14),
    (3, 5, 16),
    (3, 5, 29),
    (3, 5, 31),
)


def _height_value(p: int, q: int, r: int) -> int:
    return height(_triple(p, q, r)).height


def _triple(p: int, q: int, r: int) -> Triple:
    try:
        return Triple(p, q, r)
    except InvalidTriple as exc:
        raise PreconditionViolated(str(exc)) from exc


def _residue_relation(r: int, s: int, modulus: int) -> str:
    if (r - s) % modulus == 0:
        return "same"
    if (r + s) % modulus == 0:
        return "opposite"
    raise PreconditionViolated(
        f"{r} is congruent to neither {s} nor -{s} modulo {modulus}"
    )


def _pair_relation(p: int, q: int, r: int, s: int) -> str:
    """The hypotheses of the pairwise residue checks: r, s > max(p, q) and
    r = +-s modulo p*q.  Returns "same" or "opposite"."""
    if min(r, s) <= max(p, q):
        raise PreconditionViolated(
            f"both third elements must exceed max(p, q) = {max(p, q)}"
        )
    return _residue_relation(r, s, p * q)


def verify_height_residue(p: int, q: int, r: int, s: int) -> VerificationReport:
    """Heights agree when the third elements share a residue class up to sign.

    Requires r, s > max(p, q) and r = +-s modulo p*q.
    """
    relation = _pair_relation(p, q, r, s)
    h_r = _height_value(p, q, r)
    h_s = _height_value(p, q, s)
    return VerificationReport(
        check_id="height-residue",
        instance=(p, q, r, s),
        passed=h_r == h_s,
        checked=2,
        witness=None if h_r == h_s else {"heights": [h_r, h_s]},
        detail=f"{relation}-class heights {h_r} and {h_s}",
    )


def verify_coeffset_residue(p: int, q: int, r: int, s: int) -> VerificationReport:
    """Coefficient sets agree when r = s and negate when r = -s modulo p*q.

    Requires r, s > max(p, q); the relation follows from the residues.
    """
    relation = _pair_relation(p, q, r, s)
    set_r = coefficient_set(_triple(p, q, r))
    set_s = coefficient_set(_triple(p, q, s))
    expected = set_s if relation == "same" else tuple(sorted(-c for c in set_s))
    passed = set_r == expected
    return VerificationReport(
        check_id="coeffset-residue",
        instance=(p, q, r, s),
        passed=passed,
        checked=len(set_r) + len(set_s),
        witness=None if passed else {"sets": [list(set_r), list(set_s)]},
        detail=f"{relation}-class sets {list(set_r)} and {list(set_s)}",
    )


def _step_preconditions(p: int, q: int, s: int, r: int) -> None:
    if s < 1:
        raise PreconditionViolated("offset must be at least 1")
    if not (r > max(p, q) > s):
        raise PreconditionViolated(
            f"need third element {r} > max(p, q) = {max(p, q)} > offset {s}"
        )
    _residue_relation(r, s, p * q)


def verify_recursive_bound(p: int, q: int, s: int, r: int) -> VerificationReport:
    """The height at r exceeds the height at the small companion by 0 or 1.

    Requires r = +-s modulo p*q and r > max(p, q) > s >= 1; the companion
    height uses the s - 1 convention when s <= 2.
    """
    _step_preconditions(p, q, s, r)
    base = _height_value(p, q, s)
    upper = _height_value(p, q, r)
    passed = base <= upper <= base + 1
    attained = "plus-one" if upper == base + 1 else "equal"
    return VerificationReport(
        check_id="recursive-bound",
        instance=(p, q, s, r),
        passed=passed,
        checked=2,
        witness=None if passed else {"heights": [base, upper]},
        detail=f"companion height {base}, main height {upper} ({attained})",
    )


def verify_absolute_bound(p: int, q: int, s: int, r: int) -> VerificationReport:
    """The height at r is at most s, strictly below s once s >= 5."""
    _step_preconditions(p, q, s, r)
    val = _height_value(p, q, r)
    passed = val < s if s >= 5 else val <= s
    return VerificationReport(
        check_id="absolute-bound",
        instance=(p, q, s, r),
        passed=passed,
        checked=1,
        witness=None if passed else {"height": val},
        detail=f"height {val} vs offset {s}" + (" (strict)" if s >= 5 else ""),
    )


def _parse_sign(sign) -> int:
    if sign in (1, -1):
        return sign
    if isinstance(sign, str):
        if sign in ("+", "plus", "+1", "1"):
            return 1
        if sign in ("-", "minus", "-1"):
            return -1
    raise PreconditionViolated(f"sign must be +1 or -1, got {sign!r}")


def verify_iterated_bound(p: int, q: int, sign) -> VerificationReport:
    """Two applications of the recursive bound: the derived triple
    {q, pq+e, q(pq+e) + e*p} has height at most 2 (e = +-1).

    The intermediate triple {p, q, pq+e} must be flat (height 1), which the
    report also asserts.
    """
    e = _parse_sign(sign)
    if gcd(p, q) != 1:
        raise PreconditionViolated(f"{p} and {q} are not coprime")
    mid = p * q + e
    third = q * mid + e * p
    if mid < 3 or third < 3:
        raise PreconditionViolated("derived elements too small")
    inner = _height_value(p, q, mid)
    outer_triple = _triple(q, mid, third)
    outer = height(outer_triple).height
    passed = inner == 1 and outer <= 2
    return VerificationReport(
        check_id="iterated-bound",
        instance=(p, q, e),
        passed=passed,
        checked=2,
        witness=None if passed else {"inner": inner, "outer": outer},
        detail=f"height({outer_triple}) = {outer} via flat step height {inner}",
    )


def bounded_height_sup(s: int, p_max: int) -> tuple[int, list[tuple[int, int]]]:
    """Largest height over coprime pairs 3 <= p < q <= p_max (both coprime
    to s), together with every attaining pair.

    A lower bound for the true supremum over all pairs; for s <= 2 the
    conventional value s - 1 is returned outright with no attaining pairs.
    """
    if s < 1 or p_max < 3:
        raise PreconditionViolated("need offset >= 1 and pair bound >= 3")
    if s <= 2:
        return s - 1, []
    best = 0
    attained: list[tuple[int, int]] = []
    for p, q in enumerate_coprime_pairs(p_max, p_max, coprime_to=s):
        val = height(Triple(p, q, s)).height
        if val > best:
            best = val
            attained = [(p, q)]
        elif val == best:
            attained.append((p, q))
    return best, attained


def verify_known_values() -> list[VerificationReport]:
    """Recompute every hard-coded reference height and flatness instance."""
    reports = []
    for (p, q, r), expected in KNOWN_HEIGHTS:
        got = height(Triple(p, q, r)).height
        reports.append(
            VerificationReport(
                check_id="known-height",
                instance=(p, q, r),
                passed=got == expected,
                checked=1,
                witness=None if got == expected else {"expected": expected, "got": got},
                detail=f"height {got}, reference {expected}",
            )
        )
    for p, q, r in KNOWN_FLAT:
        flat = is_flat(Triple(p, q, r))
        reports.append(
            VerificationReport(
                check_id="known-flat",
                instance=(p, q, r),
                passed=flat,
                checked=1,
                witness=None if flat else {"flat": False},
                detail="flat" if flat else "not flat",
            )
        )
    return reports


def survey_residue_classes(p: int, q: int) -> list[VerificationReport]:
    """Grouped form of the residue-class identities for one pair.

    Scans every admissible third element max(p, q) < t <= 3*p*q and compares
    each t with the first t of its residue class modulo p*q (the same
    coefficient set), of the opposite class (the negated set) and of its
    class folded under negation (the same height).  Equivalent to running
    the pairwise checks over all hypothesis-satisfying (r, s) combinations,
    at a fraction of the cost.
    """
    if gcd(p, q) != 1:
        raise PreconditionViolated(f"{p} and {q} are not coprime")
    pq = p * q
    first_set: dict[int, tuple[int, tuple[int, ...]]] = {}  # class -> (t, set)
    first_height: dict[int, tuple[int, int]] = {}  # folded class -> (t, height)
    height_bad = set_bad = None
    n = 0
    for t in range(max(p, q) + 1, 3 * pq + 1):
        if gcd(t, pq) != 1:
            continue
        n += 1
        cs = coefficient_set(Triple(p, q, t))
        h = max(cs[-1], -cs[0])
        cls = t % pq
        folded = min(cls, pq - cls)
        t0, h0 = first_height.setdefault(folded, (t, h))
        if h != h0 and height_bad is None:
            height_bad = {"class": folded, "examples": [[t0, h0], [t, h]]}
        t0, cs0 = first_set.setdefault(cls, (t, cs))
        mirror = first_set.get(pq - cls)
        if cs != cs0 and set_bad is None:
            set_bad = {"class": cls, "witnesses": [[t0, list(cs0)], [t, list(cs)]]}
        elif mirror and tuple(sorted(-c for c in cs)) != mirror[1] and set_bad is None:
            set_bad = {"class": cls, "witnesses": [[mirror[0], list(mirror[1])], [t, list(cs)]]}
    return [
        VerificationReport(
            check_id="height-residue",
            instance=(p, q),
            passed=height_bad is None,
            checked=n,
            witness=height_bad,
            detail=f"{n} third elements in {len(first_height)} folded classes",
        ),
        VerificationReport(
            check_id="coeffset-residue",
            instance=(p, q),
            passed=set_bad is None,
            checked=n,
            witness=set_bad,
            detail=f"{n} third elements in {len(first_set)} classes",
        ),
    ]


def recursive_bound_sweep(
    q_max: int = 25, p_min: int = 3
) -> tuple[list[VerificationReport], dict[str, int]]:
    """Both step bounds over all (p, q, s, sign) with p < q <= q_max and
    1 <= s < q, r = pq + sign*s; returns the reports in enumeration order
    and a tally of how often the upper step is attained versus exact equality."""
    reports: list[VerificationReport] = []
    tally = {"instances": 0, "equal": 0, "plus-one": 0, "failed": 0}
    for p, q in enumerate_coprime_pairs(q_max, q_max, p_min=p_min):
        pq = p * q
        for s in range(1, q):
            if gcd(s, pq) != 1:
                continue
            for sign in (1, -1):
                rep = verify_recursive_bound(p, q, s, pq + sign * s)
                tally["instances"] += 1
                if not rep.passed:
                    tally["failed"] += 1
                elif rep.detail.endswith("(plus-one)"):
                    tally["plus-one"] += 1
                else:
                    tally["equal"] += 1
                reports.append(rep)
    return reports, tally
