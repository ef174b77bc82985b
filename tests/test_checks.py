import pytest

from iepoly import checks
from iepoly.checks import (
    KNOWN_FLAT,
    KNOWN_HEIGHTS,
    bounded_height_sup,
    recursive_bound_sweep,
    survey_residue_classes,
    verify_absolute_bound,
    verify_coeffset_residue,
    verify_height_residue,
    verify_iterated_bound,
    verify_known_values,
    verify_recursive_bound,
)
from iepoly.errors import PreconditionViolated


class TestHeightResidue:
    def test_same_class(self):
        rep = verify_height_residue(3, 5, 17, 32)
        assert rep.passed and "heights 2 and 2" in rep.detail

    def test_flat_class(self):
        assert verify_height_residue(3, 5, 16, 31).passed

    def test_opposite_class(self):
        assert verify_height_residue(3, 5, 17, 13).passed  # 17 = -13 mod 15

    def test_wrong_class_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_height_residue(3, 5, 17, 16)

    def test_small_side_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_height_residue(3, 5, 17, 2)


class TestCoeffsetResidue:
    def test_same_class_sets_equal(self):
        rep = verify_coeffset_residue(3, 5, 7, 22)
        assert rep.passed

    def test_opposite_class_sets_negated(self):
        rep = verify_coeffset_residue(3, 5, 8, 7)
        assert rep.passed


class TestRecursiveBound:
    @pytest.mark.parametrize(
        "p,q,s,r", [(3, 5, 1, 16), (3, 5, 2, 17), (5, 7, 3, 38), (5, 7, 4, 31), (13, 43, 5, 564)]
    )
    def test_instances(self, p, q, s, r):
        assert verify_recursive_bound(p, q, s, r).passed

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            verify_recursive_bound(3, 5, 6, 21)  # s >= max(p,q)
        with pytest.raises(PreconditionViolated):
            verify_recursive_bound(3, 5, 2, 18)  # wrong residue


class TestAbsoluteBound:
    def test_strict_above_four(self):
        rep = verify_absolute_bound(13, 43, 5, 564)
        assert rep.passed and "strict" in rep.detail

    def test_equality_allowed_small(self):
        assert verify_absolute_bound(3, 5, 2, 17).passed
        assert verify_absolute_bound(3, 5, 1, 16).passed


class TestIteratedBound:
    @pytest.mark.parametrize("p,q,sign", [(3, 5, "+"), (3, 5, "-"), (4, 5, "+"), (2, 7, "-")])
    def test_instances(self, p, q, sign):
        rep = verify_iterated_bound(p, q, sign)
        assert rep.passed, rep

    def test_not_coprime(self):
        with pytest.raises(PreconditionViolated):
            verify_iterated_bound(4, 6, "+")

    def test_bad_sign(self):
        with pytest.raises(PreconditionViolated):
            verify_iterated_bound(3, 5, "?")


class TestBoundedSup:
    def test_conventions(self):
        assert bounded_height_sup(1, 20) == (0, [])
        assert bounded_height_sup(2, 20) == (1, [])

    def test_known_attained(self):
        value, pairs = bounded_height_sup(5, 15)
        assert value == 3 and (7, 11) in pairs
        value, pairs = bounded_height_sup(3, 10)
        assert value == 2 and (5, 7) in pairs

    def test_vacuous_bound(self):
        assert bounded_height_sup(7, 3) == (0, [])

    def test_bad_params(self):
        with pytest.raises(PreconditionViolated):
            bounded_height_sup(0, 10)


def test_known_values_all_pass():
    reports = verify_known_values()
    assert len(reports) == len(KNOWN_HEIGHTS) + len(KNOWN_FLAT)
    assert all(r.passed for r in reports)


def test_survey_small_pair():
    for rep in survey_residue_classes(3, 5):
        assert rep.passed, rep
        assert rep.checked > 0


# For (3, 5) the classes 7 and 8 are opposite; t = 7, 22 carry the set
# (-2, -1, 0, 1) and t = 8, 23 its negation (-1, 0, 1, 2).
@pytest.mark.parametrize(
    "bad_t, change, height_witness, set_witness",
    [
        # shifted: the height stays 2, the set differs from t = 7's
        (22, lambda cs: tuple(c + 1 for c in cs), None,
         {"class": 7, "witnesses": [[7, [-2, -1, 0, 1]], [22, [-1, 0, 1, 2]]]}),
        # negated first t of its class: only the opposite class exposes it
        (8, lambda cs: tuple(sorted(-c for c in cs)), None,
         {"class": 8, "witnesses": [[7, [-2, -1, 0, 1]], [8, [-2, -1, 0, 1]]]}),
        # widened: the height grows to 3, so both reports fail
        (22, lambda cs: (-3,) + cs, {"class": 7, "examples": [[7, 2], [22, 3]]},
         {"class": 7, "witnesses": [[7, [-2, -1, 0, 1]], [22, [-3, -2, -1, 0, 1]]]}),
    ],
    ids=["shifted", "negated", "widened"],
)
def test_survey_reports_the_first_failure(monkeypatch, bad_t, change, height_witness,
                                          set_witness):
    real = checks.coefficient_set
    monkeypatch.setattr(
        checks, "coefficient_set", lambda t: change(real(t)) if t.r == bad_t else real(t)
    )
    heights, sets = survey_residue_classes(3, 5)
    assert heights.passed == (height_witness is None) and heights.witness == height_witness
    assert not sets.passed and sets.witness == set_witness


def test_survey_requires_coprime():
    with pytest.raises(PreconditionViolated):
        survey_residue_classes(4, 6)


def test_recursive_sweep_tallies_both_outcomes():
    reports, tally = recursive_bound_sweep(q_max=10)
    assert tally["failed"] == 0
    assert tally["equal"] > 0 and tally["plus-one"] > 0
    assert tally["instances"] == len(reports)
