"""Release acceptance suite: one test per criterion, each printing a
PASS/FAIL line with the measured worst case (run with -s to see them all)."""

import pytest

from crownlab import checks


def report(index: int, result: checks.CheckResult):
    verdict = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {index:02d} [{verdict}] {result.name}: {result.detail}")
    assert result.passed, f"criterion {index} ({result.name}): {result.detail}"


def test_criterion_01_real_reconstruction():
    report(1, checks.acceptance_01_real_reconstruction())


def test_criterion_02_sl2_dual_oracle():
    report(2, checks.acceptance_02_sl2_dual_oracle())


def test_criterion_03_minor_weight_identity():
    report(3, checks.acceptance_03_minor_weight_identity())


def test_criterion_04_cosine_formula():
    report(4, checks.acceptance_04_cosine_formula())


def test_criterion_05_taylor_machinery():
    report(5, checks.acceptance_05_taylor_machinery())


def test_criterion_06_imaginary_containment():
    report(6, checks.acceptance_06_imaginary_containment())


def test_criterion_07_sl2_blowup():
    report(7, checks.acceptance_07_sl2_blowup())


def test_criterion_08_growth_bound_shape():
    report(8, checks.acceptance_08_growth_bound_shape())


def test_criterion_09_scale_relations():
    report(9, checks.acceptance_09_scale_relations())


def test_criterion_10_principal_series():
    report(10, checks.acceptance_10_principal_series())


def test_criterion_11_distributional_limit():
    report(11, checks.acceptance_11_distributional_limit())


def test_criterion_12_smax_axioms():
    report(12, checks.acceptance_12_smax_axioms())


def test_suites_cover_every_criterion():
    suite_members = {fn for fns in checks.SUITES.values() for fn in fns}
    criteria = {fn for name, fn in vars(checks).items() if name.startswith("acceptance_")}
    assert suite_members == criteria


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
