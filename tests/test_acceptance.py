"""Acceptance gate: every guaranteed bound at its stated tolerance.

Each test prints its PASS/FAIL line (run pytest with -s to see them); the
same checks back the ``stratgame verify`` subcommand.  The long-horizon
checks run their seeds on one worker per CPU, or on STRATGAME_THREADS
workers when it is set.
"""

from stratgame import acceptance


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_1_halving_mistake_bound():
    _run(acceptance.criterion_1_halving_mistake_bound)


def test_criterion_2_mwmr_expectation_bound():
    _run(acceptance.criterion_2_mwmr_expectation_bound)


def test_criterion_3_deterministic_floor():
    _run(acceptance.criterion_3_deterministic_floor)


def test_criterion_4_randomized_floor():
    _run(acceptance.criterion_4_randomized_floor)


def test_criterion_5_union_learner_loss():
    _run(acceptance.criterion_5_union_learner_loss)


def test_criterion_6_boosting():
    _run(acceptance.criterion_6_boosting)


def test_criterion_7_longest_survivor():
    _run(acceptance.criterion_7_longest_survivor)


def test_criterion_8_exact_construction_losses():
    _run(acceptance.criterion_8_exact_construction_losses)


def test_criterion_9_property_suite():
    _run(acceptance.criterion_9_property_suite)
