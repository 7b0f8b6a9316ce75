"""The single-fault sweep of the migrating program, over the object
protocol's kinds (``tests/fault_sweep.py`` has the program, the clauses
and the verdict; run that module to sweep every kind the program
sends)."""

import pytest

from tests.fault_sweep import FAULTS, STAGES, clause, run_one

KINDS = ("CREATE_OBJECT", "MIGRATE_OUT", "MIGRATE_IN", "FREE_OBJECT")


@pytest.mark.parametrize("reliable", [False, True],
                         ids=["unreliable", "reliable"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("kind", KINDS)
def test_one_copy_and_no_orphan(kind, stage, fault, reliable):
    run = run_one(clause(fault, kind, stage), reliable)
    assert run.violations == [], run.line()
