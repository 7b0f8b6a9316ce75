"""Tests for the constraint system, including property-based checks."""

import pytest
from hypothesis import given, strategies as st

from repro.constraints import (
    Constraint,
    JSConstraints,
    parse_constraint,
    parse_constraints,
)
from repro.errors import ConstraintError
from repro.simnet import ConstantLoad, Machine, make_host
from repro.sysmon import SysParam, sample_all


def snapshot(load=0.0, name="m1", model="Ultra10/440", t=10.0):
    m = Machine(spec=make_host(name, model), load_model=ConstantLoad(load))
    return sample_all(m, t)


class TestConstraint:
    def test_numeric_holds(self):
        snap = snapshot(load=0.1)
        assert Constraint(SysParam.IDLE, ">=", 50).holds(snap)
        assert not Constraint(SysParam.IDLE, "<", 50).holds(snap)

    def test_string_equality(self):
        snap = snapshot(name="milena")
        assert Constraint(SysParam.NODE_NAME, "==", "milena").holds(snap)
        assert not Constraint(SysParam.NODE_NAME, "!=", "milena").holds(snap)

    def test_numeric_value_as_string_coerced(self):
        snap = snapshot(load=0.1)
        assert Constraint(SysParam.IDLE, ">=", "50").holds(snap)

    def test_bad_operator_rejected(self):
        with pytest.raises(ConstraintError):
            Constraint(SysParam.IDLE, "~=", 50)

    def test_non_numeric_value_for_numeric_param_rejected(self):
        with pytest.raises(ConstraintError):
            Constraint(SysParam.IDLE, ">=", "plenty")

    def test_single_equals_alias(self):
        snap = snapshot(name="rachel")
        assert Constraint(SysParam.NODE_NAME, "=", "rachel").holds(snap)

    def test_missing_param_raises(self):
        with pytest.raises(ConstraintError):
            Constraint(SysParam.IDLE, ">=", 50).holds({})


class TestJSConstraints:
    def paper_example(self):
        """The exact constraint set from Section 4.2."""
        constr = JSConstraints()
        constr.setConstraints(SysParam.NODE_NAME, "!=", "milena")
        constr.setConstraints(SysParam.CPU_SYS_LOAD, "<=", 10)
        constr.setConstraints(SysParam.IDLE, ">=", 50)
        constr.setConstraints(SysParam.AVAIL_MEM, ">=", 50)
        constr.setConstraints(SysParam.SWAP_SPACE_RATIO, "<=", 0.3)
        return constr

    def test_paper_example_on_idle_machine(self):
        assert self.paper_example().holds(snapshot(load=0.02, name="rachel"))

    def test_paper_example_excludes_milena(self):
        assert not self.paper_example().holds(
            snapshot(load=0.02, name="milena")
        )

    def test_paper_example_excludes_loaded_node(self):
        snap = snapshot(load=0.85, name="rachel")
        constr = self.paper_example()
        assert not constr.holds(snap)
        failing = constr.failing(snap)
        assert any(c.param is SysParam.IDLE for c in failing)

    def test_empty_constraints_always_hold(self):
        assert JSConstraints().holds(snapshot())

    def test_string_param_names_accepted(self):
        constr = JSConstraints([("IDLE", ">=", 10)])
        assert constr.holds(snapshot(load=0.1))

    def test_unknown_param_rejected(self):
        with pytest.raises(ConstraintError):
            JSConstraints([("WARP_FIELD", ">=", 10)])

    def test_str(self):
        text = str(self.paper_example())
        assert "NODE_NAME != milena" in text
        assert " AND " in text


class TestParser:
    def test_parse_single(self):
        c = parse_constraint("IDLE >= 50")
        assert c.param is SysParam.IDLE
        assert c.op == ">="
        assert c.value == 50.0

    def test_parse_string_value(self):
        c = parse_constraint("NODE_NAME != 'milena'")
        assert c.value == "milena"

    def test_parse_multiple(self):
        constr = parse_constraints(
            "IDLE >= 50; AVAIL_MEM >= 64\n# comment\nCPU_SYS_LOAD <= 10"
        )
        assert len(constr) == 3

    def test_parse_garbage_rejected(self):
        with pytest.raises(ConstraintError):
            parse_constraint("what even is this")

    def test_parse_unknown_param_rejected(self):
        with pytest.raises(ConstraintError):
            parse_constraint("BOGUS >= 1")

    def test_parse_bad_numeric_value_rejected(self):
        with pytest.raises(ConstraintError):
            parse_constraint("IDLE >= lots")


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

numeric_params = st.sampled_from(
    [p for p in SysParam if p.is_numeric]
)
thresholds = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestConstraintProperties:
    @given(param=numeric_params, value=thresholds)
    def test_le_ge_partition(self, param, value):
        """For any snapshot value v and threshold x, exactly one of
        (v < x), (v == x), (v > x) holds."""
        snap = snapshot(load=0.25)
        lt = Constraint(param, "<", value).holds(snap)
        eq = Constraint(param, "==", value).holds(snap)
        gt = Constraint(param, ">", value).holds(snap)
        assert sum([lt, eq, gt]) == 1

    @given(param=numeric_params, value=thresholds)
    def test_negation_duality(self, param, value):
        snap = snapshot(load=0.4)
        assert Constraint(param, "<=", value).holds(snap) != Constraint(
            param, ">", value
        ).holds(snap)
        assert Constraint(param, "==", value).holds(snap) != Constraint(
            param, "!=", value
        ).holds(snap)

    @given(
        params=st.lists(
            st.tuples(numeric_params, st.sampled_from(["<=", ">="]),
                      thresholds),
            max_size=6,
        )
    )
    def test_conjunction_semantics(self, params):
        """JSConstraints.holds == AND of the individual constraints."""
        snap = snapshot(load=0.3)
        constr = JSConstraints(list(params))
        individual = all(
            Constraint(p, op, v).holds(snap) for p, op, v in params
        )
        assert constr.holds(snap) == individual

    @given(param=numeric_params, value=thresholds)
    def test_parse_round_trip(self, param, value):
        c = Constraint(param, ">=", value)
        reparsed = parse_constraint(str(c))
        assert reparsed.param is c.param
        assert reparsed.op == c.op
        assert float(reparsed.value) == pytest.approx(float(c.value))
