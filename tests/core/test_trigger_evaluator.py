"""Unit tests for the trigger evaluator and Trigger/TriggerSet classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.triggers import Trigger, TriggerSet
from repro.errors import TriggerEvalError, TriggerSyntaxError


class TestEvaluation:
    def test_paper_example(self):
        t = Trigger("(t > 1500)")
        assert not t.evaluate({"t": 1000})
        assert not t.evaluate({"t": 1500})
        assert t.evaluate({"t": 1501})

    def test_arithmetic(self):
        t = Trigger("t % 200 == 0")
        assert t.evaluate({"t": 400})
        assert not t.evaluate({"t": 401})

    def test_division(self):
        assert Trigger("10 / 4 == 2.5").evaluate({})

    def test_logical_combination(self):
        t = Trigger("t > 10 && pending < 5 || force")
        assert t.evaluate({"t": 20, "pending": 1, "force": False})
        assert not t.evaluate({"t": 5, "pending": 1, "force": False})
        assert t.evaluate({"t": 5, "pending": 9, "force": True})

    def test_short_circuit_and(self):
        # Right side would fail (unknown var) but is never evaluated.
        t = Trigger("false && ghost > 1")
        assert not t.evaluate({})

    def test_short_circuit_or(self):
        t = Trigger("true || ghost > 1")
        assert t.evaluate({})

    def test_not(self):
        assert Trigger("!(t > 5)").evaluate({"t": 1})

    def test_unary_minus(self):
        assert Trigger("-t == 0 - 5").evaluate({"t": 5})

    def test_equality_on_booleans(self):
        assert Trigger("true == true").evaluate({})
        assert Trigger("true != false").evaluate({})


class TestEvaluationErrors:
    def test_unknown_variable(self):
        with pytest.raises(TriggerEvalError, match="unknown variable"):
            Trigger("ghost > 1").evaluate({})

    def test_division_by_zero(self):
        with pytest.raises(TriggerEvalError, match="division by zero"):
            Trigger("1 / t > 1").evaluate({"t": 0})

    def test_modulo_by_zero(self):
        with pytest.raises(TriggerEvalError, match="modulo by zero"):
            Trigger("t % n == 0").evaluate({"t": 5, "n": 0})

    def test_boolean_in_arithmetic_rejected(self):
        with pytest.raises(TriggerEvalError, match="expected a number"):
            Trigger("t + flag > 1").evaluate({"t": 1, "flag": True})

    def test_number_in_logical_rejected(self):
        with pytest.raises(TriggerEvalError, match="expected a boolean"):
            Trigger("t && true").evaluate({"t": 1})

    def test_mixed_equality_rejected(self):
        with pytest.raises(TriggerEvalError):
            Trigger("t == true").evaluate({"t": 1})

    def test_non_boolean_top_level_rejected(self):
        with pytest.raises(TriggerEvalError, match="non-boolean"):
            Trigger("t + 1").evaluate({"t": 1})

    def test_not_on_number_rejected(self):
        with pytest.raises(TriggerEvalError):
            Trigger("!t").evaluate({"t": 1})


class TestTriggerClass:
    def test_syntax_error_at_construction(self):
        with pytest.raises(TriggerSyntaxError):
            Trigger("t >")

    def test_variables_property(self):
        t = Trigger("t > 100 && seats < 3")
        assert t.variables == {"t", "seats"}
        assert t.view_variables == {"seats"}

    def test_unparse(self):
        assert Trigger("(t > 1500)").unparse() == "(t > 1500)"


class TestTriggerSet:
    def test_all_optional(self):
        ts = TriggerSet()
        assert ts.push is None and ts.pull is None and ts.validity is None
        assert ts.view_variables() == frozenset()

    def test_paper_fig3_style(self):
        # Fig 3 passes the same expression for push, pull, validity.
        ts = TriggerSet(push="(t > 1500)", pull="(t > 1500)", validity="(t > 1500)")
        env = {"t": 2000}
        assert ts.push.evaluate(env) and ts.pull.evaluate(env)
        assert ts.validity.evaluate(env)

    def test_view_variables_unioned(self):
        ts = TriggerSet(push="a > 1", pull="t > 2 && b < 3", validity="c == 0")
        assert ts.view_variables() == {"a", "b", "c"}

    def test_jsonable_roundtrip(self):
        ts = TriggerSet(push="t > 1", validity="x < 2")
        ts2 = TriggerSet.from_jsonable(ts.to_jsonable())
        assert ts2.push.source == "t > 1"
        assert ts2.pull is None
        assert ts2.validity.source == "x < 2"


# -- expected outcomes ---------------------------------------------------
# (source, env, outcome): a strict boolean, or the exact TriggerEvalError
# message.  Short-circuits, ``%``/``/`` by zero, unknown variables and
# functions, type errors, arity errors and non-boolean top levels.

EXPECTED = [
    ("(t > 1500) && pending < 5 || force",
     {"t": 2000.0, "pending": 3, "force": False}, True),
    ("t % 200 == 0 && pending < 5", {"t": 400, "pending": 1}, True),
    ("t % 200 == 0 && pending < 5", {"t": 401, "pending": 1}, False),
    # Short-circuit: the false/true left side must hide a right-side error.
    ("false && 1 / 0 > 0", {}, False),
    ("true || 1 / 0 > 0", {}, True),
    ("true && 1 / 0 > 0", {}, "division by zero in trigger"),
    ("false || t / 0 > 0", {"t": 1}, "division by zero in trigger"),
    # Division / modulo by zero.
    ("1 / (t - t) > 0", {"t": 5}, "division by zero in trigger"),
    ("t % 0 == 1", {"t": 5}, "modulo by zero in trigger"),
    ("10 / 4 == 2.5", {}, True),
    # Unknown variable (and one hiding behind a short-circuit).
    ("ghost > 0", {}, "unknown variable 'ghost'"),
    ("false && ghost > 0", {}, False),
    ("true && ghost", {}, "unknown variable 'ghost'"),
    # Type errors: booleans are not numbers.
    ("t + true > 0", {"t": 1}, "right of '+': expected a number, got True"),
    ("force + 1 > 0", {"force": True},
     "left of '+': expected a number, got True"),
    ("t == true", {"t": 1}, "'==' between boolean and number"),
    ("t != false", {"t": 0}, "'!=' between boolean and number"),
    ("!(t)", {"t": 1}, "operand of '!': expected a boolean, got 1"),
    ("-force > 0", {"force": True},
     "operand of unary '-': expected a number, got True"),
    ("t && force", {"t": 1, "force": True},
     "left of '&&': expected a boolean, got 1"),
    # Non-boolean top level.
    ("t + 1", {"t": 1}, "trigger 't + 1' evaluated to non-boolean 2.0"),
    ("abs(0 - t)", {"t": 3},
     "trigger 'abs(0 - t)' evaluated to non-boolean 3.0"),
    ("min(1, 2)", {}, "trigger 'min(1, 2)' evaluated to non-boolean 1.0"),
    # Builtins: values, arity errors, unknown function.
    ("abs(0 - t) > 2", {"t": 3}, True),
    ("floor(t) == 3", {"t": 3.7}, True),
    ("ceil(t) == 4", {"t": 3.2}, True),
    ("min(t, 5, 2) <= max(1, t)", {"t": 4}, True),
    ("abs(1, 2) > 0", {}, "abs() takes 1 argument(s), got 2"),
    ("min(1) > 0", {}, "min() takes >= 2 argument(s), got 1"),
    ("sqrt(t) > 0", {"t": 4},
     "unknown function 'sqrt'; available: abs, ceil, floor, max, min"),
    ("abs(force) > 0", {"force": True},
     "argument of abs(): expected a number, got True"),
    # Comparison chains / nesting / unary stacking.
    ("!(!(t > 0))", {"t": 1}, True),
    ("-(-t) == t", {"t": 7}, True),
    ("((t + 1) * 2 - 2) / 2 == t", {"t": 21}, True),
    ("(t >= 0) == (t <= 100)", {"t": 50}, True),
]


@pytest.mark.parametrize("source,env,expected", EXPECTED)
def test_expected_outcomes(source, env, expected):
    trig = Trigger(source)
    if isinstance(expected, bool):
        assert trig.evaluate(env) is expected
    else:
        with pytest.raises(TriggerEvalError) as err:
            trig.evaluate(env)
        assert str(err.value) == expected


def test_error_messages():
    cases = {
        "ghost > 1": "unknown variable 'ghost'",
        "1 / 0 > 0": "division by zero in trigger",
        "1 % 0 > 0": "modulo by zero in trigger",
        "min(1) > 0": "min() takes >= 2 argument(s), got 1",
        "abs(1, 2) > 0": "abs() takes 1 argument(s), got 2",
    }
    for source, message in cases.items():
        with pytest.raises(TriggerEvalError) as err:
            Trigger(source).evaluate({})
        assert message in str(err.value)


_SOURCES = st.sampled_from(
    [
        "t > lo && t < hi",
        "t % step == 0 || force",
        "!(done) && (x + y) / 2 >= t",
        "min(x, y) <= max(x, y) && abs(x - y) < 100",
        "floor(t / step) * step == t",
        "(x * y - t > 0) == force",
        "ceil(x) >= floor(x)",
    ]
)

_VALUES = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5, allow_nan=False, width=32).map(float),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    source=_SOURCES,
    env=st.fixed_dictionaries(
        {},
        optional={
            name: _VALUES
            for name in ("t", "lo", "hi", "step", "force", "done", "x", "y")
        },
    ),
)
def test_generated_environments_yield_bool_or_trigger_error(source, env):
    """Random (often ill-typed or incomplete) environments: a trigger
    yields a strict boolean or raises TriggerEvalError, nothing else."""
    try:
        result = Trigger(source).evaluate(env)
    except TriggerEvalError:
        return
    assert isinstance(result, bool)
