"""Trigger evaluation against a variable environment.

Semantics:

- Logical operators are short-circuiting and require boolean operands.
- Comparisons and arithmetic require numeric operands (``bool`` is not
  implicitly a number — a trigger like ``t + true`` is a type error).
- Division by zero, unknown variables, and type errors raise
  :class:`~repro.errors.TriggerEvalError` — the cache manager reports
  these back to the application instead of guessing.

The top-level result must be boolean (Eq. 4 maps to {true, false}).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping, Optional, Union

import math

from repro.core.triggers.ast import (
    BinOp,
    BoolLit,
    FuncCall,
    Name,
    Node,
    NumLit,
    UnaryOp,
)
from repro.core.triggers.parser import parse_trigger
from repro.errors import TriggerEvalError

Number = Union[int, float]
Env = Mapping[str, Any]


def _as_number(value: Any, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TriggerEvalError(f"{ctx}: expected a number, got {value!r}")
    return value


def _as_bool(value: Any, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise TriggerEvalError(f"{ctx}: expected a boolean, got {value!r}")
    return value


def evaluate(node: Node, env: Env) -> Any:
    """Evaluate an AST node under ``env``; may return bool or number."""
    if isinstance(node, NumLit):
        return node.value
    if isinstance(node, BoolLit):
        return node.value
    if isinstance(node, Name):
        if node.ident not in env:
            raise TriggerEvalError(f"unknown variable {node.ident!r}")
        return env[node.ident]
    if isinstance(node, UnaryOp):
        if node.op == "!":
            return not _as_bool(evaluate(node.operand, env), "operand of '!'")
        if node.op == "-":
            return -_as_number(evaluate(node.operand, env), "operand of unary '-'")
        raise TriggerEvalError(f"unknown unary operator {node.op!r}")
    if isinstance(node, BinOp):
        return _eval_binop(node, env)
    if isinstance(node, FuncCall):
        return _eval_call(node, env)
    raise TriggerEvalError(f"unknown AST node {node!r}")


# Whitelisted numeric builtins: (min_arity, max_arity, implementation).
_BUILTINS = {
    "abs": (1, 1, lambda a: abs(a)),
    "floor": (1, 1, lambda a: float(math.floor(a))),
    "ceil": (1, 1, lambda a: float(math.ceil(a))),
    "min": (2, None, min),
    "max": (2, None, max),
}


def _eval_call(node: FuncCall, env: Env) -> float:
    spec = _BUILTINS.get(node.name)
    if spec is None:
        raise TriggerEvalError(
            f"unknown function {node.name!r}; available: "
            f"{', '.join(sorted(_BUILTINS))}"
        )
    lo, hi, fn = spec
    if len(node.args) < lo or (hi is not None and len(node.args) > hi):
        want = f"{lo}" if hi == lo else f">= {lo}"
        raise TriggerEvalError(
            f"{node.name}() takes {want} argument(s), got {len(node.args)}"
        )
    values = [
        _as_number(evaluate(a, env), f"argument of {node.name}()")
        for a in node.args
    ]
    return fn(*values)


def _eval_binop(node: BinOp, env: Env) -> Any:
    op = node.op
    if op == "&&":
        left = _as_bool(evaluate(node.left, env), "left of '&&'")
        return left and _as_bool(evaluate(node.right, env), "right of '&&'")
    if op == "||":
        left = _as_bool(evaluate(node.left, env), "left of '||'")
        return left or _as_bool(evaluate(node.right, env), "right of '||'")
    if op in ("==", "!="):
        lv, rv = evaluate(node.left, env), evaluate(node.right, env)
        if isinstance(lv, bool) != isinstance(rv, bool):
            raise TriggerEvalError(f"'{op}' between boolean and number")
        return (lv == rv) if op == "==" else (lv != rv)
    lv = _as_number(evaluate(node.left, env), f"left of '{op}'")
    rv = _as_number(evaluate(node.right, env), f"right of '{op}'")
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    if op == "+":
        return lv + rv
    if op == "-":
        return lv - rv
    if op == "*":
        return lv * rv
    if op == "/":
        if rv == 0:
            raise TriggerEvalError("division by zero in trigger")
        return lv / rv
    if op == "%":
        if rv == 0:
            raise TriggerEvalError("modulo by zero in trigger")
        return lv % rv
    raise TriggerEvalError(f"unknown operator {op!r}")


class Trigger:
    """A parsed trigger: parse once, evaluate many times.

    ``evaluate(env)`` walks the AST with :func:`evaluate` and returns a
    strict boolean.  The paper binds ``t`` to discrete time and the
    remaining names to view variables; this class is agnostic — the
    cache manager assembles the environment.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self.ast: Node = parse_trigger(source)
        self._variables = self.ast.variables()

    @property
    def variables(self) -> FrozenSet[str]:
        return self._variables

    @property
    def view_variables(self) -> FrozenSet[str]:
        """Variables other than the reserved time variable ``t``."""
        return self._variables - {"t"}

    def _check_boolean(self, result: Any) -> bool:
        if not isinstance(result, bool):
            raise TriggerEvalError(
                f"trigger {self.source!r} evaluated to non-boolean {result!r}"
            )
        return result

    def evaluate(self, env: Env) -> bool:
        return self._check_boolean(evaluate(self.ast, env))

    def unparse(self) -> str:
        return self.ast.unparse()

    def __repr__(self) -> str:
        return f"Trigger({self.source!r})"


class TriggerSet:
    """The three per-view triggers from paper §4.1 (all optional)."""

    def __init__(
        self,
        push: Optional[str] = None,
        pull: Optional[str] = None,
        validity: Optional[str] = None,
    ) -> None:
        self.push = Trigger(push) if push else None
        self.pull = Trigger(pull) if pull else None
        self.validity = Trigger(validity) if validity else None
        names: FrozenSet[str] = frozenset()
        for trig in (self.push, self.pull, self.validity):
            if trig is not None:
                names |= trig.view_variables
        self._view_variables = names

    def to_jsonable(self) -> Dict[str, Optional[str]]:
        return {
            "push": self.push.source if self.push else None,
            "pull": self.pull.source if self.pull else None,
            "validity": self.validity.source if self.validity else None,
        }

    @classmethod
    def from_jsonable(cls, d: Mapping[str, Optional[str]]) -> "TriggerSet":
        return cls(push=d.get("push"), pull=d.get("pull"), validity=d.get("validity"))

    def view_variables(self) -> FrozenSet[str]:
        """Union of view variables across the three triggers (computed
        once at construction; triggers are replaced wholesale via
        ``CacheManager.set_triggers``, never mutated in place)."""
        return self._view_variables

    def __repr__(self) -> str:
        return f"TriggerSet({self.to_jsonable()!r})"
