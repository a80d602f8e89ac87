"""Closed-form variance expressions in ``mu``: parse, differentiate, compile.

The grammar is numbers, the name ``mu``, the operators ``+ - * / **`` (``^``
is read as ``**``), unary signs, parentheses and the one-argument functions
``exp``, ``log`` and ``sqrt``.  Anything else -- other names or calls,
attributes, subscripts, strings, syntax errors, a constant subexpression
that is undefined or not finite -- raises DomainError before anything is
evaluated.

A tree is a float, the string ``"mu"``, or a tuple ``(op, *operands)``.
Constant subtrees are folded as the tree is built, so ``mu**(3/2)`` is
differentiated by the power rule for the exponent 1.5.  The derivatives are
compiled to functions over the ``math`` module with no builtins; a power goes
through ``math.pow``, so a negative base with a fractional exponent raises
ValueError rather than giving a complex number.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

from .errors import DomainError

Tree = float | str | tuple

MU = "mu"
_FUNCTIONS = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_NAMESPACE = {"__builtins__": {}, "pow": math.pow, **_FUNCTIONS}


def derivative_functions(expression: str, count: int) -> tuple[str, list[Callable[[float], float]]]:
    """The parsed expression's text and functions for it and its first count - 1 derivatives."""
    try:
        parsed = ast.parse(str(expression).replace("^", "**"), mode="eval").body
        trees = [_build(parsed)]
        for _ in range(count - 1):
            trees.append(_diff(trees[-1]))
        funcs = [eval(compile(f"lambda mu: {_source(t)}", "<variance>", "eval"), _NAMESPACE) for t in trees]
    except DomainError:
        raise
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise DomainError(f"cannot read variance expression {expression!r}: {exc}") from exc
    return ast.unparse(parsed), funcs


def _build(node: ast.AST) -> Tree:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _number(float(node.value))
    if isinstance(node, ast.Name) and node.id == MU:
        return MU
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _build(node.operand)
        return operand if isinstance(node.op, ast.UAdd) else _mul(-1.0, operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left), _build(node.right))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        return _call(node.func.id, _build(node.args[0]))
    raise DomainError(f"variance expression may not contain {ast.unparse(node)!r}")


def _number(value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"variance expression has a non-finite constant {value!r}")
    return value


def _const(*trees: Tree) -> bool:
    return all(isinstance(t, float) for t in trees)


def _add(a: Tree, b: Tree) -> Tree:
    if _const(a, b):
        return _number(a + b)
    if a == 0.0:
        return b
    return a if b == 0.0 else ("+", a, b)


def _sub(a: Tree, b: Tree) -> Tree:
    if _const(a, b):
        return _number(a - b)
    if a == 0.0:
        return _mul(-1.0, b)
    return a if b == 0.0 else ("-", a, b)


def _mul(a: Tree, b: Tree) -> Tree:
    if _const(a, b):
        return _number(a * b)
    if a == 0.0 or b == 0.0:
        return 0.0
    if a == 1.0:
        return b
    return a if b == 1.0 else ("*", a, b)


def _div(a: Tree, b: Tree) -> Tree:
    if _const(a, b):
        return _number(a / b)
    if a == 0.0:
        return 0.0
    return a if b == 1.0 else ("/", a, b)


def _pow(a: Tree, b: Tree) -> Tree:
    if _const(a, b):
        return _number(math.pow(a, b))
    if b == 0.0:
        return 1.0
    return a if b == 1.0 else ("**", a, b)


def _call(name: str, a: Tree) -> Tree:
    return _number(_FUNCTIONS[name](a)) if _const(a) else (name, a)


_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div, ast.Pow: _pow}


def _diff(tree: Tree) -> Tree:
    """d tree / d mu by the sum, product, quotient, power and chain rules."""
    if isinstance(tree, float):
        return 0.0
    if tree == MU:
        return 1.0
    op, a, *rest = tree
    da = _diff(a)
    if op == "exp":
        return _mul(tree, da)
    if op == "log":
        return _div(da, a)
    if op == "sqrt":
        return _div(da, _mul(2.0, tree))
    b = rest[0]
    db = _diff(b)
    if op == "+":
        return _add(da, db)
    if op == "-":
        return _sub(da, db)
    if op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if op == "/":
        if _const(b):
            return _div(da, b)
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, 2.0))
    if _const(b):  # a ** c
        return _mul(_mul(b, _pow(a, b - 1.0)), da)
    if _const(a):  # c ** b
        return _mul(_mul(tree, _call("log", a)), db)
    return _mul(tree, _add(_mul(db, _call("log", a)), _div(_mul(b, da), a)))


def _source(tree: Tree) -> str:
    if isinstance(tree, float):
        return repr(tree)
    if tree == MU:
        return MU
    op, a, *rest = tree
    if op in _FUNCTIONS:
        return f"{op}({_source(a)})"
    if op == "**":
        return f"pow({_source(a)}, {_source(rest[0])})"
    return f"({_source(a)} {op} {_source(rest[0])})"
