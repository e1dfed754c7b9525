"""Formulas in ``r`` for custom radial weights, read by Python's parser.

A formula holds number literals, ``r``, unary ``+``/``-``, binary
``+ - * /``, ``^`` for the power and one-argument ``exp``, ``log`` and
``sqrt``, with Python's precedence: ``^`` is right-associative and binds
tighter than a sign on its left (``-r^2`` is -(r^2)), and a sign may
follow any operator, as in ``(1-r)^-0.5``.  ``**`` and hex literals are
refused, and a formula nested too deeply raises :class:`ExprError`.  Trees
are evaluated numpy-vectorised and differentiated symbolically, so that a
weight can be given by its tail, with the density as -d/dr of the tail.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from typing import Union

import numpy as np

Node = tuple


class ExprError(ValueError):
    """Malformed formula or evaluation outside the weight's domain."""


_FUNCS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt}
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
           ast.Pow: "pow"}
_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv}


def _tree(node: ast.AST, text: str) -> Node:
    """The tuple tree of a parsed formula; ExprError on any other node."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return (_BINARY[type(node.op)], _tree(node.left, text),
                _tree(node.right, text))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _tree(node.operand, text)
        return ("neg", operand) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Name) and node.id == "r":
        return ("var",)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1
            and not node.keywords):
        return ("call", node.func.id, _tree(node.args[0], text))
    source = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            return ("num", float(source))
        except ValueError:
            raise ExprError(f"unsupported number {source!r}") from None
    raise ExprError(f"unsupported syntax {source!r}")


def _shallow(fn, *args):
    """fn(*args), with a RecursionError on a deep formula as ExprError."""
    try:
        return fn(*args)
    except RecursionError:
        raise ExprError("formula nested too deeply") from None


def parse(formula: str) -> Node:
    # Unicode digits read as ASCII ones and integers may carry leading
    # zeros, as float() allows; every other non-ASCII character is refused
    text = re.sub(r"\s+", " ", formula).strip()
    text = re.sub(r"\d", lambda m: str(int(m[0])), text)
    text = re.sub(r"(?<![\w.])0+(?=\d)", "", text)
    if not text.isascii():
        raise ExprError("non-ASCII character in formula")
    if "**" in text:
        raise ExprError("write a power as '^', not '**'")
    text = text.replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = ast.parse(text, "<formula>", "eval").body
    except SyntaxError as e:
        raise ExprError(f"invalid formula: {e.msg}") from None
    except (RecursionError, MemoryError):   # the parser's stack ran out
        raise ExprError("formula nested too deeply") from None
    return _shallow(_tree, body, text)


def evaluate(node: Node, r: Union[float, np.ndarray]):
    kind = node[0]
    if kind == "num":
        return np.full_like(np.asarray(r, dtype=float), node[1]) \
            if np.ndim(r) else node[1]
    if kind == "var":
        return np.asarray(r, dtype=float) if np.ndim(r) else float(r)
    if kind == "neg":
        return -evaluate(node[1], r)
    if kind in _ARITHMETIC:
        return _ARITHMETIC[kind](evaluate(node[1], r), evaluate(node[2], r))
    if kind == "pow":
        with np.errstate(invalid="ignore"):
            return evaluate(node[1], r) ** evaluate(node[2], r)
    if kind == "call":
        arg = evaluate(node[2], r)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _FUNCS[node[1]](arg)
    raise ExprError(f"bad node {node!r}")


def _is_const(node: Node) -> bool:
    stack = [node]
    while stack:
        node = stack.pop()
        if node[0] == "var":
            return False
        stack.extend(arg for arg in node[1:] if type(arg) is tuple)
    return True


def derivative(node: Node) -> Node:
    """Symbolic d/dr of an AST, used to turn tail formulas into densities."""
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0)
    if kind in ("neg", "add", "sub"):
        return (kind, *map(derivative, node[1:]))
    if kind == "mul":
        f, g = node[1], node[2]
        return ("add", ("mul", derivative(f), g), ("mul", f, derivative(g)))
    if kind == "div":
        f, g = node[1], node[2]
        num = ("sub", ("mul", derivative(f), g), ("mul", f, derivative(g)))
        return ("div", num, ("mul", g, g))
    if kind == "pow":
        f, g = node[1], node[2]
        if _is_const(g):
            # d f^c = c f^(c-1) f'
            return ("mul", ("mul", g, ("pow", f, ("sub", g, ("num", 1.0)))),
                    derivative(f))
        # general: f^g (g' ln f + g f'/f)
        inner = ("add",
                 ("mul", derivative(g), ("call", "log", f)),
                 ("div", ("mul", g, derivative(f)), f))
        return ("mul", node, inner)
    if kind == "call":
        name, arg = node[1], node[2]
        darg = derivative(arg)
        if name == "exp":
            return ("mul", node, darg)
        if name == "log":
            return ("div", darg, arg)
        if name == "sqrt":
            return ("div", darg, ("mul", ("num", 2.0), node))
    raise ExprError(f"bad node {node!r}")


class Expression:
    """A parsed one-variable formula with evaluation and differentiation."""

    def __init__(self, formula: str, tree: Node = None):
        self.formula = formula
        self.tree = parse(formula) if tree is None else tree

    def __call__(self, r):
        return _shallow(evaluate, self.tree, r)

    def derivative(self) -> "Expression":
        return Expression(f"d/dr({self.formula})",
                          _shallow(derivative, self.tree))
