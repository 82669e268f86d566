"""OBS003 — obs instrumentation without the ``is not None`` guard.

Why this rule exists: the flight recorder's zero-cost-off invariant
(PERFORMANCE.md) is that a disabled run executes the exact pre-obs hot
path.  That holds because ``ObsContext.component()`` hands components
``None`` when observability is off, and **every** instrumentation site is
a single ``if self._obs is not None:`` branch.  One unguarded
``self._obs.begin_span(...)`` either crashes obs-off runs
(``AttributeError`` on ``None``) or — worse — forces ``component()`` to
return a live object for disabled runs, quietly re-introducing per-event
overhead that the obs-on/obs-off digest suite cannot see (digests stay
identical; only the hot path got slower).

The rule flags *instrumentation* calls (``record``, ``begin_span``,
``end_span``) on a receiver named ``obs`` / ``_obs`` (bare or
as an attribute, e.g. ``self._obs``) that are not dominated by an
``is not None`` test of the same receiver.  Owner-side lifecycle calls —
the simulation calling ``component()``/``on_run_start()``/``finalize()``
on the concrete ``ObsContext`` it constructed — are not instrumentation
sites and are exempt.  Recognised guard shapes::

    if self._obs is not None:
        self._obs.begin_span(...)          # guarded

    if self._obs is None:
        return
    self._obs.begin_span(...)              # guarded (early exit)

    if self._obs is not None and cond:     # guarded (and-chain)
    assert obs is not None                 # guarded for the rest of the block

Reassigning the receiver drops its guard for the rest of the block.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from repro.lint.rules import FileRule, RawFinding, register

#: Receiver names treated as obs components.
_OBS_NAMES = frozenset({"obs", "_obs"})

#: Per-event instrumentation methods a component may call on its (possibly
#: None) obs handle.  Owner-side lifecycle methods (``component``,
#: ``on_run_start``, ``finalize``, ...) are called on the concrete context
#: and deliberately absent.
_INSTRUMENTATION_METHODS = frozenset({"begin_span", "end_span", "record"})

_TERMINAL = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _receiver_key(node: ast.expr) -> str:
    """A stable key for a guardable receiver expression (``""`` if not one)."""
    if isinstance(node, ast.Name) and node.id in _OBS_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _OBS_NAMES:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on valid trees
            return ""
    return ""


def _any_receiver_key(node: ast.expr) -> str:
    """Key for *any* expression usable in a guard test (not just obs ones)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover
        return ""


def _none_tests(test: ast.expr) -> Tuple[Set[str], Set[str]]:
    """``(not_none, is_none)`` receiver keys proven by ``test`` being true.

    ``and`` chains accumulate (all operands hold); ``or`` chains prove
    nothing on their own.
    """
    not_none: Set[str] = set()
    is_none: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            sub_not, sub_is = _none_tests(value)
            not_none |= sub_not
            is_none |= sub_is
        return not_none, is_none
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        key = _any_receiver_key(test.left)
        if key:
            if isinstance(test.ops[0], ast.IsNot):
                not_none.add(key)
            elif isinstance(test.ops[0], ast.Is):
                is_none.add(key)
    return not_none, is_none


def _terminates(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], _TERMINAL)


@register
class ObsGuardRule(FileRule):
    __doc__ = __doc__

    code = "OBS003"
    summary = "call on an obs component without an `is not None` guard"

    def check(self, path: str, tree: ast.AST, source: str) -> Iterator[RawFinding]:
        findings: List[RawFinding] = []
        # Each function body is analysed independently; module-level code too.
        if isinstance(tree, ast.Module):
            self._walk_block(tree.body, set(), findings)
        return iter(findings)

    # ------------------------------------------------------------------ flow

    def _walk_block(
        self,
        body: Sequence[ast.stmt],
        guarded: Set[str],
        findings: List[RawFinding],
    ) -> None:
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested scope starts fresh: closures may outlive the guard.
                self._walk_block(stmt.body, set(), findings)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._walk_block(stmt.body, set(), findings)
                continue
            if isinstance(stmt, ast.If):
                self._check_expr(stmt.test, guarded, findings)
                not_none, is_none = _none_tests(stmt.test)
                self._walk_block(stmt.body, guarded | not_none, findings)
                self._walk_block(stmt.orelse, guarded | is_none, findings)
                # An early-exit branch proves the *opposite* fact afterwards:
                # ``if x is None: return`` leaves x not-None for the rest of
                # the block, and vice versa for a terminating else branch.
                if _terminates(stmt.body) and not stmt.orelse:
                    guarded |= is_none
                if _terminates(stmt.orelse):
                    guarded |= not_none
                continue
            if isinstance(stmt, ast.Assert):
                self._check_expr(stmt.test, guarded, findings)
                not_none, _ = _none_tests(stmt.test)
                guarded |= not_none
                continue
            if isinstance(stmt, (ast.While,)):
                self._check_expr(stmt.test, guarded, findings)
                not_none, _ = _none_tests(stmt.test)
                self._walk_block(stmt.body, guarded | not_none, findings)
                self._walk_block(stmt.orelse, guarded, findings)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_expr(stmt.iter, guarded, findings)
                self._walk_block(stmt.body, guarded, findings)
                self._walk_block(stmt.orelse, guarded, findings)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._check_expr(item.context_expr, guarded, findings)
                self._walk_block(stmt.body, guarded, findings)
                continue
            if isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, guarded, findings)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, guarded, findings)
                self._walk_block(stmt.orelse, guarded, findings)
                self._walk_block(stmt.finalbody, guarded, findings)
                continue
            # Plain statement: check expressions, then account reassignment.
            self._check_stmt_exprs(stmt, guarded, findings)
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    key = _any_receiver_key(target)
                    if key:
                        guarded.discard(key)

    # ------------------------------------------------------------------ exprs

    def _check_stmt_exprs(
        self, stmt: ast.stmt, guarded: Set[str], findings: List[RawFinding]
    ) -> None:
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._check_expr(node, guarded, findings)

    def _check_expr(
        self, expr: ast.expr, guarded: Set[str], findings: List[RawFinding]
    ) -> None:
        # Recursive so expression-level guards extend coverage:
        # ``x.f() if x is not None else y`` and ``x is not None and x.f()``.
        if isinstance(expr, ast.IfExp):
            not_none, is_none = _none_tests(expr.test)
            self._check_expr(expr.test, guarded, findings)
            self._check_expr(expr.body, guarded | not_none, findings)
            self._check_expr(expr.orelse, guarded | is_none, findings)
            return
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            accumulated = set(guarded)
            for value in expr.values:
                self._check_expr(value, accumulated, findings)
                not_none, _ = _none_tests(value)
                accumulated |= not_none
            return
        if isinstance(expr, ast.Call):
            func = expr.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _INSTRUMENTATION_METHODS
            ):
                key = _receiver_key(func.value)
                if key and key not in guarded:
                    findings.append(
                        RawFinding(
                            expr.lineno,
                            expr.col_offset,
                            f"call on obs component `{key}.{func.attr}(...)` "
                            "outside an `is not None` guard — obs-off runs "
                            "receive None here (zero-cost-off invariant)",
                        )
                    )
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._check_expr(child, guarded, findings)
