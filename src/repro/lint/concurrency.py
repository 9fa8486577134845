"""Concurrency lint rules (R009, R011, R012) for the threaded stack.

Static counterpart of the runtime sanitizer in
:mod:`repro.utils.concurrency`.  Three rules cover the bug classes the
concurrent serving path invites:

======  ==============================================================
R009    mutation of a guarded attribute outside its declared lock scope
R011    a numpy ``Generator`` shared across thread/worker boundaries
R012    blocking calls while holding a lock/condition
======  ==============================================================

R009 is driven by two in-source annotations:

- ``# repro-lint: guarded-by=<lock>`` on a ``self.<attr> = ...``
  declaration line maps that attribute to the ``self.<lock>`` that must
  be held (lexically, via ``with self.<lock>:``) around every mutation.
  A guard of the form ``external:<holder>`` declares state serialised by
  a lock the class does not own; such mutations can never be lexically
  proven safe, so the sanctioned sites are carried in the lint baseline
  with their justification.
- ``# repro-lint: holds=<lock>[,<lock>]`` on a ``def`` line declares
  that every caller of that helper already holds the listed locks (the
  classic "caller must hold" docstring contract, made machine-readable).

A readers-writer lock (:class:`repro.utils.concurrency.CheckedRWLock`)
is held through ``with self.<lock>.exclusive():``, which counts as
holding ``<lock>``, or ``with self.<lock>.shared():``, which does not: a
shared holder runs beside other shared holders, so a guarded attribute
mutated there is still a finding.  A helper called with only the shared
side held is marked ``holds=<lock>:shared``.

The rules are lexical: they track ``with`` nesting and simple local
aliases (``stats = self.endpoint_stats[k]``), not inter-procedural
data flow.  The runtime sanitizer covers what they cannot see.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.base import Rule, dotted
from repro.lint.engine import FileContext, Finding

__all__ = [
    "CONCURRENCY_RULES",
    "BlockingUnderLockRule",
    "GuardedAttributeRule",
    "SharedGeneratorRule",
]

_GUARD_RE = re.compile(r"#\s*repro-lint:\s*guarded-by=([A-Za-z0-9_.:-]+)")
_HOLDS_RE = re.compile(r"#\s*repro-lint:\s*holds=([A-Za-z0-9_:,\s]+)")

#: Methods of a readers-writer lock whose context manager holds one side.
_RW_SIDES = ("shared", "exclusive")

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_names(func: ast.AST) -> Set[str]:
    """Parameter and locally-assigned names of a function or lambda."""
    bound: Set[str] = set()
    args = func.args
    for arg in (list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)):
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                bound.add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
    return bound


def _imports_any(tree: ast.AST, modules: Tuple[str, ...]) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] in modules for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in modules:
                return True
    return False


def _with_lock(expr: ast.AST) -> Tuple[Optional[str], bool]:
    """``(dotted lock name, shared?)`` of one ``with`` item's expression.

    ``self._lock`` and ``self._rw.exclusive()`` hold their lock;
    ``self._rw.shared()`` holds ``self._rw`` on its shared side.
    """
    if isinstance(expr, ast.Call) and not expr.args and not expr.keywords \
            and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr in _RW_SIDES:
        return dotted(expr.func.value), expr.func.attr == "shared"
    return dotted(expr), False


def _walk_skipping_lambdas(node: ast.AST):
    """``ast.walk`` that does not descend into lambdas / nested defs.

    Used where "executes here, now" matters: code inside a lambda or a
    nested ``def`` runs later, under whatever locks its eventual caller
    holds, so lexical held-lock state does not apply to it.
    """
    todo = [node]
    while todo:
        current = todo.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.Lambda,) + _FUNCTION_DEFS):
                continue
            todo.append(child)


class GuardedAttributeRule(Rule):
    """R009: guarded attributes must be mutated under their declared lock."""

    code = "R009"
    name = "guarded-attribute"
    hint = (
        "mutate the attribute inside `with self.<lock>:` (a readers-writer "
        "lock: `with self.<lock>.exclusive():`), or mark the "
        "helper `# repro-lint: holds=<lock>` when every caller already "
        "holds it; externally-serialised state (guarded-by=external:...) "
        "is carried in the lint baseline with its justification"
    )

    # Method names whose call mutates the receiver.  Generic container
    # mutators plus the domain mutators of the graph view / stats types.
    _MUTATORS = frozenset({
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "appendleft",
        "extendleft", "record_latency", "add_edge", "add_node",
        "compact", "maybe_compact",
    })
    _SKIP_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

    def check(self, ctx: FileContext) -> List[Finding]:
        marks: Dict[int, str] = {}
        for number, line in enumerate(ctx.lines, start=1):
            match = _GUARD_RE.search(line)
            if match:
                marks[number] = match.group(1)
        if not marks:
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(ctx, node, marks, findings)
        return findings

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef,
                     marks: Dict[int, str], out: List[Finding]) -> None:
        guard_map: Dict[str, str] = {}
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.lineno in marks:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        guard_map[target.attr] = marks[node.lineno]
        if not guard_map:
            return
        for member in cls.body:
            if isinstance(member, _FUNCTION_DEFS) and \
                    member.name not in self._SKIP_METHODS:
                held = self._holds(ctx, member)
                self._scan(ctx, cls, member, member.body, held, {},
                           guard_map, out)

    @staticmethod
    def _holds(ctx: FileContext, func: ast.AST) -> Set[str]:
        line = ctx.lines[func.lineno - 1] if func.lineno <= len(ctx.lines) else ""
        match = _HOLDS_RE.search(line)
        if not match:
            return set()
        return {part.strip() for part in match.group(1).split(",") if part.strip()}

    @staticmethod
    def _lock_attr(expr: ast.AST) -> Optional[str]:
        """The held-set token of a ``with`` item: ``<lock>`` or
        ``<lock>:shared``."""
        name, shared = _with_lock(expr)
        if name and name.startswith("self."):
            name = name[len("self."):]
        if name and shared:
            return f"{name}:shared"
        return name

    def _guarded_root(self, node: ast.AST, guard_map: Dict[str, str],
                      aliases: Dict[str, str],
                      allow_bare: bool = False) -> Optional[str]:
        """The guarded attribute a chain like ``self.a[k].b`` roots in.

        ``allow_bare`` resolves a terminal bare name through the alias
        map; it is off for plain store targets (rebinding a local alias
        is not a mutation) and forced on once the chain descends through
        a subscript or call (``s[k] = 1`` does mutate the aliased
        container).
        """
        while True:
            if isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name):
                    if base.id == "self":
                        return node.attr if node.attr in guard_map else None
                    return aliases.get(base.id)
                node = base
            elif isinstance(node, ast.Subscript):
                node = node.value
                allow_bare = True
            elif isinstance(node, ast.Call):
                node = node.func
                allow_bare = True
            elif isinstance(node, ast.Name):
                if allow_bare and node.id != "self":
                    return aliases.get(node.id)
                return None
            else:
                return None

    def _scan(self, ctx: FileContext, cls: ast.ClassDef, method: ast.AST,
              stmts: List[ast.stmt], held: Set[str], aliases: Dict[str, str],
              guard_map: Dict[str, str], out: List[Finding]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = set()
                for item in stmt.items:
                    lock = self._lock_attr(item.context_expr)
                    if lock:
                        acquired.add(lock)
                self._scan(ctx, cls, method, stmt.body, held | acquired,
                           aliases, guard_map, out)
            elif isinstance(stmt, _FUNCTION_DEFS):
                # A nested def runs later, under its caller's locks; only
                # its own holds marker counts.
                self._scan(ctx, cls, stmt, stmt.body,
                           self._holds(ctx, stmt), {}, guard_map, out)
            elif isinstance(stmt, ast.ClassDef):
                continue
            elif isinstance(stmt, (ast.If, ast.While)):
                self._scan_expr(ctx, cls, method, stmt.test, held, aliases,
                                guard_map, out)
                self._scan(ctx, cls, method, stmt.body, held, aliases,
                           guard_map, out)
                self._scan(ctx, cls, method, stmt.orelse, held, aliases,
                           guard_map, out)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(ctx, cls, method, stmt.iter, held, aliases,
                                guard_map, out)
                self._scan(ctx, cls, method, stmt.body, held, aliases,
                           guard_map, out)
                self._scan(ctx, cls, method, stmt.orelse, held, aliases,
                           guard_map, out)
            elif isinstance(stmt, ast.Try):
                self._scan(ctx, cls, method, stmt.body, held, aliases,
                           guard_map, out)
                for handler in stmt.handlers:
                    self._scan(ctx, cls, method, handler.body, held, aliases,
                               guard_map, out)
                self._scan(ctx, cls, method, stmt.orelse, held, aliases,
                           guard_map, out)
                self._scan(ctx, cls, method, stmt.finalbody, held, aliases,
                           guard_map, out)
            else:
                self._scan_stmt(ctx, cls, method, stmt, held, aliases,
                                guard_map, out)

    def _scan_stmt(self, ctx: FileContext, cls: ast.ClassDef, method: ast.AST,
                   stmt: ast.stmt, held: Set[str], aliases: Dict[str, str],
                   guard_map: Dict[str, str], out: List[Finding]) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._check_store(ctx, cls, method, stmt, target, held,
                                  aliases, guard_map, out)
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                root = self._guarded_root(stmt.value, guard_map, aliases)
                if root:
                    aliases[stmt.targets[0].id] = root
                else:
                    aliases.pop(stmt.targets[0].id, None)
            self._scan_expr(ctx, cls, method, stmt.value, held, aliases,
                            guard_map, out)
        elif isinstance(stmt, ast.AnnAssign):
            self._check_store(ctx, cls, method, stmt, stmt.target, held,
                              aliases, guard_map, out)
            if stmt.value is not None:
                self._scan_expr(ctx, cls, method, stmt.value, held, aliases,
                                guard_map, out)
        elif isinstance(stmt, ast.AugAssign):
            self._check_store(ctx, cls, method, stmt, stmt.target, held,
                              aliases, guard_map, out)
            self._scan_expr(ctx, cls, method, stmt.value, held, aliases,
                            guard_map, out)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_store(ctx, cls, method, stmt, target, held,
                                  aliases, guard_map, out)
        else:
            self._scan_expr(ctx, cls, method, stmt, held, aliases,
                            guard_map, out)

    def _check_store(self, ctx: FileContext, cls: ast.ClassDef,
                     method: ast.AST, stmt: ast.stmt, target: ast.AST,
                     held: Set[str], aliases: Dict[str, str],
                     guard_map: Dict[str, str], out: List[Finding]) -> None:
        attr = self._guarded_root(target, guard_map, aliases)
        if attr is None:
            return
        self._report(ctx, cls, method, stmt, attr, guard_map[attr], held, out)

    def _scan_expr(self, ctx: FileContext, cls: ast.ClassDef, method: ast.AST,
                   expr: ast.AST, held: Set[str], aliases: Dict[str, str],
                   guard_map: Dict[str, str], out: List[Finding]) -> None:
        for node in _walk_skipping_lambdas(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._MUTATORS:
                attr = self._guarded_root(func.value, guard_map, aliases,
                                          allow_bare=True)
                if attr is not None:
                    self._report(ctx, cls, method, node, attr,
                                 guard_map[attr], held, out)

    def _report(self, ctx: FileContext, cls: ast.ClassDef, method: ast.AST,
                node: ast.AST, attr: str, lock: str, held: Set[str],
                out: List[Finding]) -> None:
        where = f"{cls.name}.{getattr(method, 'name', '<lambda>')}"
        if lock.startswith("external:"):
            out.append(self.finding(
                ctx, node,
                f"externally-serialised attribute 'self.{attr}' mutated in "
                f"{where} (guarded-by={lock})",
            ))
        elif lock not in held and f"{lock}:shared" in held:
            out.append(self.finding(
                ctx, node,
                f"guarded attribute 'self.{attr}' mutated holding only the "
                f"shared side of 'self.{lock}' in {where}",
            ))
        elif lock not in held:
            out.append(self.finding(
                ctx, node,
                f"guarded attribute 'self.{attr}' mutated outside "
                f"'with self.{lock}:' in {where}",
            ))


class SharedGeneratorRule(Rule):
    """R011: one RNG stream per worker, derived via ``spawn_rngs``."""

    code = "R011"
    name = "shared-rng"
    hint = (
        "derive per-worker streams with repro.utils.rng.spawn_rngs(rng, n) "
        "and index the pool inside each closure (rngs[w]); a Generator "
        "shared across threads/workers interleaves nondeterministically "
        "and can tear its internal state"
    )

    _SINGLE_FACTORIES = {"as_rng", "spawn_rng", "default_rng"}
    _PARENT_ATTRS = {"self._rng", "self.rng"}

    def check(self, ctx: FileContext) -> List[Finding]:
        if not _imports_any(ctx.tree, ("threading", "multiprocessing",
                                       "concurrent")):
            return []
        single, pools = self._rng_names(ctx.tree)
        findings: List[Finding] = []
        for closure in self._loop_closures(ctx.tree):
            self._check_closure(ctx, closure, single, pools, findings)
        return findings

    def _rng_names(self, tree: ast.Module) -> Tuple[Set[str], Set[str]]:
        single: Set[str] = set()
        pools: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1 or \
                    not isinstance(node.targets[0], ast.Name) or \
                    not isinstance(node.value, ast.Call):
                continue
            fn = dotted(node.value.func) or ""
            base = fn.split(".")[-1]
            target = node.targets[0].id
            if base == "spawn_rngs":
                pools.add(target)
                single.discard(target)
            elif base in self._SINGLE_FACTORIES:
                single.add(target)
                pools.discard(target)
        return single, pools

    @staticmethod
    def _loop_closures(tree: ast.Module) -> List[ast.AST]:
        closures: List[ast.AST] = []
        seen: Set[int] = set()
        for node in ast.walk(tree):
            bodies: List[List[ast.stmt]] = []
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                bodies.append(node.body)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for sub in ast.walk(node.elt):
                    if isinstance(sub, ast.Lambda) and id(sub) not in seen:
                        seen.add(id(sub))
                        closures.append(sub)
                continue
            else:
                continue
            for stmt in bodies[0]:
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Lambda,) + _FUNCTION_DEFS) and \
                            id(sub) not in seen:
                        seen.add(id(sub))
                        closures.append(sub)
        return closures

    def _check_closure(self, ctx: FileContext, closure: ast.AST,
                       single: Set[str], pools: Set[str],
                       out: List[Finding]) -> None:
        label = getattr(closure, "name", "<lambda>")
        bound = _bound_names(closure)
        body = closure.body if isinstance(closure.body, list) else [closure.body]
        reported: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load) and \
                        node.id in single and node.id not in bound and \
                        node.id not in reported:
                    reported.add(node.id)
                    out.append(self.finding(
                        ctx, node,
                        f"Generator '{node.id}' captured by per-worker "
                        f"closure '{label}' without going through "
                        f"spawn_rngs",
                    ))
                elif isinstance(node, ast.Attribute):
                    name = dotted(node) or ""
                    if name in self._PARENT_ATTRS and name not in reported:
                        reported.add(name)
                        out.append(self.finding(
                            ctx, node,
                            f"parent RNG '{name}' captured by per-worker "
                            f"closure '{label}' without going through "
                            f"spawn_rngs",
                        ))


class BlockingUnderLockRule(Rule):
    """R012: no blocking calls while a lock/condition is held."""

    code = "R012"
    name = "blocking-under-lock"
    hint = (
        "move the blocking call outside the critical section (or use the "
        "held condition's own wait(), which releases the lock while "
        "sleeping); blocking under a service lock stalls every thread "
        "contending for it"
    )

    _LOCKISH = re.compile(r"(lock|cond|mutex|sem)", re.IGNORECASE)
    _BLOCKING = {"time.sleep", "input", "os.system", "os.wait",
                 "select.select"}
    _PREFIXES = ("subprocess.", "socket.", "requests.", "urllib.")

    def check(self, ctx: FileContext) -> List[Finding]:
        sleep_aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        sleep_aliases.add(alias.asname or alias.name)
        findings: List[Finding] = []
        self._scan(ctx, ctx.tree.body, frozenset(), sleep_aliases, findings)
        return findings

    def _lock_names(self, items: List[ast.withitem]) -> Set[str]:
        names = set()
        for item in items:
            name, _ = _with_lock(item.context_expr)
            if name and self._LOCKISH.search(name.split(".")[-1]):
                names.add(name)
        return names

    def _scan(self, ctx: FileContext, stmts: List[ast.stmt],
              held: frozenset, sleep_aliases: Set[str],
              out: List[Finding]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if held:
                        self._check_calls(ctx, item.context_expr, held,
                                          sleep_aliases, out)
                self._scan(ctx, stmt.body, held | self._lock_names(stmt.items),
                           sleep_aliases, out)
            elif isinstance(stmt, _FUNCTION_DEFS + (ast.ClassDef,)):
                # A nested def/class body executes later, not under the
                # lexically-enclosing lock.
                self._scan(ctx, stmt.body, frozenset(), sleep_aliases, out)
            elif isinstance(stmt, (ast.If, ast.While)):
                if held:
                    self._check_calls(ctx, stmt.test, held, sleep_aliases, out)
                self._scan(ctx, stmt.body, held, sleep_aliases, out)
                self._scan(ctx, stmt.orelse, held, sleep_aliases, out)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if held:
                    self._check_calls(ctx, stmt.iter, held, sleep_aliases, out)
                self._scan(ctx, stmt.body, held, sleep_aliases, out)
                self._scan(ctx, stmt.orelse, held, sleep_aliases, out)
            elif isinstance(stmt, ast.Try):
                self._scan(ctx, stmt.body, held, sleep_aliases, out)
                for handler in stmt.handlers:
                    self._scan(ctx, handler.body, held, sleep_aliases, out)
                self._scan(ctx, stmt.orelse, held, sleep_aliases, out)
                self._scan(ctx, stmt.finalbody, held, sleep_aliases, out)
            elif held:
                self._check_calls(ctx, stmt, held, sleep_aliases, out)

    def _check_calls(self, ctx: FileContext, node: ast.AST, held: frozenset,
                     sleep_aliases: Set[str], out: List[Finding]) -> None:
        for sub in _walk_skipping_lambdas(node):
            if not isinstance(sub, ast.Call):
                continue
            label = self._blocking_label(sub, held, sleep_aliases)
            if label is not None:
                locks = ", ".join(sorted(held))
                out.append(self.finding(
                    ctx, sub,
                    f"blocking call '{label}' while holding {locks}",
                ))

    def _blocking_label(self, call: ast.Call, held: frozenset,
                        sleep_aliases: Set[str]) -> Optional[str]:
        fn = dotted(call.func) or ""
        if fn in self._BLOCKING or fn in sleep_aliases or fn == "open":
            return f"{fn}()"
        if any(fn.startswith(prefix) for prefix in self._PREFIXES):
            return f"{fn}()"
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        base = dotted(func.value)
        if func.attr in ("wait", "wait_for"):
            # cond.wait() releases the lock it waits on: legal on a lock
            # that is itself held, blocking on anything else.
            if base in held:
                return None
            return f"{base or '<expr>'}.{func.attr}()"
        if func.attr == "join":
            if base and base.startswith("os.path"):
                return None
            if isinstance(func.value, ast.Constant) and \
                    isinstance(func.value.value, str):
                return None
            if len(call.args) == 0 and not call.keywords:
                return f"{base or '<expr>'}.join()"
            if len(call.args) == 1 and not call.keywords and \
                    isinstance(call.args[0], ast.Constant) and \
                    isinstance(call.args[0].value, (int, float)):
                return f"{base or '<expr>'}.join(timeout)"
            return None
        if func.attr == "result" and not call.args and not call.keywords:
            return f"{base or '<expr>'}.result()"
        return None


CONCURRENCY_RULES = (
    GuardedAttributeRule,
    SharedGeneratorRule,
    BlockingUnderLockRule,
)
