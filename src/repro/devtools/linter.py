"""VEND-specific static analysis — the ``repro lint`` pass.

Generic linters cannot see VEND's invariants: the one-sided soundness
contract (``F(f(u), f(v)) = 1`` only for true NEpairs) survives only if
every solution ships a complete interface, every mutation drops the
cached batch snapshot, and the uint32 lane model of ``repro.simd`` is
never silently promoted to int64/float64.  This module is an AST pass
that enforces exactly those repo-specific hazards:

==== =====================  =====================================================
ID   name                   what it catches
==== =====================  =====================================================
R001 dtype-safety           untyped ``np.array``/``np.asarray`` and int64/uint32
                            arithmetic mixing in ``core/``, ``simd/``, ``storage/``
                            hot paths (implicit upcasts break the 32-bit lanes)
R002 solution-completeness  a ``@register_solution`` class missing the scalar
                            NDF, ``build``, ``memory_bytes``, the batch path, or
                            a maintenance declaration (hooks or an explicit
                            ``supports_maintenance`` attribute)
R003 cache-invalidation     a mutating method (``build``/``insert_*``/
                            ``delete_*``/``unrecord_*``/``reencode``) on a VEND
                            solution that never calls
                            ``self._invalidate_batch()`` — stale snapshots make
                            ``is_nonedge_batch`` unsound after maintenance.
                            Passing the touched vertices (which marks just
                            their snapshot rows for refill) counts
R004 seeded-randomness      unseeded ``np.random.*`` / ``random.*`` usage, which
                            breaks benchmark and fault-injection reproducibility
R005 unsafe-exception       bare ``except:``, swallowed ``CorruptRecordError``,
                            and ``except Exception: pass``
R006 counter-registry       direct mutation of a stats-holder field
                            (``self.stats.x += 1``) outside ``repro.obs``;
                            counters must go through the registry views
                            (``self.stats.inc("x")``) so exports and scoped
                            attribution stay correct
==== =====================  =====================================================

Intentional violations are waived inline with a pragma on the flagged
line (the statement's *first* line for multi-line statements)::

    blob = np.asarray(raw)  # lint: disable=R001 (dtype decided by caller)

The parenthesized reason is required by the parser: a pragma without
one is itself flagged as ``R000-style``, and that finding cannot be
waived.

A second, opt-in ruleset (R007–R012, the concurrency contracts: lock
ordering, guarded state, raw acquires, mmap-view lifetimes, identity
tokens, blocking under locks) is implemented in
:mod:`repro.devtools.concurrency` and enabled with
``lint_paths(..., concurrency=True)`` / ``repro lint --concurrency``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Finding", "Linter", "lint_paths", "RULES", "CONCURRENCY_RULES"]

RULES = {
    "R001": "dtype-safety",
    "R002": "solution-completeness",
    "R003": "cache-invalidation",
    "R004": "seeded-randomness",
    "R005": "unsafe-exception",
    "R006": "counter-registry",
}

#: Opt-in concurrency-contract ruleset, implemented in
#: :mod:`repro.devtools.concurrency` (imported lazily to keep the
#: classic pass dependency-free).
CONCURRENCY_RULES = {
    "R007": "lock-order",
    "R008": "guarded-state",
    "R009": "raw-acquire",
    "R010": "mmap-lifetime",
    "R011": "identity-token",
    "R012": "blocking-under-lock",
}

#: Path components whose files count as dtype-sensitive hot paths (R001).
HOT_PARTS = ("core", "simd", "storage")

#: Methods that mutate codes/adjacency and must invalidate the snapshot.
MUTATORS = frozenset(
    {"build", "insert_edge", "delete_edge", "insert_vertex", "delete_vertex",
     "unrecord_edge", "unrecord_vertex", "reencode"}
)

#: The interface every registered solution must expose (R002).
REQUIRED_METHODS = ("build", "is_nonedge", "memory_bytes", "is_nonedge_batch")

#: ``self.<holder>.<field>`` attribute names treated as registry-backed
#: counter holders (R006).  Local result records (``stats.x = ...`` on a
#: plain variable) are deliberately not flagged.
STATS_HOLDERS = frozenset({
    "stats", "fault_stats", "query_stats", "storage_stats", "db_stats",
    "_stats",
})

_PRAGMA = re.compile(r"#\s*lint:\s*disable=([A-Z0-9,\s]+?)(?:\s*\(|$)")

#: A pragma counts as *reasoned* only with a non-empty parenthesized
#: explanation after the rule list (``# lint: disable=R001 (why)``).
_PRAGMA_REASON = re.compile(
    r"#\s*lint:\s*disable=[A-Z0-9,\s]+?\s*\(\s*[^)\s][^)]*\)"
)

#: Module-level ``random`` functions that mutate the unseeded global RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "sample", "shuffle", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "seed",
})

#: Legacy ``numpy.random`` module-level functions (global RandomState).
_LEGACY_NP_RANDOM_FNS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "binomial", "poisson", "exponential", "bytes",
    "beta", "gamma", "geometric", "zipf",
})

#: dtype groups for the R001 mixing check.
_SIGNED = frozenset({"int8", "int16", "int32", "int64", "intp", "int_"})
_UNSIGNED = frozenset({"uint8", "uint16", "uint32", "uint64", "uintp"})

_ARRAY_CTORS = frozenset({"array", "asarray"})
_DTYPED_CTORS = _ARRAY_CTORS | {
    "zeros", "ones", "full", "empty", "arange", "fromiter", "frombuffer",
    "zeros_like", "full_like", "empty_like",
}

_MIXING_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
               ast.LShift, ast.RShift, ast.BitOr, ast.BitAnd, ast.BitXor)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class _ClassInfo:
    """AST-level summary of one class definition (cross-file index entry)."""

    name: str
    path: str
    line: int
    col: int
    bases: tuple[str, ...]
    methods: frozenset[str]
    attrs: frozenset[str]
    registered: bool
    node: ast.ClassDef


@dataclass
class _FileContext:
    path: str
    tree: ast.Module
    pragmas: dict[int, set[str]]
    #: Lines (1-based numbers) carrying a pragma with no written reason.
    bare_pragmas: list[int] = field(default_factory=list)
    #: Raw source lines; the concurrency pass reads ``# guarded-by:``
    #: annotations straight from them.
    lines: list[str] = field(default_factory=list)
    module_aliases: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, str] = field(default_factory=dict)
    hot: bool = False


def _last_name(node: ast.expr) -> str | None:
    """Trailing identifier of a Name/Attribute expression, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _parse_pragmas(source: str) -> tuple[dict[int, set[str]], list[int]]:
    """Pragma map plus the lines whose pragma lacks a written reason."""
    pragmas: dict[int, set[str]] = {}
    bare: list[int] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match:
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            pragmas[lineno] = rules
            if not _PRAGMA_REASON.search(line):
                bare.append(lineno)
    return pragmas, bare


class Linter:
    """Two-pass AST analyzer for the VEND rule catalog.

    Pass 1 indexes every class definition across the analyzed files so
    inheritance-aware rules (R002/R003) see methods provided by
    intermediate bases like ``_ModHashVend``.  Pass 2 runs the per-file
    rules.  The abstract ``VendSolution`` root is never charged with
    providing an implementation: each registered solution must earn its
    interface within its own (analyzed) class chain.
    """

    def __init__(self, rules: set[str] | None = None,
                 hot_parts: tuple[str, ...] = HOT_PARTS,
                 concurrency: bool = False):
        if rules is not None:
            self.rules = set(rules)
        else:
            self.rules = set(RULES)
            if concurrency:
                self.rules |= set(CONCURRENCY_RULES)
        self.hot_parts = hot_parts
        self._classes: dict[str, _ClassInfo] = {}

    # ------------------------------------------------------------ entry points

    def lint_paths(self, paths) -> list[Finding]:
        files = sorted(self._collect(paths))
        contexts: list[_FileContext] = []
        findings: list[Finding] = []
        self._classes = {}
        for path in files:
            source = Path(path).read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                findings.append(Finding(str(path), exc.lineno or 1, 0, "R000",
                                        f"syntax error: {exc.msg}"))
                continue
            pragmas, bare = _parse_pragmas(source)
            ctx = _FileContext(str(path), tree, pragmas, bare,
                               source.splitlines())
            ctx.hot = any(part in Path(path).parts for part in self.hot_parts)
            self._scan_imports(ctx)
            self._index_classes(ctx)
            contexts.append(ctx)
            for lineno in bare:
                findings.append(Finding(
                    str(path), lineno, 0, "R000-style",
                    "pragma without a reason; write "
                    "`# lint: disable=R0xx (why this is safe)`",
                ))
        for ctx in contexts:
            findings.extend(self._lint_file(ctx))
        conc_rules = self.rules & set(CONCURRENCY_RULES)
        if conc_rules:
            from .concurrency import ConcurrencyAnalyzer
            raw = ConcurrencyAnalyzer(contexts, rules=conc_rules).run()
            by_path = {ctx.path: ctx for ctx in contexts}
            findings.extend(
                f for f in raw
                if f.rule not in by_path[f.path].pragmas.get(f.line, ())
            )
        return sorted(findings)

    @staticmethod
    def _collect(paths) -> list[str]:
        files: list[str] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(
                    str(p) for p in path.rglob("*.py")
                    if "__pycache__" not in p.parts
                )
            else:
                files.append(str(path))
        return files

    # ------------------------------------------------------------------ pass 1

    def _scan_imports(self, ctx: _FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    ctx.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    ctx.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def _index_classes(self, ctx: _FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = set()
            attrs = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            attrs.add(target.id)
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name):
                        attrs.add(stmt.target.id)
            bases = tuple(
                name for name in (_last_name(b) for b in node.bases) if name
            )
            registered = any(
                _last_name(d) == "register_solution" for d in node.decorator_list
            )
            info = _ClassInfo(node.name, ctx.path, node.lineno, node.col_offset,
                              bases, frozenset(methods), frozenset(attrs),
                              registered, node)
            # Last definition wins; class names are unique in this repo.
            self._classes[node.name] = info

    def _chain(self, name: str) -> list[_ClassInfo]:
        """``name`` plus analyzed ancestors, stopping at ``VendSolution``."""
        chain: list[_ClassInfo] = []
        queue = [name]
        seen: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen or current == "VendSolution":
                continue
            seen.add(current)
            info = self._classes.get(current)
            if info is None:
                continue
            chain.append(info)
            queue.extend(info.bases)
        return chain

    def _descends_from_vend_solution(self, info: _ClassInfo) -> bool:
        queue = list(info.bases)
        seen: set[str] = set()
        while queue:
            base = queue.pop(0)
            if base == "VendSolution":
                return True
            if base in seen:
                continue
            seen.add(base)
            parent = self._classes.get(base)
            if parent is not None:
                queue.extend(parent.bases)
        return False

    # ------------------------------------------------------------------ pass 2

    def _lint_file(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        if "R001" in self.rules and ctx.hot:
            findings.extend(self._rule_dtype_safety(ctx))
        if "R002" in self.rules or "R003" in self.rules:
            findings.extend(self._rule_solutions(ctx))
        if "R004" in self.rules:
            findings.extend(self._rule_seeded_randomness(ctx))
        if "R005" in self.rules:
            findings.extend(self._rule_exceptions(ctx))
        if "R006" in self.rules and "obs" not in Path(ctx.path).parts:
            findings.extend(self._rule_counter_mutation(ctx))
        return [
            f for f in findings
            if f.rule not in ctx.pragmas.get(f.line, ())
        ]

    # -- R001 ------------------------------------------------------------------

    def _numpy_names(self, ctx: _FileContext) -> set[str]:
        return {alias for alias, module in ctx.module_aliases.items()
                if module == "numpy"}

    def _dtype_group(self, node: ast.expr | None) -> str | None:
        """Classify a ``dtype=`` argument expression: signed/unsigned/other."""
        name = None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = _last_name(node) if node is not None else None
        if name in _SIGNED or name == "int":
            return "signed"
        if name in _UNSIGNED:
            return "unsigned"
        return "other" if name else None

    def _rule_dtype_safety(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        numpy_names = self._numpy_names(ctx)

        def ctor_name(call: ast.Call) -> str | None:
            func = call.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in numpy_names):
                return func.attr
            return None

        # (a) untyped array constructors.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            ctor = ctor_name(node)
            if ctor in _ARRAY_CTORS:
                has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
                has_positional_dtype = len(node.args) >= 2
                if not has_dtype and not has_positional_dtype:
                    findings.append(Finding(
                        ctx.path, node.lineno, node.col_offset, "R001",
                        f"np.{ctor}(...) without an explicit dtype in a hot "
                        "path; implicit promotion breaks the uint32 lane model",
                    ))

        # (b) flow-insensitive int64/uint32 mixing inside each function.
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            env: dict[str, str] = {}
            conflicted: set[str] = set()
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                group = self._infer_group(node.value, ctor_name, numpy_names)
                if group is None:
                    conflicted.add(target.id)
                    env.pop(target.id, None)
                elif target.id in env and env[target.id] != group:
                    conflicted.add(target.id)
                    env.pop(target.id, None)
                elif target.id not in conflicted:
                    env[target.id] = group
            for node in ast.walk(func):
                if (isinstance(node, ast.BinOp)
                        and isinstance(node.op, _MIXING_OPS)):
                    lhs = env.get(node.left.id) if isinstance(node.left, ast.Name) else None
                    rhs = env.get(node.right.id) if isinstance(node.right, ast.Name) else None
                    if {lhs, rhs} == {"signed", "unsigned"}:
                        findings.append(Finding(
                            ctx.path, node.lineno, node.col_offset, "R001",
                            "arithmetic mixes signed and unsigned integer "
                            "arrays; NumPy promotes out of the 32-bit lane "
                            "model (cast one side explicitly)",
                        ))
        return findings

    def _infer_group(self, value: ast.expr, ctor_name, numpy_names) -> str | None:
        """Signed/unsigned classification of an assigned expression."""
        if isinstance(value, ast.Call):
            ctor = ctor_name(value)
            if ctor in _DTYPED_CTORS:
                for kw in value.keywords:
                    if kw.arg == "dtype":
                        return self._dtype_group(kw.value)
                if len(value.args) >= 2:
                    return self._dtype_group(value.args[1])
                return None
            # x = arr.astype(np.uint32)
            if (isinstance(value.func, ast.Attribute)
                    and value.func.attr == "astype" and value.args):
                return self._dtype_group(value.args[0])
            # x = np.uint32(...)
            if (isinstance(value.func, ast.Attribute)
                    and isinstance(value.func.value, ast.Name)
                    and value.func.value.id in numpy_names):
                return self._dtype_group(value.func)
        return None

    # -- R002 / R003 -----------------------------------------------------------

    def _rule_solutions(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = self._classes.get(node.name)
            if info is None or info.path != ctx.path:
                continue
            is_solution = self._descends_from_vend_solution(info)
            if "R002" in self.rules and info.registered:
                findings.extend(self._check_completeness(ctx, info))
            if "R003" in self.rules and (is_solution or info.registered):
                findings.extend(self._check_invalidation(ctx, info))
        return findings

    def _check_completeness(self, ctx: _FileContext,
                            info: _ClassInfo) -> list[Finding]:
        chain = self._chain(info.name)
        methods: set[str] = set()
        attrs: set[str] = set()
        for entry in chain:
            methods |= entry.methods
            attrs |= entry.attrs
        findings = []
        labels = {
            "build": "a build() encoder",
            "is_nonedge": "the scalar NDF is_nonedge()",
            "memory_bytes": "memory_bytes()",
            "is_nonedge_batch": "a batch snapshot path (is_nonedge_batch())",
        }
        for method in REQUIRED_METHODS:
            if method not in methods:
                findings.append(Finding(
                    ctx.path, info.line, info.col, "R002",
                    f"registered solution {info.name!r} never defines "
                    f"{labels[method]} in its class chain",
                ))
        has_hooks = {"insert_edge", "delete_edge"} <= methods
        declares = "supports_maintenance" in attrs
        if not has_hooks and not declares:
            findings.append(Finding(
                ctx.path, info.line, info.col, "R002",
                f"registered solution {info.name!r} neither implements the "
                "insert_edge/delete_edge maintenance hooks nor declares "
                "`supports_maintenance` explicitly",
            ))
        return findings

    def _check_invalidation(self, ctx: _FileContext,
                            info: _ClassInfo) -> list[Finding]:
        findings = []
        for stmt in info.node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name not in MUTATORS:
                continue
            if any(_last_name(d) == "abstractmethod"
                   for d in stmt.decorator_list):
                continue
            if not self._invalidates(stmt):
                findings.append(Finding(
                    ctx.path, stmt.lineno, stmt.col_offset, "R003",
                    f"mutating method {stmt.name!r} never calls "
                    "self._invalidate_batch(); a stale batch snapshot makes "
                    "is_nonedge_batch() unsound after this mutation",
                ))
        return findings

    @staticmethod
    def _invalidates(func: ast.AST) -> bool:
        """True if the body invalidates directly or defers to code that does
        (``super().anything(...)`` or another mutating ``self`` method)."""
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not isinstance(callee, ast.Attribute):
                continue
            if (isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                    and callee.attr in MUTATORS | {"_invalidate_batch"}):
                return True
            if (isinstance(callee.value, ast.Call)
                    and isinstance(callee.value.func, ast.Name)
                    and callee.value.func.id == "super"):
                return True
        return False

    # -- R004 ------------------------------------------------------------------

    def _rule_seeded_randomness(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = self._resolve_call(ctx, node)
            if full is None:
                continue
            message = None
            if full == "numpy.random.default_rng" and not node.args \
                    and not node.keywords:
                message = ("np.random.default_rng() without a seed; pass an "
                           "explicit seed for reproducible runs")
            elif (full.startswith("numpy.random.")
                    and full.rsplit(".", 1)[1] in _LEGACY_NP_RANDOM_FNS):
                message = (f"{full}() uses the unseeded legacy global "
                           "RandomState; use np.random.default_rng(seed)")
            elif full == "random.Random" and not node.args and not node.keywords:
                message = ("random.Random() without a seed; pass an explicit "
                           "seed for reproducible runs")
            elif full == "random.SystemRandom":
                message = ("random.SystemRandom is unseedable and breaks "
                           "reproducibility")
            elif (full.startswith("random.")
                    and full.rsplit(".", 1)[1] in _GLOBAL_RANDOM_FNS):
                message = (f"{full}() uses the unseeded global RNG; construct "
                           "random.Random(seed) instead")
            if message:
                findings.append(Finding(ctx.path, node.lineno,
                                        node.col_offset, "R004", message))
        return findings

    def _resolve_call(self, ctx: _FileContext, node: ast.Call) -> str | None:
        """Canonical dotted target of a call, resolved through imports."""
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in ctx.module_aliases:
            module = ctx.module_aliases[head]
            return f"{module}.{rest}" if rest else module
        if not rest and head in ctx.from_imports:
            return ctx.from_imports[head]
        return None

    # -- R005 ------------------------------------------------------------------

    def _rule_exceptions(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._caught_names(node.type)
            if node.type is None:
                findings.append(Finding(
                    ctx.path, node.lineno, node.col_offset, "R005",
                    "bare `except:` catches SystemExit/KeyboardInterrupt and "
                    "hides corruption; catch a concrete exception",
                ))
                continue
            body_raises = any(isinstance(n, ast.Raise) for n in ast.walk(node))
            if "CorruptRecordError" in caught and not body_raises:
                findings.append(Finding(
                    ctx.path, node.lineno, node.col_offset, "R005",
                    "handler swallows CorruptRecordError; checksum failures "
                    "must propagate (or be re-raised after cleanup)",
                ))
            elif caught & {"Exception", "BaseException"} \
                    and self._is_silent(node):
                findings.append(Finding(
                    ctx.path, node.lineno, node.col_offset, "R005",
                    f"`except {'/'.join(sorted(caught))}` with a pass-only "
                    "body silently swallows every error (including "
                    "CorruptRecordError)",
                ))
        return findings

    @staticmethod
    def _caught_names(type_node: ast.expr | None) -> set[str]:
        if type_node is None:
            return set()
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        names = set()
        for entry in nodes:
            name = _last_name(entry)
            if name:
                names.add(name)
        return names

    # -- R006 ------------------------------------------------------------------

    def _rule_counter_mutation(self, ctx: _FileContext) -> list[Finding]:
        """Counters must be mutated through the obs registry views.

        Flags ``self.<holder>.<field> += ...`` and direct assignment to
        the same shape, where ``<holder>`` is a known stats attribute.
        The registry views themselves (``repro/obs/``) are the one
        place allowed to touch series storage.
        """
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Attribute)
                        and isinstance(target.value.value, ast.Name)
                        and target.value.value.id == "self"
                        and target.value.attr in STATS_HOLDERS):
                    continue
                holder, fld = target.value.attr, target.attr
                findings.append(Finding(
                    ctx.path, node.lineno, node.col_offset, "R006",
                    f"counter `self.{holder}.{fld}` mutated directly; go "
                    f'through the registry view (`self.{holder}.inc('
                    f'"{fld}")`) so exports and per-scope attribution stay '
                    "correct",
                ))
        return findings

    @staticmethod
    def _is_silent(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue  # docstring / ellipsis
            if isinstance(stmt, ast.Continue):
                continue
            return False
        return True


def lint_paths(paths, rules: set[str] | None = None,
               hot_parts: tuple[str, ...] = HOT_PARTS,
               concurrency: bool = False) -> list[Finding]:
    """Lint files/directories and return sorted findings.

    ``concurrency=True`` adds the R007–R012 concurrency-contract pass
    on top of the classic ruleset (ignored when ``rules`` is given
    explicitly — name the concurrency rules there instead).
    """
    return Linter(rules=rules, hot_parts=hot_parts,
                  concurrency=concurrency).lint_paths(paths)
