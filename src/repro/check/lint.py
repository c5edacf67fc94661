"""AST lint rules pinning the repo's own invariants (``repro lint``).

The static verifier proves properties of *schedules*; this module proves
properties of the *codebase* the same way -- by analysis, not convention.
Each rule guards an invariant some subsystem silently depends on:

``determinism-imports``
    The engine cache keys every result by content (loop + machine +
    source fingerprint), so the computation layers (``ir``, ``sched``,
    ``regalloc``, ``core``, ``spill``, ``kernel``, ``machine``,
    ``pipeline``) must be bit-deterministic: importing ``time``,
    ``random``, ``uuid``, ``secrets``, or ``datetime`` there makes a
    cached result depend on when/where it ran.

``set-iteration``
    Same scope: iterating a set (or ``vars()``/``globals()``) has a
    PYTHONHASHSEED-dependent order, which breaks cross-process result
    identity the moment order leaks into output.  Iterate sorted
    collections or dicts (insertion-ordered) instead.

``frozen-wire-types``
    Every dataclass in ``api/types.py`` is a wire message shared across
    threads and serialized by content; all must be ``frozen=True``.

``experiment-keywords``
    Registry entries drive CLI flags, serve discovery, and the report;
    every ``Experiment(...)`` must be constructed with keyword arguments
    and carry name/kind/title/runner so no surface gets a half-described
    entry.

``typing-completeness``
    Every function in ``src/repro`` is fully annotated (parameters and
    return) -- the locally enforceable core of ``mypy --strict``, which
    CI runs in full.

Pure stdlib ``ast``; no third-party linter is available in the image.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: Package-relative path prefixes whose results are content-cached and
#: must therefore be bit-deterministic across processes and runs.
DETERMINISTIC_PATHS: tuple[str, ...] = (
    "ir/",
    "sched/",
    "regalloc/",
    "core/",
    "spill/",
    "kernel/",
    "machine/",
    "pipeline/",
)

#: Modules whose import makes output time- or host-dependent.
NONDETERMINISTIC_MODULES: frozenset[str] = frozenset(
    {"time", "random", "uuid", "secrets", "datetime"}
)

#: Keywords every Experiment(...) construction must pass.
EXPERIMENT_REQUIRED_KEYWORDS: tuple[str, ...] = (
    "name",
    "kind",
    "title",
    "runner",
)


@dataclass(frozen=True)
class LintViolation:
    """One disproved codebase invariant, with file/line coordinates."""

    rule: str
    path: str
    line: int
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    root: str
    files_checked: int
    rules: tuple[str, ...]
    violations: tuple[LintViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


RuleFn = Callable[[str, ast.Module], "list[LintViolation]"]

#: name -> (one-line doc, rule function); populated by @_rule below.
RULES: dict[str, tuple[str, RuleFn]] = {}


def _rule(name: str, doc: str) -> Callable[[RuleFn], RuleFn]:
    def register(fn: RuleFn) -> RuleFn:
        RULES[name] = (doc, fn)
        return fn

    return register


def _in_deterministic_scope(path: str) -> bool:
    return path.startswith(DETERMINISTIC_PATHS)


def _walk_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@_rule(
    "determinism-imports",
    "no time/random/uuid/secrets/datetime imports in content-cached code",
)
def _check_determinism_imports(
    path: str, tree: ast.Module
) -> list[LintViolation]:
    if not _in_deterministic_scope(path):
        return []
    out: list[LintViolation] = []
    for node in ast.walk(tree):
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module.split(".")[0]]
        for name in names:
            if name in NONDETERMINISTIC_MODULES:
                out.append(
                    LintViolation(
                        rule="determinism-imports",
                        path=path,
                        line=node.lineno,
                        message=(
                            f"import of {name!r} in a content-cached "
                            "path; results keyed by content must not "
                            "depend on time, host, or RNG state"
                        ),
                    )
                )
    return out


def _is_unordered_iterable(node: ast.expr) -> str | None:
    """Name the hash-order-dependent iterable, or None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if node.func.id in ("vars", "globals", "locals"):
            return f"{node.func.id}()"
    return None


@_rule(
    "set-iteration",
    "no iteration over sets/vars()/globals() in content-cached code",
)
def _check_set_iteration(path: str, tree: ast.Module) -> list[LintViolation]:
    if not _in_deterministic_scope(path):
        return []
    out: list[LintViolation] = []
    iterables: list[tuple[int, ast.expr]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append((node.lineno, node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                iterables.append((node.lineno, gen.iter))
        elif isinstance(node, ast.DictComp):
            for gen in node.generators:
                iterables.append((node.lineno, gen.iter))
    for line, iterable in iterables:
        what = _is_unordered_iterable(iterable)
        if what is not None:
            out.append(
                LintViolation(
                    rule="set-iteration",
                    path=path,
                    line=line,
                    message=(
                        f"iteration over {what} has hash-seed-dependent "
                        "order; sort it (or iterate a dict) so "
                        "content-cached results replay identically"
                    ),
                )
            )
    return out


@_rule("frozen-wire-types", "every dataclass in api/types.py is frozen")
def _check_frozen_wire_types(
    path: str, tree: ast.Module
) -> list[LintViolation]:
    if path != "api/types.py":
        return []
    out: list[LintViolation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            is_dataclass = (
                isinstance(decorator, ast.Name)
                and decorator.id == "dataclass"
            ) or (
                isinstance(decorator, ast.Call)
                and isinstance(decorator.func, ast.Name)
                and decorator.func.id == "dataclass"
            )
            if not is_dataclass:
                continue
            frozen = isinstance(decorator, ast.Call) and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in decorator.keywords
            )
            if not frozen:
                out.append(
                    LintViolation(
                        rule="frozen-wire-types",
                        path=path,
                        line=node.lineno,
                        message=(
                            f"wire dataclass {node.name} must be "
                            "@dataclass(frozen=True): messages are "
                            "shared across threads and hashed by content"
                        ),
                    )
                )
    return out


@_rule(
    "experiment-keywords",
    "Experiment(...) uses keywords and carries name/kind/title/runner",
)
def _check_experiment_keywords(
    path: str, tree: ast.Module
) -> list[LintViolation]:
    out: list[LintViolation] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Experiment"
        ):
            continue
        if node.args:
            out.append(
                LintViolation(
                    rule="experiment-keywords",
                    path=path,
                    line=node.lineno,
                    message=(
                        "Experiment(...) must be constructed with "
                        "keyword arguments only"
                    ),
                )
            )
            continue
        passed = {kw.arg for kw in node.keywords if kw.arg}
        has_splat = any(kw.arg is None for kw in node.keywords)
        missing = [
            key
            for key in EXPERIMENT_REQUIRED_KEYWORDS
            if key not in passed
        ]
        if missing and not has_splat:
            out.append(
                LintViolation(
                    rule="experiment-keywords",
                    path=path,
                    line=node.lineno,
                    message=(
                        "Experiment(...) missing required keyword(s) "
                        f"{missing}; registry entries drive CLI, serve "
                        "discovery, and the report"
                    ),
                )
            )
    return out


def _unannotated_args(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    missing = [
        arg.arg
        for arg in named
        if arg.annotation is None and arg.arg not in ("self", "cls")
    ]
    for star in (args.vararg, args.kwarg):
        if star is not None and star.annotation is None:
            missing.append(star.arg)
    return missing


@_rule(
    "typing-completeness",
    "every function is fully annotated (params and return)",
)
def _check_typing_completeness(
    path: str, tree: ast.Module
) -> list[LintViolation]:
    out: list[LintViolation] = []
    for fn in _walk_functions(tree):
        missing = _unannotated_args(fn)
        needs_return = fn.returns is None and fn.name != "__init_subclass__"
        if not missing and not needs_return:
            continue
        parts = []
        if missing:
            parts.append(f"parameter(s) {missing}")
        if needs_return:
            parts.append("the return type")
        out.append(
            LintViolation(
                rule="typing-completeness",
                path=path,
                line=fn.lineno,
                message=(
                    f"{fn.name}() is missing annotations for "
                    + " and ".join(parts)
                ),
            )
        )
    return out


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def _python_files(root: Path) -> list[Path]:
    return sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )


def run_lint(
    root: str | Path | None = None,
    rules: Sequence[str] | None = None,
) -> LintReport:
    """Parse every source file under ``root`` and apply the rule set."""
    base = Path(root) if root is not None else default_root()
    if rules is None:
        selected = list(RULES)
    else:
        unknown = [name for name in rules if name not in RULES]
        if unknown:
            raise ValueError(
                f"unknown lint rule(s) {unknown}; "
                f"available: {sorted(RULES)}"
            )
        selected = list(rules)
    violations: list[LintViolation] = []
    files = _python_files(base)
    for file_path in files:
        relative = file_path.relative_to(base).as_posix()
        try:
            tree = ast.parse(
                file_path.read_text(encoding="utf-8"), filename=relative
            )
        except SyntaxError as exc:
            violations.append(
                LintViolation(
                    rule="parse",
                    path=relative,
                    line=exc.lineno or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        for name in selected:
            _doc, fn = RULES[name]
            violations.extend(fn(relative, tree))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return LintReport(
        root=str(base),
        files_checked=len(files),
        rules=tuple(selected),
        violations=tuple(violations),
    )


def list_rules() -> list[tuple[str, str]]:
    """(name, one-line doc) pairs of the rule catalog."""
    return [(name, doc) for name, (doc, _fn) in sorted(RULES.items())]


def format_report(report: LintReport) -> str:
    lines = [violation.describe() for violation in report.violations]
    verdict = (
        "clean" if report.ok else f"{len(report.violations)} violation(s)"
    )
    lines.append(
        f"repro lint: {report.files_checked} files, "
        f"{len(report.rules)} rules, {verdict}"
    )
    return "\n".join(lines)


__all__ = [
    "DETERMINISTIC_PATHS",
    "EXPERIMENT_REQUIRED_KEYWORDS",
    "LintReport",
    "LintViolation",
    "NONDETERMINISTIC_MODULES",
    "RULES",
    "UNLOCKED_UNLINK_FUNCTIONS",
    "default_root",
    "format_report",
    "list_rules",
    "run_lint",
]
