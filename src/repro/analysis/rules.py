"""AST rule families RL1/RL3/RL4/RL6/RL7/RL8/RL9 — the repo-specific invariants.

Each rule encodes a contract the fast paths of PRs 2–6 are sold on but the
interpreter cannot enforce:

* **RL1 determinism** — seeded searches are bit-identical across executors
  only because no code path consults hidden global or wall-clock entropy.
* **RL3 executor safety** — the distributed executor resolves task
  functions by ``module:qualname`` and pickles their payloads, so a lambda
  or closure handed to ``.map``/``.submit`` works under the serial executor
  and explodes the moment someone flips ``--executor distributed``.
* **RL4 atomic persistence** — the crash-safety story (torn-tail-tolerant
  journals, resume-from-cache, artifact serving) assumes every durable JSON
  document is written atomically; one bare ``open(path, "w")`` silently
  reintroduces truncated-file corruption.
* **RL6 lock hygiene** — the serve/master threads may never block on I/O
  while holding a ``threading.Lock``: a slow socket under a hot lock turns
  into a convoy, and in the worst case a deadlock.  Locks whose *name*
  declares them I/O-serialisation guards (``send_lock``, ``io_lock``,
  ``write_lock``) are exempt — serialising writes on one socket is exactly
  what such a lock is for.
* **RL7 dtype discipline** — the precision-critical hot modules (the fused
  kernels, the metrics engine, the backend layer itself) promise their
  results per array backend: float64 bit-identity or the float32 tolerance
  contract.  ``np.asarray``/``np.zeros``/``np.empty`` without an explicit
  ``dtype`` inherits whatever dtype the caller happened to pass and
  silently drifts a hot path out of its contract.
* **RL8 telemetry discipline** — every duration in the tree comes off the
  monotonic clock (``time.perf_counter``); ``time.time()`` is wall-clock,
  steps under NTP, and is reserved for row *timestamps*.  And the
  performance-critical hot modules may not ``print`` or use stdlib
  ``logging`` directly — operational output routes through ``RunLogger``
  rows and the :mod:`repro.obs` metrics/span layer, which are structured,
  off-by-default-cheap and TSAN-audited.
* **RL9 failure discipline** — the fault-tolerant serve/master tiers are
  only as good as their failure handling: a broad ``except`` that swallows
  without logging or re-raising turns a crash the supervisor would recover
  from into silent corruption, and an *unbounded* ``queue.Queue()`` turns
  overload into unbounded latency instead of fast, typed rejection.

All rules are purely syntactic (no imports of the checked code), so they
run on broken trees, fixtures and work-in-progress branches alike.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import LINT_RULES, FileRule, Finding, Project, SourceFile

__all__ = [
    "DeterminismRule",
    "ExecutorSafetyRule",
    "AtomicPersistenceRule",
    "LockHygieneRule",
    "DtypeDisciplineRule",
    "TelemetryDisciplineRule",
    "FailureDisciplineRule",
]


# ----------------------------------------------------------------------
# Import-alias resolution shared by the AST rules
# ----------------------------------------------------------------------
def collect_import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted module/attribute path they refer to.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy import random as npr`` → ``{"npr": "numpy.random"}``;
    ``from numpy.random import default_rng`` →
    ``{"default_rng": "numpy.random.default_rng"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
                if name.asname is None and "." in name.name:
                    # ``import numpy.random`` binds ``numpy``; the dotted
                    # access resolves through the attribute chain anyway.
                    aliases[name.name.split(".")[0]] = name.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The canonical dotted path of a Name/Attribute chain, if resolvable."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))


def _finding(
    source: SourceFile, node: ast.AST, code: str, message: str, hint: str
) -> Finding:
    return Finding(
        path=source.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
        hint=hint,
    )


# ----------------------------------------------------------------------
# RL1 — determinism
# ----------------------------------------------------------------------
#: numpy.random module-level functions that mutate/consult the hidden
#: global RandomState (the bug class PR 5 eradicated from the modules)
_NUMPY_GLOBAL_FNS = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "standard_normal", "binomial", "beta", "gamma", "poisson", "exponential",
    "get_state", "set_state",
}

#: numpy.random constructors that are fine *when seeded*
_NUMPY_SEEDED_CTORS = {"default_rng", "SeedSequence", "Generator", "PCG64", "RandomState"}

#: call targets whose appearance inside a seed expression means the seed is
#: wall-clock / entropy derived and the run is unreproducible
_WALLCLOCK_SOURCES = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.now",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
}


@LINT_RULES.register("RL1")
class DeterminismRule(FileRule):
    """Unseeded, global-state or wall-clock randomness under ``src/repro``."""

    code = "RL1"
    name = "determinism"
    description = (
        "no unseeded np.random.default_rng(), numpy/stdlib global RNG state, "
        "or wall-clock-derived seeds anywhere in the library"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        aliases = collect_import_aliases(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, aliases)
            if dotted is None:
                continue
            findings.extend(self._check_call(source, node, dotted, aliases))
        return findings

    def _check_call(
        self,
        source: SourceFile,
        node: ast.Call,
        dotted: str,
        aliases: Dict[str, str],
    ) -> Iterable[Finding]:
        tail = dotted.rsplit(".", 1)[-1]
        is_np_random = dotted.startswith("numpy.random.")
        # 1. unseeded Generator construction
        if is_np_random and tail == "default_rng" and not node.args and not node.keywords:
            yield _finding(
                source, node, self.code,
                "unseeded np.random.default_rng() — every run draws a different stream",
                "pass an explicit seed or thread a Generator through "
                "(repro.utils.rng.get_rng / spawn_rng)",
            )
            return
        # 2. hidden global RandomState
        if is_np_random and tail in _NUMPY_GLOBAL_FNS:
            yield _finding(
                source, node, self.code,
                f"np.random.{tail}() uses numpy's hidden global RandomState; "
                "results depend on unrelated call order",
                "use an explicit np.random.Generator (repro.utils.rng.get_rng)",
            )
            return
        # 3. stdlib random module (any use: the library threads numpy
        #    Generators everywhere; stdlib random is always a smell here)
        if dotted.startswith("random.") and dotted.count(".") == 1:
            yield _finding(
                source, node, self.code,
                f"stdlib random.{tail}() bypasses the seeded numpy Generator "
                "streams the reproduction is built on",
                "use an explicit np.random.Generator (repro.utils.rng.get_rng)",
            )
            return
        # 4. wall-clock / entropy-derived seeds
        if is_np_random and tail in _NUMPY_SEEDED_CTORS or dotted in (
            "random.seed", "random.Random"
        ):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                clock = self._wallclock_source(arg, aliases)
                if clock is not None:
                    yield _finding(
                        source, node, self.code,
                        f"seed derived from {clock} — reruns cannot reproduce this stream",
                        "derive seeds from the spec/config seed "
                        "(repro.utils.rng.derive_seeds)",
                    )
                    return

    @staticmethod
    def _wallclock_source(arg: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
        for sub in ast.walk(arg):
            target: Optional[ast.AST] = None
            if isinstance(sub, ast.Call):
                target = sub.func
            elif isinstance(sub, (ast.Attribute, ast.Name)):
                target = sub
            if target is None:
                continue
            dotted = resolve_dotted(target, aliases)
            if dotted in _WALLCLOCK_SOURCES:
                return dotted
        return None


# ----------------------------------------------------------------------
# RL3 — executor task safety
# ----------------------------------------------------------------------
@LINT_RULES.register("RL3")
class ExecutorSafetyRule(FileRule):
    """Lambdas/closures/bound methods handed to executor ``map``/``submit``."""

    code = "RL3"
    name = "executor-safety"
    description = (
        "callables passed to executor map()/submit() must be module-level "
        "functions so process and distributed workers can pickle/resolve them"
    )

    _DISPATCH_ATTRS = ("map", "submit")

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        nested = self._nested_function_names(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in self._DISPATCH_ATTRS):
                continue
            if not node.args:
                continue
            task = node.args[0]
            if isinstance(task, ast.Lambda):
                findings.append(
                    _finding(
                        source, task, self.code,
                        f"lambda passed to executor .{func.attr}(); lambdas cannot "
                        "be pickled or resolved by module:qualname for the "
                        "distributed executor's workers",
                        "hoist the task to a module-level function",
                    )
                )
            elif isinstance(task, ast.Name) and task.id in nested:
                findings.append(
                    _finding(
                        source, task, self.code,
                        f"closure '{task.id}' passed to executor .{func.attr}(); "
                        "functions defined inside another function cannot be "
                        "pickled or resolved by distributed workers",
                        "hoist the task to a module-level function",
                    )
                )
            elif self._is_self_bound(task):
                findings.append(
                    _finding(
                        source, task, self.code,
                        f"bound method passed to executor .{func.attr}(); the "
                        "instance (locks, sockets, caches) rides along in the "
                        "pickle — or fails to",
                        "hoist the task to a module-level function taking the "
                        "needed state as a picklable argument",
                    )
                )
        return findings

    @staticmethod
    def _nested_function_names(tree: ast.AST) -> Set[str]:
        nested: Set[str] = set()

        def visit(node: ast.AST, inside_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_fn and inside_function:
                    nested.add(child.name)
                visit(child, inside_function or is_fn)

        visit(tree, False)
        return nested

    @staticmethod
    def _is_self_bound(task: ast.AST) -> bool:
        return (
            isinstance(task, ast.Attribute)
            and isinstance(task.value, ast.Name)
            and task.value.id == "self"
        )


# ----------------------------------------------------------------------
# RL4 — atomic persistence
# ----------------------------------------------------------------------
@LINT_RULES.register("RL4")
class AtomicPersistenceRule(FileRule):
    """Bare truncating writes to durable paths in the persistence modules."""

    code = "RL4"
    name = "atomic-persistence"
    description = (
        "durable JSON/artifact writes must route through "
        "repro.utils.serialization (atomic temp file + fsync + os.replace)"
    )

    #: modules whose on-disk artifacts must survive a crash mid-write;
    #: ``utils/serialization.py`` is the registered idiom, not a client
    DURABLE_MODULES = (
        "src/repro/zoo/persistence.py",
        "src/repro/master/db.py",
        "src/repro/api/pipeline.py",
    )

    _HINT = (
        "use repro.utils.serialization.save_json / atomic_write_text "
        "(temp file + fsync + os.replace)"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if not any(source.rel.endswith(module) or source.rel == module
                   for module in self.DURABLE_MODULES):
            return []
        aliases = collect_import_aliases(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, aliases)
            if dotted in ("open", "io.open", "builtins.open"):
                mode = self._open_mode(node)
                if mode is not None and "w" in mode:
                    findings.append(
                        _finding(
                            source, node, self.code,
                            f"bare open(..., {mode!r}) in a durable-persistence "
                            "module truncates in place; a crash mid-write leaves "
                            "a corrupt artifact behind",
                            self._HINT,
                        )
                    )
            elif dotted == "json.dump":
                findings.append(
                    _finding(
                        source, node, self.code,
                        "json.dump() streams into an already-truncated handle; "
                        "a crash mid-dump leaves a torn JSON document",
                        self._HINT,
                    )
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text", "write_bytes"
            ):
                findings.append(
                    _finding(
                        source, node, self.code,
                        f"Path.{node.func.attr}() is a non-atomic truncating "
                        "write in a durable-persistence module",
                        self._HINT,
                    )
                )
        return findings

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        mode: Optional[ast.AST] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return None  # default "r": reads are always fine
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: cannot judge statically


# ----------------------------------------------------------------------
# RL6 — lock hygiene
# ----------------------------------------------------------------------
@LINT_RULES.register("RL6")
class LockHygieneRule(FileRule):
    """Blocking calls while holding a ``threading.Lock`` in serve/, master/
    or utils/ (the connection loop both servers run on)."""

    code = "RL6"
    name = "lock-hygiene"
    description = (
        "no socket I/O, subprocess waits, sleeps or fsyncs inside a held "
        "threading lock in the concurrent serve/master modules"
    )

    #: only the genuinely multithreaded packages are in scope
    SCOPE_DIRS = ("src/repro/serve/", "src/repro/master/", "src/repro/utils/")

    #: lock-name substrings that declare an I/O-serialisation lock (exempt:
    #: serialising writes on one socket/file is the lock's whole purpose)
    IO_LOCK_MARKERS = ("send_lock", "io_lock", "write_lock")

    #: resolved dotted call targets that block
    _BLOCKING_DOTTED = {
        "time.sleep",
        "os.fsync",
        "select.select",
        "subprocess.Popen",
        "subprocess.run",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
    }
    #: bare/imported function names that block (the wire protocol helpers)
    _BLOCKING_NAMES = {"send_message", "recv_message", "sleep"}
    #: attribute calls that block regardless of receiver
    _BLOCKING_ATTRS = {
        "recv", "recv_into", "recvfrom", "sendall", "accept", "connect",
        "communicate", "fsync", "makefile",
    }
    #: ``.wait()`` / ``.join()`` block only on processes and threads; the
    #: receiver name has to say so (Condition.wait releases the lock)
    _WAIT_RECEIVER_MARKERS = ("process", "proc", "popen", "thread", "worker")

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if not any(marker in source.rel for marker in (d.rstrip("/") + "/" for d in self.SCOPE_DIRS)):
            return []
        aliases = collect_import_aliases(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.With):
                continue
            lock_names = [
                name
                for item in node.items
                if (name := self._lock_expr_name(item.context_expr)) is not None
            ]
            guarded = [name for name in lock_names if not self._is_io_lock(name)]
            if not guarded:
                continue
            for body_node in self._walk_without_nested_defs(node.body):
                if isinstance(body_node, ast.Call):
                    reason = self._blocking_reason(body_node, aliases)
                    if reason is not None:
                        findings.append(
                            _finding(
                                source, body_node, self.code,
                                f"{reason} while holding lock "
                                f"'{guarded[0]}' — blocks every thread "
                                "contending for it (convoy / deadlock risk)",
                                "move the blocking call outside the critical "
                                "section, or rename the lock *send_lock/"
                                "*io_lock if serialising this I/O is its "
                                "declared purpose",
                            )
                        )
        return findings

    # -- helpers -------------------------------------------------------
    @classmethod
    def _lock_expr_name(cls, expr: ast.AST) -> Optional[str]:
        """The name of a with-item if it looks like a threading lock."""
        name: Optional[str] = None
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        if name is not None and "lock" in name.lower():
            return name
        return None

    @classmethod
    def _is_io_lock(cls, name: str) -> bool:
        lowered = name.lower()
        return any(marker in lowered for marker in cls.IO_LOCK_MARKERS)

    @staticmethod
    def _walk_without_nested_defs(body: List[ast.stmt]) -> Iterable[ast.AST]:
        """Walk statements, skipping code that only *defines* deferred work."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _blocking_reason(
        self, node: ast.Call, aliases: Dict[str, str]
    ) -> Optional[str]:
        dotted = resolve_dotted(node.func, aliases)
        if dotted is not None:
            if dotted in self._BLOCKING_DOTTED:
                return f"blocking call {dotted}()"
            if "." not in dotted and dotted in self._BLOCKING_NAMES:
                # bare names cover relative imports (from .protocol import
                # send_message), which alias collection deliberately skips
                return f"blocking call {dotted}()"
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in self._BLOCKING_ATTRS:
                return f"blocking .{func.attr}() call"
            if func.attr in ("wait", "join"):
                receiver = resolve_dotted(func.value, aliases) or ""
                lowered = receiver.lower()
                if any(marker in lowered for marker in self._WAIT_RECEIVER_MARKERS):
                    return f"blocking {receiver}.{func.attr}()"
        return None


# ----------------------------------------------------------------------
# RL7 — dtype discipline
# ----------------------------------------------------------------------
@LINT_RULES.register("RL7")
class DtypeDisciplineRule(FileRule):
    """Array factories without an explicit dtype in the precision hot paths."""

    code = "RL7"
    name = "dtype-discipline"
    description = (
        "np.asarray/np.zeros/np.empty in the precision-critical hot modules "
        "(fused kernels, metrics engine, backend layer) must pin an explicit "
        "dtype= so results stay inside the per-backend precision contract"
    )

    #: modules whose numeric results are promised per array backend —
    #: float64 bit-identity or the float32 tolerance contract
    HOT_MODULES = (
        "src/repro/nn/fused.py",
        "src/repro/fairness/engine.py",
        "src/repro/core/backend.py",
    )

    #: dtype-inheriting factories: the result dtype silently follows the
    #: input (asarray) or defaults to float64 regardless of backend
    _FACTORIES = {"numpy.asarray", "numpy.zeros", "numpy.empty"}

    _HINT = (
        "pass dtype= explicitly (backend.compute_dtype for hot-path compute, "
        "np.float64 for accumulators), or route through the ArrayBackend "
        "helpers; add '# repro-lint: disable=RL7' with a reason if the dtype "
        "is genuinely dynamic"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if not any(source.rel.endswith(module) or source.rel == module
                   for module in self.HOT_MODULES):
            return []
        aliases = collect_import_aliases(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, aliases)
            if dotted not in self._FACTORIES:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            if len(node.args) >= 2:  # dtype passed positionally
                continue
            tail = dotted.rsplit(".", 1)[-1]
            findings.append(
                _finding(
                    source, node, self.code,
                    f"np.{tail}() without an explicit dtype in a "
                    "precision-critical hot module; the result dtype follows "
                    "the input and can drift the path out of its backend "
                    "precision contract",
                    self._HINT,
                )
            )
        return findings


# ----------------------------------------------------------------------
# RL8 — telemetry discipline
# ----------------------------------------------------------------------
@LINT_RULES.register("RL8")
class TelemetryDisciplineRule(FileRule):
    """Wall-clock durations, and print/stdlib-logging in the hot paths."""

    code = "RL8"
    name = "telemetry-discipline"
    description = (
        "durations must come off time.perf_counter(), never the steppable "
        "wall clock; and the performance hot paths must emit operational "
        "output through RunLogger/repro.obs, not print() or stdlib logging"
    )

    #: the telemetry layer itself is exempt — it is the one place that
    #: measures clocks by design and renders the ``repro trace`` CLI output
    EXEMPT_PREFIX = "src/repro/obs/"

    #: modules on the measured hot paths (executor dispatch, search inner
    #: loop, fused forward, fairness kernels, the serve batcher, distributed
    #: dispatch): a stray print() here costs syscalls per task and bypasses
    #: the structured RunLogger/metrics surface operators actually watch
    HOT_MODULES = (
        "src/repro/core/execution.py",
        "src/repro/core/search.py",
        "src/repro/nn/fused.py",
        "src/repro/fairness/engine.py",
        "src/repro/serve/server.py",
        "src/repro/serve/supervisor.py",
        "src/repro/master/worker.py",
    )

    _STDLIB_LOG_FNS = {
        "debug", "info", "warning", "warn", "error", "exception", "critical", "log",
    }

    _DURATION_HINT = (
        "use time.perf_counter() for durations; time.time() is only for "
        "row timestamps (submitted_at/finished_at fields)"
    )
    _OUTPUT_HINT = (
        "route operational output through RunLogger.event()/log() or the "
        "repro.obs metrics and spans (structured, off-by-default-cheap)"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if source.rel.startswith(self.EXEMPT_PREFIX):
            return []
        aliases = collect_import_aliases(source.tree)
        findings: List[Finding] = []
        hot = any(source.rel.endswith(module) or source.rel == module
                  for module in self.HOT_MODULES)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                if self._contains_walltime_call(node, aliases):
                    findings.append(
                        _finding(
                            source, node, self.code,
                            "time.time() inside a subtraction — this is a "
                            "duration, and the wall clock steps (NTP) so it "
                            "can jump or go negative mid-run",
                            self._DURATION_HINT,
                        )
                    )
            elif hot and isinstance(node, ast.Call):
                dotted = resolve_dotted(node.func, aliases)
                if dotted in ("print", "builtins.print"):
                    findings.append(
                        _finding(
                            source, node, self.code,
                            "print() on a performance hot path; unstructured "
                            "stdout bypasses RunLogger rows and the metrics "
                            "surface, and costs a syscall per call",
                            self._OUTPUT_HINT,
                        )
                    )
                elif dotted is not None and dotted.startswith("logging."):
                    tail = dotted.rsplit(".", 1)[-1]
                    if tail in self._STDLIB_LOG_FNS or tail == "getLogger":
                        findings.append(
                            _finding(
                                source, node, self.code,
                                f"stdlib logging.{tail}() on a performance hot "
                                "path; the library's operational output is "
                                "structured RunLogger rows and obs metrics, "
                                "not the global logging tree",
                                self._OUTPUT_HINT,
                            )
                        )
        return findings

    @staticmethod
    def _contains_walltime_call(node: ast.BinOp, aliases: Dict[str, str]) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                dotted = resolve_dotted(sub.func, aliases)
                if dotted == "time.time":
                    return True
        return False


# ----------------------------------------------------------------------
# RL9 — failure-handling discipline in the fault-tolerant tiers
# ----------------------------------------------------------------------
@LINT_RULES.register("RL9")
class FailureDisciplineRule(FileRule):
    """Swallowed broad excepts and unbounded queues in serve/ and master/."""

    code = "RL9"
    name = "failure-discipline"
    description = (
        "in the fault-tolerant serve/master tiers a bare 'except:' / "
        "'except Exception' must log, re-raise or use the caught error — "
        "never swallow it silently — and every queue.Queue must be bounded "
        "(overload is shed with a typed error, not absorbed into latency)"
    )

    #: only the supervised concurrent tiers (and utils/, home of the
    #: connection loop they serve on) are in scope — everywhere else a broad
    #: except is an application-level judgement call
    SCOPE_DIRS = ("src/repro/serve/", "src/repro/master/", "src/repro/utils/")

    #: constructors that buffer work; unbounded means overload turns into
    #: unbounded memory + latency instead of fast rejection
    _QUEUE_CTORS = {"queue.Queue", "queue.LifoQueue", "queue.PriorityQueue"}

    #: call attribute names that count as surfacing the failure (RunLogger
    #: .event rows, stdlib-ish logger methods, metric counters)
    _SURFACE_ATTRS = {
        "event", "log", "debug", "info", "warning", "warn", "error",
        "exception", "critical", "fail", "inc",
    }

    _EXCEPT_HINT = (
        "re-raise (possibly as a typed error 'from exc'), log the failure "
        "through RunLogger.event(...), or at minimum consult the bound "
        "exception — a silently swallowed crash defeats the supervisor"
    )
    _QUEUE_HINT = (
        "construct queue.Queue(maxsize=<bound>) and shed overflow with a "
        "typed error (ServerOverloaded); unbounded buffering hides overload "
        "as latency"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if not any(
            marker in source.rel
            for marker in (d.rstrip("/") + "/" for d in self.SCOPE_DIRS)
        ):
            return []
        aliases = collect_import_aliases(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ExceptHandler):
                if self._is_broad(node.type) and self._swallows(node):
                    caught = (
                        "bare except"
                        if node.type is None
                        else f"except {ast.unparse(node.type)}"
                    )
                    findings.append(
                        _finding(
                            source, node, self.code,
                            f"{caught} swallows the failure: the handler "
                            "neither re-raises, nor logs, nor uses the "
                            "caught exception",
                            self._EXCEPT_HINT,
                        )
                    )
            elif isinstance(node, ast.Call):
                dotted = resolve_dotted(node.func, aliases)
                if dotted == "queue.SimpleQueue":
                    findings.append(
                        _finding(
                            source, node, self.code,
                            "queue.SimpleQueue() cannot be bounded; overload "
                            "must be shed, not buffered without limit",
                            self._QUEUE_HINT,
                        )
                    )
                elif dotted in self._QUEUE_CTORS and self._is_unbounded(node):
                    findings.append(
                        _finding(
                            source, node, self.code,
                            f"{dotted}() constructed without a positive "
                            "maxsize: an unbounded queue turns overload into "
                            "unbounded latency and memory",
                            self._QUEUE_HINT,
                        )
                    )
        return findings

    # -- broad-ness -----------------------------------------------------
    @classmethod
    def _is_broad(cls, annotation: Optional[ast.expr]) -> bool:
        if annotation is None:  # bare except:
            return True
        if isinstance(annotation, ast.Tuple):
            return any(cls._is_broad(elt) for elt in annotation.elts)
        name = None
        if isinstance(annotation, ast.Name):
            name = annotation.id
        elif isinstance(annotation, ast.Attribute):
            name = annotation.attr
        return name in ("Exception", "BaseException")

    # -- does the handler surface the failure? --------------------------
    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for stmt in handler.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return False
                if bound is not None and isinstance(sub, ast.Name) and sub.id == bound:
                    return False
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if sub.func.attr in self._SURFACE_ATTRS:
                        return False
        return True

    # -- queue bound ----------------------------------------------------
    @staticmethod
    def _is_unbounded(call: ast.Call) -> bool:
        size: Optional[ast.expr] = None
        if call.args:
            size = call.args[0]
        for kw in call.keywords:
            if kw.arg == "maxsize":
                size = kw.value
        if size is None:
            return True
        # a constant bound must be positive; a computed bound is trusted
        if isinstance(size, ast.Constant) and isinstance(size.value, (int, float)):
            return size.value <= 0
        if (
            isinstance(size, ast.UnaryOp)
            and isinstance(size.op, ast.USub)
            and isinstance(size.operand, ast.Constant)
        ):
            return True  # negative literal, e.g. maxsize=-1
        return False
