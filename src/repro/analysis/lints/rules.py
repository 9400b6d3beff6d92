"""Project-specific determinism lint rules.

Every rule here guards an invariant the repo's correctness rests on:

* The content-addressed result cache (``repro.exec``) assumes a
  :class:`~repro.exec.RunSpec` *is* its result's identity — any
  wall-clock read, unseeded RNG or environment dependency inside the
  simulation packages silently breaks digest stability.
* The golden-run suite assumes bit-identical replays, including under a
  different ``PYTHONHASHSEED`` — hash-ordered ``set`` iteration feeding
  results or telemetry breaks exactly that.
* ``repro.exec.hashing`` canonicalises dataclasses into JSON — a
  mutable (non-frozen) spec could drift between digest and execution.
* The telemetry counter namespace is a documented contract
  (``docs/observability.md``); a typo'd root silently forks a metric.

Scopes
------
``DETERMINISTIC_PACKAGES`` is everything between a :class:`RunSpec` and
its :class:`RunResult`: the kernel, the chip model, RCCE, the pipeline,
the renderer, the filters and both host models.  Config plumbing
(``repro.exec`` cache-dir discovery, the CLI, reporting) may read the
environment and the clock — results never depend on them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...telemetry.counters import (KNOWN_COUNTER_ROOTS,
                                   KNOWN_METRIC_ROOTS)
from .engine import LintContext, Rule

__all__ = ["ALL_RULES", "DETERMINISTIC_PACKAGES", "default_rules",
           "WallClockRule", "UnseededRandomRule", "EnvDependenceRule",
           "UnorderedIterationRule", "MutableDefaultRule",
           "UnfrozenSpecDataclassRule", "FloatAccumulationRule",
           "UnknownCounterRootRule", "UnknownMetricRootRule",
           "EngineEmissionRule",
           "DirectPrintRule", "GuardedStateRule", "LockOrderRule",
           "UnlockedRmwRule", "PipelineDeadlockRule"]

#: packages on the RunSpec -> RunResult path: nothing here may read the
#: wall clock, the environment, or unseeded randomness
DETERMINISTIC_PACKAGES = (
    "repro.sim", "repro.scc", "repro.rcce", "repro.pipeline",
    "repro.render", "repro.filters", "repro.host", "repro.cluster",
    "repro.engine",
)

#: wall-clock entry points, by dotted name
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.localtime",
    "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: stdlib ``random`` module-level functions that mutate the global RNG
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "seed", "getrandbits", "randbytes",
}

#: numpy legacy global-state RNG entry points
_NUMPY_GLOBAL_RANDOM_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "uniform",
    "normal", "standard_normal", "poisson", "exponential",
}

#: environment probes that make behaviour machine-dependent
_ENV_CALLS = {
    "os.getenv", "os.uname", "os.getlogin", "os.cpu_count",
    "socket.gethostname", "socket.getfqdn", "getpass.getuser",
    "locale.getlocale", "locale.getdefaultlocale",
}

#: filesystem enumerations whose order is OS-dependent
_FS_ORDER_CALLS = {"os.listdir", "os.scandir"}
_FS_ORDER_METHODS = {"glob", "rglob", "iterdir"}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name -> dotted origin for ``from module import x [as y]``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module and alias.asname:
                    aliases[alias.asname] = module
    return aliases


def _resolved_call_name(node: ast.Call, aliases: Dict[str, str]
                        ) -> Optional[str]:
    """Dotted callee name with ``from x import y`` aliases resolved."""
    name = _dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = aliases.get(head)
    if origin is not None:
        return f"{origin}.{rest}" if rest else origin
    return name


class WallClockRule(Rule):
    rule_id = "DET001"
    summary = "wall-clock read inside the deterministic simulation core"
    rationale = (
        "Simulated time comes from Simulator.now; reading the host clock "
        "on the RunSpec->RunResult path makes results (and therefore "
        "cache digests and golden snapshots) vary run to run.")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        aliases = {**_import_aliases(ctx.tree, "time"),
                   **_import_aliases(ctx.tree, "datetime")}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolved_call_name(node, aliases)
            if name in _WALL_CLOCK_CALLS:
                yield node, (f"`{name}()` reads the host clock; use "
                             f"simulated time (Simulator.now) instead")


class UnseededRandomRule(Rule):
    rule_id = "DET002"
    summary = "RNG without an explicit seed"
    rationale = (
        "Unseeded generators (and the global random/np.random state) "
        "give different results per process, breaking RunSpec digest "
        "stability and golden-run replays; derive generators from the "
        "run's seed (cf. repro.pipeline.film.filter_stream).")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        aliases = _import_aliases(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolved_call_name(node, aliases)
            if name is None:
                continue
            if (name.endswith(".default_rng") and not node.args
                    and not node.keywords):
                yield node, ("`default_rng()` without a seed draws OS "
                             "entropy; thread the run seed through")
            elif name == "random.Random" and not node.args:
                yield node, "`random.Random()` without a seed"
            elif name == "random.SystemRandom":
                yield node, "`random.SystemRandom` is OS entropy"
            else:
                head, _, fn = name.rpartition(".")
                if head == "random" and fn in _GLOBAL_RANDOM_FNS:
                    yield node, (f"`random.{fn}()` uses the global RNG; "
                                 f"use a seeded Generator instance")
                elif (head in ("np.random", "numpy.random")
                        and fn in _NUMPY_GLOBAL_RANDOM_FNS):
                    yield node, (f"`{name}()` uses numpy's legacy global "
                                 f"RNG; use a seeded default_rng(seed)")


class EnvDependenceRule(Rule):
    rule_id = "DET003"
    summary = "environment probe inside the deterministic simulation core"
    rationale = (
        "Host name, env vars, CPU count or locale must never steer a "
        "simulated result: the same RunSpec would produce different "
        "digests on different machines.  Configuration layers (exec, "
        "cli, benchmarks) may read the environment.")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        aliases = _import_aliases(ctx.tree, "os")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _resolved_call_name(node, aliases)
                if name is None:
                    continue
                if name in _ENV_CALLS:
                    yield node, f"`{name}()` depends on the host machine"
                elif name.startswith("platform."):
                    yield node, f"`{name}()` depends on the host platform"
                elif (name == "os.environ.get"
                        or name.startswith("os.environ.")):
                    yield node, "`os.environ` read in the simulation core"
            elif isinstance(node, ast.Attribute):
                if _dotted_name(node) == "os.environ":
                    yield node, "`os.environ` read in the simulation core"


class UnorderedIterationRule(Rule):
    rule_id = "DET004"
    summary = "iteration in hash/OS order"
    rationale = (
        "Set iteration order follows PYTHONHASHSEED for strings, and "
        "directory listings follow the filesystem; feeding either into "
        "results, telemetry or digests breaks replays.  Wrap the "
        "iterable in sorted(...) to pin an order.")

    #: consumers whose result does not depend on iteration order — a
    #: comprehension passed straight into one of these is harmless
    _ORDER_INSENSITIVE = {"sorted", "set", "frozenset", "sum", "min",
                          "max", "any", "all", "len", "Counter",
                          "collections.Counter"}

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        exempt: set = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and _dotted_name(node.func) in self._ORDER_INSENSITIVE):
                for arg in node.args:
                    if isinstance(arg, (ast.ListComp, ast.SetComp,
                                        ast.GeneratorExp)):
                        exempt.add(id(arg))
        iter_sites: List[ast.expr] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_sites.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if id(node) not in exempt:
                    iter_sites.extend(gen.iter for gen in node.generators)
        for site in iter_sites:
            message = self._unordered(site)
            if message is not None:
                yield site, message

    @staticmethod
    def _unordered(node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "iterating a set literal (hash order)"
        if not isinstance(node, ast.Call):
            return None
        name = _dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"iterating `{name}(...)` (hash order)"
        if name in _FS_ORDER_CALLS:
            return f"iterating `{name}(...)` (filesystem order)"
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_ORDER_METHODS):
            return (f"iterating `.{node.func.attr}(...)` "
                    f"(filesystem order); wrap in sorted(...)")
        return None


class MutableDefaultRule(Rule):
    rule_id = "DET005"
    summary = "mutable default argument"
    rationale = (
        "A list/dict/set default is shared across calls: state leaks "
        "between runs in the same process, so the first and second "
        "simulation of one spec can diverge.")

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque",
                      "defaultdict", "OrderedDict", "Counter"}

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._mutable(default):
                    yield default, (f"mutable default in "
                                    f"`{node.name}(...)`; use None and "
                                    f"create inside")

    @classmethod
    def _mutable(cls, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return name in cls._MUTABLE_CALLS
        return False


class UnfrozenSpecDataclassRule(Rule):
    rule_id = "DET006"
    summary = "non-frozen dataclass participating in canonical hashing"
    rationale = (
        "A dataclass that exposes `digest`/`as_dict` feeds "
        "exec.hashing's canonical JSON; if it is mutable it can change "
        "between hashing and execution, silently splitting the result "
        "cache.  Declare it @dataclass(frozen=True).")

    _IDENTITY_METHODS = {"digest", "as_dict"}

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_unfrozen_dataclass(node):
                continue
            methods = {item.name for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            hit = methods & self._IDENTITY_METHODS
            if hit:
                yield node, (f"dataclass `{node.name}` defines "
                             f"{sorted(hit)} but is not frozen=True")

    @staticmethod
    def _is_unfrozen_dataclass(node: ast.ClassDef) -> bool:
        for dec in node.decorator_list:
            name = _dotted_name(dec.func if isinstance(dec, ast.Call)
                                else dec)
            if name not in ("dataclass", "dataclasses.dataclass"):
                continue
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if (kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True):
                        return False
            return True
        return False


class FloatAccumulationRule(Rule):
    rule_id = "DET007"
    summary = "naive float accumulation inside a loop"
    rationale = (
        "A `total += term` loop accumulates rounding error that depends "
        "on the number and order of iterations; the batched engine's "
        "frame-wave jumps replace thousands of such adds with one "
        "vectorised step, so any drift between the two paths must be "
        "deliberate and bounded.  Collect the terms and `math.fsum` "
        "them (or use Kahan summation) — or, where the naive add "
        "deliberately mirrors the event kernel bit-for-bit, suppress "
        "with `# lint: disable=DET007 -- why` on the statement line.")

    #: terminal-name fragments that mark a float accumulator (counters
    #: like `grants`/`messages`/`_seq` are integers and exact by nature)
    _HINTS = ("total", "sum", "busy", "energy", "seconds", "covered",
              "idle", "power")
    #: enclosing functions that *are* the compensated implementation
    _EXEMPT_FN_HINTS = ("kahan", "fsum", "compensated")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        exempt: set = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(h in node.name.lower()
                            for h in self._EXEMPT_FN_HINTS)):
                exempt.update(id(sub) for sub in ast.walk(node))
        seen: set = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if (id(node) in seen or id(node) in exempt
                        or not isinstance(node, ast.AugAssign)
                        or not isinstance(node.op, ast.Add)):
                    continue
                name = self._terminal_name(node.target)
                if name and any(h in name.lower() for h in self._HINTS):
                    seen.add(id(node))
                    yield node, (
                        f"`{name} +=` in a loop accumulates rounding "
                        f"error per iteration; collect terms and "
                        f"math.fsum them (or use Kahan summation)")

    @staticmethod
    def _terminal_name(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None


class UnknownCounterRootRule(Rule):
    rule_id = "TEL001"
    summary = "telemetry counter outside the registered namespace"
    rationale = (
        "Counter names are a contract (docs/observability.md, "
        "KNOWN_COUNTER_ROOTS in repro.telemetry.counters): exporters, "
        "the top report and dashboards match on the first dotted "
        "segment.  An unregistered root is almost always a typo that "
        "silently forks a metric.")

    _MUTATORS = {"inc", "set_gauge", "observe", "counter", "gauge",
                 "histogram"}

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call_site(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_prefix_assignment(node)

    def _check_call_site(self, node: ast.Call
                         ) -> Iterator[Tuple[ast.AST, str]]:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in self._MUTATORS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "counters"
                and node.args):
            return
        head = self._static_head(node.args[0])
        yield from self._check_head(node.args[0], head)

    def _check_prefix_assignment(self, node: ast.AST
                                 ) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            assert isinstance(node, ast.AnnAssign)
            targets, value = [node.target], node.value
        if value is None:
            return
        for target in targets:
            name = (target.attr if isinstance(target, ast.Attribute)
                    else target.id if isinstance(target, ast.Name) else "")
            if "counter_prefix" in name:
                head = self._static_head(value)
                yield from self._check_head(value, head)
                return

    def _check_head(self, node: ast.expr, head: Optional[str]
                    ) -> Iterator[Tuple[ast.AST, str]]:
        if not head:
            return  # fully dynamic name: covered at the prefix assignment
        root = head.split(".", 1)[0]
        # An undotted head that is immediately followed by interpolation
        # (f"stage{x}...") is an incomplete first segment: only check
        # heads that pin the root, i.e. contain a dot or are the whole
        # name.
        complete = "." in head or isinstance(node, ast.Constant)
        if complete and root not in KNOWN_COUNTER_ROOTS:
            yield node, (f"counter root {root!r} is not in "
                         f"KNOWN_COUNTER_ROOTS "
                         f"({', '.join(sorted(KNOWN_COUNTER_ROOTS))})")

    @staticmethod
    def _static_head(node: ast.expr) -> Optional[str]:
        """Leading literal text of a str constant or f-string."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            head = ""
            for part in node.values:
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    head += part.value
                else:
                    break
            return head
        return None


class UnknownMetricRootRule(Rule):
    rule_id = "TEL002"
    summary = "derived metric outside the registered namespace"
    rationale = (
        "Snapshot metric names are a cross-run contract "
        "(KNOWN_METRIC_ROOTS in repro.telemetry.counters): tolerance "
        "files and committed baselines for `repro diff` key on them, so "
        "an unregistered root silently escapes the regression gate.  "
        "Register the root and document it in docs/observability.md.")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "add_metric"
                    and node.args):
                continue
            head = UnknownCounterRootRule._static_head(node.args[0])
            if not head:
                continue  # fully dynamic name: checked at runtime
            root = head.split(".", 1)[0]
            complete = "." in head or isinstance(node.args[0], ast.Constant)
            if complete and root not in KNOWN_METRIC_ROOTS:
                yield node.args[0], (
                    f"metric root {root!r} is not in KNOWN_METRIC_ROOTS "
                    f"({', '.join(sorted(KNOWN_METRIC_ROOTS))})")


class EngineEmissionRule(Rule):
    rule_id = "TEL003"
    summary = "direct telemetry emission inside repro.engine"
    rationale = (
        "The batched engine's telemetry is *synthesized*: every span, "
        "instant, counter increment and periodic block must go through "
        "the hub-gated helpers in repro.engine.telsynth, which resolve "
        "what the hub's readers read and own the jump arithmetic.  A "
        "direct hub or counter call elsewhere in repro.engine bypasses "
        "that gate — it emits even when no reader reads it, and the "
        "frame-wave jump cannot renumber or replicate it.")

    #: the telemetry emission surface (Telemetry + MetricRegistry)
    _EMITTERS = {"span", "emit", "sample", "inc", "set_gauge", "observe",
                 "add_periodic_block", "add_sink"}
    #: the one module allowed to touch the hub
    _HELPER = "repro.engine.telsynth"

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.in_package("repro.engine"):
            return
        if ctx.in_package(self._HELPER):
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._EMITTERS):
                yield node, (
                    f"`.{node.func.attr}()` emits telemetry directly; "
                    f"repro.engine must go through the hub-gated "
                    f"helpers in {self._HELPER}")


class DirectPrintRule(Rule):
    rule_id = "OBS001"
    summary = "direct print() in library code"
    rationale = (
        "Library modules reporting through print() are invisible to the "
        "structured event log (repro.obsv.eventlog): records bypass "
        "levels, the JSONL sink and digest context, so operational "
        "tooling cannot see them.  Emit through EVENT_LOG (or return "
        "the text to the caller); only the user-facing surfaces in "
        "_PRINT_SURFACES legitimately write the terminal.")

    #: modules whose whole purpose is terminal output
    _PRINT_SURFACES = (
        "repro.cli", "repro.__main__", "repro.report", "repro.obsv.top",
    )

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.in_package("repro"):
            return  # scripts/benchmarks/tests print freely
        if ctx.in_package(*self._PRINT_SURFACES):
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                yield node, ("`print()` bypasses the structured event "
                             "log; emit through repro.obsv EVENT_LOG or "
                             "return the text to a CLI/report surface")


class GuardedStateRule(Rule):
    """CON001 — the implementation lives in
    :mod:`repro.analysis.concurrency.guards` (imported lazily inside
    ``check`` so the concurrency package can itself import the lint
    engine without a cycle)."""

    rule_id = "CON001"
    summary = "guarded state accessed outside its declared lock"
    rationale = (
        "A `# guarded-by: self._lock` annotation on an attribute (or a "
        "caller-holds annotation on a def) is a contract: every access "
        "must sit lexically inside `with <lock>:`.  Both threading "
        "races fixed by hand in the observability plane — the eventlog "
        "ts stamped outside the clock lock, the cache hit/miss "
        "counters bumped unlocked — are exactly this shape; the "
        "annotation makes the next one a lint failure instead of a "
        "flaky telemetry bug.")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        from ..concurrency.guards import check_guarded_state
        yield from check_guarded_state(ctx)


class LockOrderRule(Rule):
    rule_id = "CON002"
    summary = "cycle in the lock-acquisition-order graph"
    rationale = (
        "Two threads acquiring the same pair of locks in opposite "
        "orders deadlock under the right interleaving — and only "
        "then, which is why testing rarely catches it.  This rule "
        "builds the acquisition-order graph per module (nested `with` "
        "blocks, plus caller-holds calls made under a different lock) "
        "and reports every cycle.")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        from ..concurrency.guards import check_lock_order
        yield from check_lock_order(ctx)


class UnlockedRmwRule(Rule):
    rule_id = "CON003"
    summary = "unlocked read-modify-write on counter-style shared state"
    rationale = (
        "`self.hits += 1` compiles to read/add/store; two threads "
        "interleaving lose an update.  In a class that owns a lock, "
        "counter-style attributes mutated outside any `with` block are "
        "either missing the lock or missing the guarded-by annotation "
        "that would put them under CON001's precise contract check.")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        from ..concurrency.guards import check_unlocked_rmw
        yield from check_unlocked_rmw(ctx)


class PipelineDeadlockRule(Rule):
    rule_id = "CON004"
    summary = "pipeline arrangement with a guaranteed rendezvous deadlock"
    rationale = (
        "RCCE channels are rendezvous: a send blocks until its recv is "
        "posted.  A cycle in the channel wait-for graph (or an "
        "unmatched send/recv count) therefore deadlocks every run, "
        "deterministically.  Abstract execution of the extracted "
        "protocol (repro.pipeline.protocol) decides this exactly "
        "before any simulator is built; the runtime DeadlockError is "
        "the last line of defence, this rule is the first.")

    def check(self, ctx: LintContext) -> Iterator[Tuple[ast.AST, str]]:
        from ..concurrency.pipelines import protocol_findings
        yield from protocol_findings(ctx)


def default_rules() -> Sequence[Rule]:
    """The project rule set, in catalog order."""
    return (WallClockRule(), UnseededRandomRule(), EnvDependenceRule(),
            UnorderedIterationRule(), MutableDefaultRule(),
            UnfrozenSpecDataclassRule(), FloatAccumulationRule(),
            UnknownCounterRootRule(), UnknownMetricRootRule(),
            EngineEmissionRule(),
            DirectPrintRule(), GuardedStateRule(), LockOrderRule(),
            UnlockedRmwRule(), PipelineDeadlockRule())


ALL_RULES = tuple(type(r) for r in default_rules())
