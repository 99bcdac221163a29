"""Deterministic fault injection for the sharded runtime.

A :class:`FaultPlan` describes *which shards fail and how*, keyed by shard
index or shard label, so runtime failure handling is testable and
reproducible: the same plan against the same shard plan always fires the
same faults on the same attempts. Plans are parsed from a compact spec
grammar (CLI ``--inject-faults``, env ``REPRO_INJECT_FAULTS``)::

    SPEC  := ENTRY[,ENTRY...]
    ENTRY := KIND@TARGET[*TIMES][=VALUE]

    KIND   one of crash | hang | raise | corrupt-shm-header | deny-shm
    TARGET a shard index (``crash@1``), ``*`` (every shard), or a shard
           label matched against ``spec.describe()`` (``hang@R3/d0+2/g1of8``)
    TIMES  how many attempts the fault fires on (default 1: only the first
           attempt, so a retried shard succeeds); ``*TIMES`` with ``inf``
           fires on every attempt
    VALUE  fault parameter — hang duration in seconds (default 60)

Examples: ``crash@1`` (shard 1's worker dies once), ``hang@2=30*2`` is not
valid — order is ``hang@2*2=30`` (shard 2 sleeps 30 s on its first two
attempts), ``raise@*`` (every shard raises once).

Fault kinds:

``crash``
    the worker process exits hard (``os._exit``) — the pool breaks exactly
    as it would on a segfault or OOM kill;
``hang``
    the worker sleeps for VALUE seconds before computing — exercises the
    supervisor's wall-clock timeout;
``raise``
    the worker raises :class:`InjectedFault` — exercises bounded retry;
``corrupt-shm-header``
    the worker returns a shard *result* handle whose header is undecodable
    — exercises the parent-side shm→pickle decode fallback (the shard
    re-executes on the pickle channel);
``deny-shm``
    the worker refuses to park its *result* in shared memory — exercises
    the shm→pickle allocation fallback (the result travels by pickle).

Both shm kinds act on results only (task payloads always travel by
pickle) and are no-ops on the pickle channel.

Faults fire only in pooled workers (``jobs > 1``); the serial path ignores
the plan, since a crash there would take down the parent under test.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

#: Recognised fault kinds, in documentation order.
FAULT_KINDS = ("crash", "hang", "raise", "corrupt-shm-header", "deny-shm")

#: Environment variables through which the CLI reaches every nested executor.
FAULTS_ENV = "REPRO_INJECT_FAULTS"
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"
SHARD_RETRIES_ENV = "REPRO_SHARD_RETRIES"

#: Default hang duration (seconds) when a ``hang`` entry carries no value.
DEFAULT_HANG_S = 60.0


class InjectedFault(RuntimeError):
    """Raised inside a worker by a ``raise`` fault."""


class ShardError(RuntimeError):
    """A shard failed permanently (retries exhausted or error not retryable).

    Carries the shard's context so a failed sharded run names *which*
    piece of the plan died and why: ``shard`` is the shard label
    (``spec.describe()`` where the item carries a spec), ``attempts`` how
    many executions were tried, and ``kind`` a short failure category
    (``"worker exception"``, ``"timeout"``, ``"worker death"``, ...). The
    original worker traceback, when one crossed the process boundary,
    rides in the message and as ``__cause__``.
    """

    def __init__(self, message: str = "", *, shard: str = "",
                 attempts: int = 0, kind: str = ""):
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts
        self.kind = kind

    def __reduce__(self):
        # Keyword-only context must survive the pool's pickle round trip.
        return (
            _rebuild_shard_error,
            (self.args[0] if self.args else "", self.shard, self.attempts,
             self.kind),
        )


def _rebuild_shard_error(message, shard, attempts, kind):
    return ShardError(message, shard=shard, attempts=attempts, kind=kind)


@dataclass(frozen=True)
class Fault:
    """One fault-plan entry: what fails, where, how often."""

    kind: str
    target: str
    times: float = 1.0  # attempts the fault fires on; math.inf = always
    value: float = DEFAULT_HANG_S

    def matches(self, index: int, label: str, attempt: int) -> bool:
        """Does this fault fire for shard ``index``/``label`` on ``attempt``?"""
        if attempt >= self.times:
            return False
        if self.target == "*":
            return True
        if self.target == str(index):
            return True
        return bool(label) and self.target == label

    def describe(self) -> str:
        times = "inf" if math.isinf(self.times) else str(int(self.times))
        text = f"{self.kind}@{self.target}"
        if self.times != 1:
            text += f"*{times}"
        if self.kind == "hang" and self.value != DEFAULT_HANG_S:
            text += f"={self.value:g}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`Fault` entries; first match wins."""

    faults: tuple[Fault, ...] = field(default=())

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        """Parse the ``KIND@TARGET[*TIMES][=VALUE]`` comma list (see module doc)."""
        if not spec or not spec.strip():
            return cls()
        faults = []
        for raw_entry in spec.split(","):
            entry = raw_entry.strip()
            if not entry:
                continue
            kind, sep, rest = entry.partition("@")
            if not sep or not rest:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected KIND@TARGET"
                    f"[*TIMES][=VALUE] with KIND in {FAULT_KINDS}"
                )
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in entry {entry!r} "
                    f"(choose from {FAULT_KINDS})"
                )
            value = DEFAULT_HANG_S
            if "=" in rest:
                rest, _, value_text = rest.rpartition("=")
                try:
                    value = float(value_text)
                except ValueError:
                    raise ValueError(
                        f"bad fault value {value_text!r} in entry {entry!r}: "
                        "expected a number (hang seconds)"
                    ) from None
                if value < 0:
                    raise ValueError(
                        f"fault value must be >= 0 in entry {entry!r}"
                    )
            times = 1.0
            if "*" in rest:
                target, _, times_text = rest.rpartition("*")
                if not target:
                    # "crash@*" — the lone star is the target, not a count.
                    target = "*"
                else:
                    if times_text in ("inf", "*", "always"):
                        times = math.inf
                    else:
                        try:
                            times = float(int(times_text))
                        except ValueError:
                            raise ValueError(
                                f"bad fault repeat count {times_text!r} in "
                                f"entry {entry!r}: expected an integer or "
                                "'inf'"
                            ) from None
                        if times < 1:
                            raise ValueError(
                                f"fault repeat count must be >= 1 in entry "
                                f"{entry!r}"
                            )
                rest = target
            target = rest.strip()
            if not target:
                raise ValueError(
                    f"bad fault entry {entry!r}: empty target (use a shard "
                    "index, '*', or a shard label)"
                )
            faults.append(Fault(kind=kind, target=target, times=times,
                                value=value))
        return cls(faults=tuple(faults))

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """Plan from ``REPRO_INJECT_FAULTS`` (empty plan when unset)."""
        return cls.parse(os.environ.get(FAULTS_ENV))

    def resolve(self, index: int, label: str, attempt: int) -> Fault | None:
        """First fault that fires for this shard execution, if any."""
        for fault in self.faults:
            if fault.matches(index, label, attempt):
                return fault
        return None

    def describe(self) -> str:
        return ",".join(fault.describe() for fault in self.faults)


def fire_worker_fault(fault: Fault, shard: str = "") -> None:
    """Execute a worker-side fault (crash/hang/raise) at shard start.

    The shm fault kinds are handled where the result is parked, not here.
    """
    if fault.kind == "crash":
        # Exit without cleanup, exactly like a segfault or the OOM killer:
        # no finally blocks, no atexit, no pool goodbye message.
        os._exit(70)
    elif fault.kind == "hang":
        time.sleep(fault.value)
    elif fault.kind == "raise":
        raise InjectedFault(
            f"injected fault on shard {shard or '?'}: {fault.describe()}"
        )


def describe_item(item) -> str:
    """Best shard label for an executor work item.

    Shard-plan items carry a spec with ``describe()`` (directly or via a
    ``.spec`` attribute); anything else falls back to a truncated repr, so
    fault targeting and error context work for arbitrary tasks too.
    """
    spec = getattr(item, "spec", item)
    describe = getattr(spec, "describe", None)
    if callable(describe):
        try:
            return str(describe())
        except Exception:
            pass
    text = repr(item)
    return text if len(text) <= 60 else text[:57] + "..."
