"""Deterministic fault injection: named points, seeded plans, one switch.

The resilience story (DESIGN.md §12) needs failures that are *repeatable*:
a chaos run that found a bug must replay byte-for-byte from its seed.
This module provides that determinism the same way :mod:`repro.obs` does
profiling — a module-level registry (:data:`FAULTS`) that instrumented
code guards with ``if FAULTS.enabled:`` so the disabled hot path costs
one attribute load and a branch.

Three pieces:

* **Injection points** are plain string names (``"cache.rebuild"``,
  ``"httpd.read"``, …) declared at import time with
  :func:`fault_point` so the inventory is introspectable
  (:meth:`FaultRegistry.points`); hitting an undeclared point is a
  programming error surfaced immediately.
* A :class:`FaultPlan` maps points to :class:`FaultSpec` behaviours —
  ``raise`` (throw :class:`FaultError`), ``delay`` (sleep), ``corrupt``
  (deterministically flip payload bytes) — each with a firing ``rate``
  decided by the plan's seeded RNG and an optional ``times`` budget.
* :class:`FaultRegistry` activates one plan at a time, process-wide and
  thread-safe: decisions are taken under a lock from a single
  ``random.Random(seed)`` stream, so a given (plan, arrival order) is
  reproducible, and single-threaded tests are exactly deterministic.

Activation is per-test (``with injected_faults(plan): ...``) or via the
``GOLDCASE_FAULTS`` environment variable, whose value is a plan spec::

    GOLDCASE_FAULTS="seed=7;cache.rebuild=raise:0.01;httpd.write=delay:0.2:0.005"

i.e. ``;``-separated ``point=mode[:rate[:arg]]`` entries (``arg`` is the
sleep in seconds for ``delay``, the fire budget for other modes) plus an
optional ``seed=N``.  Every fire is counted locally (for ``/stats`` and
the chaos runner's reports) and reported to the fire listener, which
the server telemetry uses to attribute it to a request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from random import Random

__all__ = [
    "FAULTS",
    "FaultError",
    "FaultPlan",
    "FaultRegistry",
    "FaultSpec",
    "fault_point",
    "injected_faults",
    "set_fire_listener",
]

MODES = ("raise", "delay", "corrupt")


class FaultError(RuntimeError):
    """The injected failure: raised by a ``raise``-mode injection point.

    Deliberately *not* a subclass of any domain error so handler code
    cannot accidentally classify it as a parse/validation problem — an
    injected fault must exercise the generic failure paths.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


@dataclass(frozen=True)
class FaultSpec:
    """One behaviour at one injection point."""

    point: str
    mode: str = "raise"
    #: Probability per hit that the fault fires (1.0 = always).
    rate: float = 1.0
    #: Sleep applied by ``delay`` mode, seconds.
    delay_s: float = 0.0
    #: Maximum number of fires (None = unlimited).
    times: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r} (expected {MODES})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate {self.rate} outside [0, 1]")


class FaultPlan:
    """A seeded set of :class:`FaultSpec` behaviours, one per point."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._specs: dict[str, FaultSpec] = {}

    def add(self, point: str, mode: str = "raise", *, rate: float = 1.0,
            delay_s: float = 0.0, times: int | None = None) -> "FaultPlan":
        """Add one behaviour; returns self for chaining."""
        self._specs[point] = FaultSpec(
            point=point, mode=mode, rate=rate, delay_s=delay_s, times=times)
        return self

    def spec(self, point: str) -> FaultSpec | None:
        return self._specs.get(point)

    @property
    def specs(self) -> dict[str, FaultSpec]:
        return dict(self._specs)

    def __bool__(self) -> bool:
        return bool(self._specs)

    def describe(self) -> dict:
        """JSON-ready summary (for ``/stats`` and chaos reproducers)."""
        return {
            "seed": self.seed,
            "specs": {
                point: {"mode": spec.mode, "rate": spec.rate,
                        "delay_s": spec.delay_s, "times": spec.times}
                for point, spec in sorted(self._specs.items())
            },
        }

    @classmethod
    def from_text(cls, text: str) -> "FaultPlan":
        """Parse a ``GOLDCASE_FAULTS`` spec string (see module docstring)."""
        plan = cls()
        entries: list[tuple[str, str]] = []
        for chunk in text.replace(",", ";").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(
                    f"bad fault entry {chunk!r} (expected point=mode[...])")
            key, _, value = chunk.partition("=")
            entries.append((key.strip(), value.strip()))
        for key, value in entries:
            if key == "seed":
                plan.seed = int(value)
                continue
            fields = value.split(":")
            mode = fields[0] or "raise"
            rate = float(fields[1]) if len(fields) > 1 and fields[1] else 1.0
            arg = float(fields[2]) if len(fields) > 2 and fields[2] else 0.0
            if mode == "delay":
                plan.add(key, mode, rate=rate, delay_s=arg)
            else:
                plan.add(key, mode, rate=rate,
                         times=int(arg) if arg else None)
        return plan


class FaultRegistry:
    """The process-wide activation site instrumented code checks.

    ``enabled`` is False until :meth:`activate` installs a plan, so the
    guard in hot paths (``if FAULTS.enabled:``) keeps the disabled cost
    to a single branch.  All firing decisions happen under one lock
    against the plan's seeded RNG stream.
    """

    __slots__ = ("enabled", "_lock", "_plan", "_rng", "_fired", "_points",
                 "_sleep")

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._plan: FaultPlan | None = None
        self._rng: Random | None = None
        self._fired: dict[str, int] = {}
        self._points: dict[str, str] = {}
        # Injectable for tests: delay faults must not slow the suite.
        self._sleep = time.sleep

    # -- inventory ---------------------------------------------------------

    def register_point(self, name: str, description: str) -> str:
        """Declare an injection point (idempotent); returns *name*."""
        with self._lock:
            self._points.setdefault(name, description)
        return name

    def points(self) -> dict[str, str]:
        """The declared injection-point inventory (name → description)."""
        with self._lock:
            return dict(self._points)

    # -- lifecycle ---------------------------------------------------------

    def activate(self, plan: FaultPlan) -> None:
        """Install *plan* and start firing; resets the fire counters."""
        with self._lock:
            self._plan = plan
            self._rng = Random(plan.seed)
            self._fired = {}
        self.enabled = bool(plan)

    def deactivate(self) -> None:
        """Stop firing; fire counts stay readable until next activate."""
        self.enabled = False
        with self._lock:
            self._plan = None
            self._rng = None

    # -- reading -----------------------------------------------------------

    def fired(self) -> dict[str, int]:
        """Fires per point since the last :meth:`activate`."""
        with self._lock:
            return dict(self._fired)

    def describe(self) -> dict:
        """JSON-ready state for ``/stats``: plan, fires, inventory size."""
        with self._lock:
            plan = self._plan
            fired = dict(self._fired)
        return {
            "active": self.enabled,
            "plan": plan.describe() if plan is not None else None,
            "fired": fired,
        }

    # -- the injection call ------------------------------------------------

    def hit(self, point: str, payload: bytes | None = None):
        """Evaluate *point* against the active plan; returns the payload.

        Call sites guard with ``if FAULTS.enabled:`` and must pass any
        bytes a ``corrupt`` fault may mutate.  Raises :class:`FaultError`
        for ``raise`` mode; sleeps for ``delay`` mode; returns a
        deterministically mutated copy for ``corrupt`` mode.
        """
        with self._lock:
            plan, rng = self._plan, self._rng
            if plan is None or rng is None:
                return payload
            spec = plan.spec(point)
            if spec is None:
                return payload
            if spec.times is not None \
                    and self._fired.get(point, 0) >= spec.times:
                return payload
            if spec.rate < 1.0 and rng.random() >= spec.rate:
                return payload
            self._fired[point] = self._fired.get(point, 0) + 1
            # Corrupt positions come from the same seeded stream, so a
            # replay mutates the same offsets in the same order.
            corrupt_at = rng.randrange(len(payload)) \
                if spec.mode == "corrupt" and payload else 0
        listener = _FIRE_LISTENER
        if listener is not None:
            # Runs on the firing thread, so the server telemetry can
            # attribute the fire to the request being handled there.
            listener(point, spec.mode)
        if spec.mode == "raise":
            raise FaultError(point)
        if spec.mode == "delay":
            if spec.delay_s > 0:
                self._sleep(spec.delay_s)
            return payload
        if payload:  # corrupt: flip one byte (XOR keeps length stable)
            mutated = bytearray(payload)
            mutated[corrupt_at] ^= 0xFF
            return bytes(mutated)
        return payload


#: The process-wide registry every instrumented module guards on.
FAULTS = FaultRegistry()

#: One optional observer of every fired fault, called as
#: ``listener(point, mode)`` on the firing thread.  The server
#: telemetry installs itself here so access-log lines and chaos
#: reproducers can name the exact fault points a request tripped.
_FIRE_LISTENER = None


def set_fire_listener(listener) -> None:
    """Install (or clear, with None) the process-wide fire observer."""
    global _FIRE_LISTENER
    _FIRE_LISTENER = listener


def fault_point(name: str, description: str) -> str:
    """Module-level sugar for declaring an injection point at import."""
    return FAULTS.register_point(name, description)


class injected_faults:
    """``with injected_faults(plan):`` — activate for a region, restore.

    Deactivates on exit (exception or not).  Nesting replaces the outer
    plan for the inner region and restores it afterwards.
    """

    __slots__ = ("_plan", "_previous")

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultRegistry:
        self._previous = FAULTS._plan
        FAULTS.activate(self._plan)
        return FAULTS

    def __exit__(self, *exc_info) -> bool:
        if self._previous is not None:
            FAULTS.activate(self._previous)
        else:
            FAULTS.deactivate()
        return False
