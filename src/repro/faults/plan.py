"""Seeded fault plans and retry policies.

A :class:`FaultPlan` is the *script* of a chaos experiment: which
machines die and when (on the simulated clock), how often task attempts
fail or straggle, which reducers lose a shuffle partition, and -- for
the real multiprocess backend -- which worker attempts get hard-killed.
Every decision is derived deterministically from the plan's seed and the
coordinates of the thing being decided (phase, task, attempt), so the
same plan replays bit-identically in-process, across processes, and
across runs; ``hash()`` randomization never enters the picture.

A :class:`RetryPolicy` is the *response* to those faults: how many
attempts a task gets, how long to back off between them (exponential
with deterministic jitter), and whether stragglers earn a speculative
backup copy.  The simulated scheduler measures backoff in simulated
seconds; the multiprocess executor measures it in wall seconds -- the
semantics are otherwise identical.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Iterable, Optional


class FaultPlanError(ValueError):
    """A fault plan is malformed (bad machine index, probability, ...)."""


def _rng(seed: int, *coords) -> random.Random:
    """A deterministic RNG scoped to one decision point.

    Seeding with a string makes :class:`random.Random` hash it with
    SHA-512 -- stable across processes and Python invocations, unlike
    ``hash()`` on strings.
    """
    return random.Random(":".join(str(part) for part in (seed,) + coords))


@dataclass(frozen=True)
class MachineCrash:
    """One machine dying at a point on the simulated clock."""

    machine: int
    at: float

    def __post_init__(self):
        if self.machine < 0:
            raise FaultPlanError(f"negative machine index {self.machine}")
        if self.at < 0:
            raise FaultPlanError(f"crash time {self.at} is before the run")


@dataclass(frozen=True)
class RetryPolicy:
    """How failed or straggling task attempts are retried.

    Args:
        max_attempts: Failure budget per task (crashes, injected
            failures, and timeouts all consume it; speculative backups
            do not).
        backoff_base: Delay before the first retry -- simulated seconds
            on the simulator, wall seconds on the multiprocess backend.
        backoff_factor: Multiplier applied per additional failure
            (exponential backoff).
        backoff_max: Cap on any single backoff delay.
        jitter: Fractional +/- randomization of each delay, drawn
            deterministically from the fault plan's seed so reruns
            reproduce.
        speculation: Launch a backup copy of an attempt that has run
            ``speculation_factor`` times its expected duration without
            finishing; the first copy to finish wins and the loser is
            discarded.
        speculation_factor: How patient speculation is, as a multiple of
            the attempt's nominal duration (simulator) or of
            ``straggler_timeout`` (multiprocess).
        straggler_timeout: Wall seconds after which the multiprocess
            executor considers a running attempt a straggler.
        task_timeout: Wall seconds after which the multiprocess executor
            gives up on an attempt entirely and charges a failure;
            ``None`` disables timeouts.
        on_exhaustion: ``"degrade"`` (default) lets the simulator run
            one final clean recovery attempt when the budget is spent --
            the graceful-degradation story -- while ``"raise"`` raises
            :class:`~repro.faults.scheduler.RetriesExhaustedError`
            instead (the multiprocess executor always degrades, by
            falling back to centralized evaluation).
    """

    max_attempts: int = 4
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    speculation: bool = True
    speculation_factor: float = 1.5
    straggler_timeout: float = 2.0
    task_timeout: Optional[float] = None
    on_exhaustion: str = "degrade"

    def __post_init__(self):
        if self.max_attempts < 1:
            raise FaultPlanError("max_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise FaultPlanError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise FaultPlanError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise FaultPlanError("jitter must be in [0, 1)")
        if self.speculation_factor < 1.0:
            raise FaultPlanError("speculation_factor must be >= 1")
        if self.on_exhaustion not in ("degrade", "raise"):
            raise FaultPlanError(
                f"on_exhaustion must be 'degrade' or 'raise', "
                f"not {self.on_exhaustion!r}"
            )

    def backoff(self, failures: int, seed: int = 0, salt: str = "") -> float:
        """Delay before the retry following the *failures*-th failure.

        Exponential in the failure count, capped at ``backoff_max``,
        with deterministic jitter derived from *seed* and *salt*.
        """
        if failures < 1:
            return 0.0
        delay = self.backoff_base * self.backoff_factor ** (failures - 1)
        delay = min(delay, self.backoff_max)
        if self.jitter:
            spread = _rng(seed, "backoff", salt, failures).uniform(
                -self.jitter, self.jitter
            )
            delay *= 1.0 + spread
        return delay


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    Probabilities are evaluated per *(phase, task, attempt)* via the
    seed, so a retried attempt draws a fresh (but reproducible) fate.
    Explicit ``kill_attempts`` / ``fail_attempts`` entries pin specific
    attempts for surgical tests, independent of the probabilities.

    Args:
        seed: Root of every random decision this plan makes.
        machine_crashes: Machines dying at simulated times (simulator
            backend only).
        task_failure_probability: Chance an attempt runs to completion
            and then fails (simulator: charged, then retried;
            multiprocess: the worker raises
            :class:`~repro.faults.inject.InjectedFaultError`).
        worker_kill_probability: Chance an attempt hard-kills its host
            (multiprocess: ``os._exit`` -> ``BrokenProcessPool``;
            simulator: treated like a task failure).
        straggler_probability: Chance an attempt straggles.
        straggler_slowdown: Duration multiplier of a simulated
            straggler.
        straggler_sleep: Wall seconds a multiprocess straggler sleeps
            before doing its work.
        lost_partition_probability: Chance a reducer's shuffle input is
            lost once and must be re-fetched (simulator only; the
            re-fetch charges the shuffle cost a second time).
        kill_attempts: Explicit ``(task, attempt)`` pairs hard-killed in
            the multiprocess backend regardless of probability.
        fail_attempts: Explicit ``(task, attempt)`` pairs that raise an
            injected fault regardless of probability.
    """

    seed: int = 0
    machine_crashes: tuple[MachineCrash, ...] = ()
    task_failure_probability: float = 0.0
    worker_kill_probability: float = 0.0
    straggler_probability: float = 0.0
    straggler_slowdown: float = 6.0
    straggler_sleep: float = 0.0
    lost_partition_probability: float = 0.0
    kill_attempts: tuple[tuple[int, int], ...] = ()
    fail_attempts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for name in (
            "task_failure_probability",
            "worker_kill_probability",
            "straggler_probability",
            "lost_partition_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1], got {value}")
        if self.straggler_slowdown < 1.0:
            raise FaultPlanError("straggler_slowdown must be >= 1")
        if self.straggler_sleep < 0:
            raise FaultPlanError("straggler_sleep must be non-negative")
        # Normalize for serialization round-trips and hashability.
        object.__setattr__(
            self, "machine_crashes", tuple(self.machine_crashes)
        )
        object.__setattr__(
            self,
            "kill_attempts",
            tuple(tuple(pair) for pair in self.kill_attempts),
        )
        object.__setattr__(
            self,
            "fail_attempts",
            tuple(tuple(pair) for pair in self.fail_attempts),
        )

    # -- decisions ---------------------------------------------------------------

    def task_fails(self, phase: str, task: int, attempt: int) -> bool:
        """Whether this attempt fails after running (deterministic)."""
        if (task, attempt) in self.fail_attempts:
            return True
        if self.task_failure_probability <= 0.0:
            return False
        draw = _rng(self.seed, "fail", phase, task, attempt).random()
        return draw < self.task_failure_probability

    def worker_killed(self, phase: str, task: int, attempt: int) -> bool:
        """Whether this attempt hard-kills its worker (deterministic)."""
        if (task, attempt) in self.kill_attempts:
            return True
        if self.worker_kill_probability <= 0.0:
            return False
        draw = _rng(self.seed, "kill", phase, task, attempt).random()
        return draw < self.worker_kill_probability

    def straggler_factor(self, phase: str, task: int, attempt: int) -> float:
        """The attempt's duration multiplier: 1.0 or the slowdown."""
        if self.straggler_probability <= 0.0:
            return 1.0
        draw = _rng(self.seed, "straggle", phase, task, attempt).random()
        if draw < self.straggler_probability:
            return self.straggler_slowdown
        return 1.0

    def partition_lost(self, reducer: int) -> bool:
        """Whether reducer *reducer* loses its shuffle input once."""
        if self.lost_partition_probability <= 0.0:
            return False
        draw = _rng(self.seed, "lost-partition", reducer).random()
        return draw < self.lost_partition_probability

    def crashes_before(self, at: float) -> frozenset[int]:
        """Machines whose crash time is at or before *at*."""
        return frozenset(
            crash.machine
            for crash in self.machine_crashes
            if crash.at <= at
        )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready mapping (recorded in run manifests)."""
        data = dataclasses.asdict(self)
        data["machine_crashes"] = [
            {"machine": crash.machine, "at": crash.at}
            for crash in self.machine_crashes
        ]
        data["kill_attempts"] = [list(pair) for pair in self.kill_attempts]
        data["fail_attempts"] = [list(pair) for pair in self.fail_attempts]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan; inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        kwargs["machine_crashes"] = tuple(
            MachineCrash(entry["machine"], entry["at"])
            for entry in kwargs.get("machine_crashes", ())
        )
        kwargs["kill_attempts"] = tuple(
            tuple(pair) for pair in kwargs.get("kill_attempts", ())
        )
        kwargs["fail_attempts"] = tuple(
            tuple(pair) for pair in kwargs.get("fail_attempts", ())
        )
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in kwargs.items() if k in known})

    # -- generation --------------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        machines: int,
        horizon: float = 60.0,
        intensity: float = 1.0,
    ) -> "FaultPlan":
        """A survivable random chaos plan derived entirely from *seed*.

        Crashes never exceed a third of the cluster (answers must stay
        computable), probabilities stay modest so the default
        :class:`RetryPolicy` budget absorbs them, and *intensity* in
        ``(0, 1]`` scales everything down for smoke tests.

        Args:
            seed: The plan seed; equal seeds give equal plans.
            machines: Size of the cluster the plan targets.
            horizon: Simulated seconds within which crashes land.
            intensity: Scales crash count and probabilities.
        """
        if machines < 1:
            raise FaultPlanError("a chaos plan needs at least one machine")
        if not 0.0 < intensity <= 1.0:
            raise FaultPlanError("intensity must be in (0, 1]")
        rng = _rng(seed, "random-plan", machines)
        max_crashes = max(0, min(machines - 1, machines // 3))
        n_crashes = min(
            max_crashes, int(round(rng.randint(0, 2) * intensity))
        )
        victims = rng.sample(range(machines), n_crashes) if n_crashes else []
        crashes = tuple(
            MachineCrash(machine, rng.uniform(0.0, horizon))
            for machine in sorted(victims)
        )
        return cls(
            seed=seed,
            machine_crashes=crashes,
            task_failure_probability=rng.uniform(0.0, 0.2) * intensity,
            straggler_probability=rng.uniform(0.0, 0.15) * intensity,
            straggler_slowdown=rng.uniform(3.0, 8.0),
            lost_partition_probability=rng.uniform(0.0, 0.1) * intensity,
        )

    def describe(self) -> str:
        """One line for logs and CLI output."""
        parts = [f"seed={self.seed}"]
        if self.machine_crashes:
            crashes = ", ".join(
                f"m{crash.machine}@{crash.at:.1f}s"
                for crash in self.machine_crashes
            )
            parts.append(f"crashes=[{crashes}]")
        if self.task_failure_probability:
            parts.append(f"p_fail={self.task_failure_probability:.3f}")
        if self.worker_kill_probability:
            parts.append(f"p_kill={self.worker_kill_probability:.3f}")
        if self.straggler_probability:
            parts.append(
                f"p_straggle={self.straggler_probability:.3f}"
                f"x{self.straggler_slowdown:.1f}"
            )
        if self.lost_partition_probability:
            parts.append(f"p_lost={self.lost_partition_probability:.3f}")
        if self.kill_attempts:
            parts.append(f"kill_attempts={list(self.kill_attempts)}")
        if self.fail_attempts:
            parts.append(f"fail_attempts={list(self.fail_attempts)}")
        return f"FaultPlan({', '.join(parts)})"


def validate_plan_for_cluster(
    plan: FaultPlan, machines: int, already_failed: Iterable[int] = ()
) -> None:
    """Reject plans that reference machines outside the cluster or would
    kill every machine (an unanswerable evaluation)."""
    for crash in plan.machine_crashes:
        if not 0 <= crash.machine < machines:
            raise FaultPlanError(
                f"crash targets machine {crash.machine} but the cluster "
                f"has machines 0..{machines - 1}"
            )
    doomed = {crash.machine for crash in plan.machine_crashes}
    doomed.update(already_failed)
    if len(doomed) >= machines:
        raise FaultPlanError(
            "plan (plus already-failed machines) would kill all "
            f"{machines} machines; no schedule can survive that"
        )
