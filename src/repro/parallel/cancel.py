"""Cooperative cancellation for in-flight evaluations.

The serving daemon gives every admitted query a deadline; once a share
group's last deadline passes (or the client abandons the request) the
work still grinding through map/shuffle/reduce is pure waste.  Python
threads cannot be killed, so cancellation is cooperative: the daemon
hands the evaluator a :class:`CancellationToken` and the evaluator
checks it at natural yield points -- before planning, per map task,
per reduce task and component, per poll of the multiprocess gather loop.

A token trips for one of two reasons:

* someone called :meth:`CancellationToken.cancel` (drain, client gone);
* its *deadline* (seconds, on the token's monotonic-style clock)
  passed.

Either way the next :meth:`check` raises
:class:`DeadlineExceededError`, unwinding the evaluation.  Tokens are
cheap one-shot objects; share one per share group, never reuse across
dispatches.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["CancellationToken", "DeadlineExceededError"]


class DeadlineExceededError(RuntimeError):
    """An evaluation was cancelled or ran past its deadline."""


class CancellationToken:
    """One-shot cooperative cancellation flag with an optional deadline.

    *deadline* is an absolute time on *clock* (defaults to
    :func:`time.monotonic`); ``None`` means the token only trips when
    :meth:`cancel` is called.  The token is thread-safe by virtue of
    only ever flipping one boolean in one direction.
    """

    __slots__ = ("deadline", "_clock", "_cancelled", "_reason")

    def __init__(
        self,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.deadline = deadline
        self._clock = clock
        self._cancelled = False
        self._reason = ""

    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "CancellationToken":
        """A token whose deadline is *seconds* from now (``None``: never)."""
        deadline = None if seconds is None else clock() + seconds
        return cls(deadline=deadline, clock=clock)

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token explicitly; idempotent."""
        if not self._cancelled:
            self._reason = reason
            self._cancelled = True

    @property
    def expired(self) -> bool:
        """Whether the token has tripped (cancel or deadline)."""
        if self._cancelled:
            return True
        if self.deadline is not None and self._clock() >= self.deadline:
            self._cancelled = True
            self._reason = "deadline exceeded"
            return True
        return False

    @property
    def reason(self) -> str:
        return self._reason

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline, floored at 0 (``None``: no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if the token has tripped."""
        if self.expired:
            raise DeadlineExceededError(self._reason or "deadline exceeded")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "tripped" if self.expired else "live"
        return f"CancellationToken({state}, deadline={self.deadline})"
