"""Response vocabulary of the high-level system.

The threat model (paper section 4) has the system return a *failure* for
both non-present keys and keys the user may not read.  Whether those two
failures are distinguishable to the client decides how far prefix siphoning
can go: distinguishable responses enable full-key extraction (step 3);
indistinguishable ones still leak prefixes (section 5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional


class Status(enum.Enum):
    """Client-visible outcome of a request."""

    OK = "ok"
    NOT_FOUND = "not_found"
    UNAUTHORIZED = "unauthorized"
    #: Generic failure used when the system hides the failure cause
    #: (``distinguish_unauthorized=False``).
    FAILED = "failed"


@dataclass(frozen=True)
class Response:
    """One request's outcome plus the payload when authorized."""

    status: Status
    value: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        """Whether the request succeeded."""
        return self.status is Status.OK


#: Statuses that disclose a stored key: the attack's step 3 stops at the
#: first one.  (A hidden failure, ``FAILED``, discloses nothing.)  A
#: tuple: membership tests identity first, a set would hash the enum.
DISCLOSING = (Status.UNAUTHORIZED, Status.OK)


def discloses(response: Response) -> bool:
    """Whether ``response`` reveals that its key is stored."""
    return response.status in DISCLOSING


def until_found(get_one: Callable[[bytes], Response],
                keys: Iterable[bytes]) -> List[Response]:
    """``get_one`` over ``keys`` in order, up to and including the first
    response that :func:`discloses`; later keys are never issued."""
    out: List[Response] = []
    for key in keys:
        response = get_one(key)
        out.append(response)
        if response.status in DISCLOSING:
            break
    return out
