"""Per-user pseudonyms for switches and programs.

Paper footnotes 1 and 2: "Instead of revealing their actual serial
number, switches could be assigned a per-user pseudonym by the
operator" and "Programs can also be assigned pseudonyms that can be
lifted by an auditor's request or court order."

The :class:`PseudonymAuthority` (run by the network operator) derives
stable, per-user pseudonyms with a keyed hash so that (a) the same user
always sees the same pseudonym for the same device — evidence remains
linkable across attestations — while (b) different users cannot
correlate their views, and (c) only the authority can *lift* a
pseudonym back to the real identity.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Tuple

from repro.util.errors import CryptoError


class PseudonymAuthority:
    """Operator-held authority that mints and lifts pseudonyms."""

    def __init__(self, operator_secret: bytes) -> None:
        if len(operator_secret) < 16:
            raise CryptoError(
                "operator secret must be at least 16 bytes "
                f"(got {len(operator_secret)})"
            )
        self._secret = bytes(operator_secret)
        # (user, pseudonym) -> real identity, for auditor lift requests.
        self._lift_table: Dict[Tuple[str, str], str] = {}

    def pseudonym_for(self, user: str, real_identity: str) -> str:
        """Return ``user``'s stable pseudonym for ``real_identity``."""
        mac = hmac.new(
            self._secret,
            f"{len(user)}:{user}|{real_identity}".encode("utf-8"),
            hashlib.sha256,
        ).hexdigest()[:16]
        pseudonym = f"pseu-{mac}"
        self._lift_table[(user, pseudonym)] = real_identity
        return pseudonym

    def lift(self, user: str, pseudonym: str, warrant: str) -> str:
        """Reveal the real identity behind a pseudonym.

        ``warrant`` is the auditor's justification (court order id);
        it must be non-empty — the authority logs it with the lift.
        """
        if not warrant:
            raise CryptoError("a pseudonym lift requires a non-empty warrant")
        real = self._lift_table.get((user, pseudonym))
        if real is None:
            raise CryptoError(
                f"unknown pseudonym {pseudonym!r} for user {user!r}"
            )
        return real
