"""Error-protection schemes and their reactions to multi-bit faults.

A *protection domain* is a region of data covered by one element of a
protection scheme (one parity bit, one ECC word, one CRC word).  When a
spatial multi-bit fault overlaps a domain, the *overlapped region* is the set
of faulty bits that land in that domain; the scheme's *reaction* depends only
on how many faulty bits the domain sees (Sec. V-A of the paper).

The mapping from (reaction, region ACEness) to a fault outcome implements
the classification rules of Sec. V-B and VII-B:

====================  ==========  ============  =======
reaction              region ACE  region        region
                                  READ_DEAD     UNACE
====================  ==========  ============  =======
``CORRECTED``         unACE       unACE         unACE
``DETECTED``          true DUE    false DUE     unACE
``UNDETECTED``        SDC         unACE         unACE
``MISCORRECTED``      SDC         unACE         unACE
====================  ==========  ============  =======
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

from .intervals import Outcome

__all__ = [
    "Reaction",
    "ProtectionScheme",
    "NoProtection",
    "Parity",
    "SecDed",
    "DecTed",
    "Crc",
    "reaction_kind",
    "OUTCOME_TABLE",
    "SCHEMES",
]


class Reaction(Enum):
    """How a protection domain responds to ``n`` faulty bits at read time."""

    NO_FAULT = "no_fault"
    CORRECTED = "corrected"
    DETECTED = "detected"
    UNDETECTED = "undetected"
    MISCORRECTED = "miscorrected"


def _hamming_check_bits(data_bits: int) -> int:
    """Check bits for a SEC Hamming code extended to SEC-DED (+1 parity)."""
    r = 0
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r + 1


@dataclass(frozen=True)
class ProtectionScheme:
    """Base class for protection schemes.

    Subclasses define :meth:`react` (the reaction to ``n`` simultaneous bit
    faults inside one domain) and :meth:`check_bits` (storage overhead).
    """

    def react(self, n_faulty_bits: int) -> Reaction:
        raise NotImplementedError

    def check_bits(self, data_bits: int) -> int:
        raise NotImplementedError

    def area_overhead(self, data_bits: int) -> float:
        """Check-bit storage overhead as a fraction of the data bits."""
        return self.check_bits(data_bits) / data_bits

    @property
    def name(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class NoProtection(ProtectionScheme):
    """Unprotected storage: every fault is silently consumed."""

    def react(self, n_faulty_bits: int) -> Reaction:
        return Reaction.NO_FAULT if n_faulty_bits == 0 else Reaction.UNDETECTED

    def check_bits(self, data_bits: int) -> int:
        return 0

    @property
    def name(self) -> str:
        return "none"


@dataclass(frozen=True)
class Parity(ProtectionScheme):
    """Single parity bit per domain: detects every odd-weight fault.

    Even-weight faults cancel in the parity sum and pass undetected.  This is
    the property behind the paper's Sec. VIII finding that parity can *beat*
    ECC for detection of large fault modes: parity detects any odd overlapped
    region, while SEC-DED is blind beyond 2 bits.
    """

    def react(self, n_faulty_bits: int) -> Reaction:
        if n_faulty_bits == 0:
            return Reaction.NO_FAULT
        return Reaction.DETECTED if n_faulty_bits % 2 == 1 else Reaction.UNDETECTED

    def check_bits(self, data_bits: int) -> int:
        return 1

    @property
    def name(self) -> str:
        return "parity"


@dataclass(frozen=True)
class SecDed(ProtectionScheme):
    """Single-error-correct, double-error-detect ECC (extended Hamming).

    Corrects 1 bit, detects 2.  Three or more faulty bits alias onto a valid
    or single-error syndrome: the decoder either misses the error or
    "corrects" a healthy bit (miscorrection), so the reaction is
    :attr:`Reaction.MISCORRECTED`.
    """

    def react(self, n_faulty_bits: int) -> Reaction:
        if n_faulty_bits == 0:
            return Reaction.NO_FAULT
        if n_faulty_bits == 1:
            return Reaction.CORRECTED
        if n_faulty_bits == 2:
            return Reaction.DETECTED
        return Reaction.MISCORRECTED

    def check_bits(self, data_bits: int) -> int:
        return _hamming_check_bits(data_bits)

    @property
    def name(self) -> str:
        return "secded"


@dataclass(frozen=True)
class DecTed(ProtectionScheme):
    """Double-error-correct, triple-error-detect BCH-style ECC."""

    def react(self, n_faulty_bits: int) -> Reaction:
        if n_faulty_bits == 0:
            return Reaction.NO_FAULT
        if n_faulty_bits <= 2:
            return Reaction.CORRECTED
        if n_faulty_bits == 3:
            return Reaction.DETECTED
        return Reaction.MISCORRECTED

    def check_bits(self, data_bits: int) -> int:
        # A binary 2-error-correcting BCH code needs 2*m parity symbols with
        # 2**m >= data_bits + check_bits + 1, plus one overall parity bit for
        # triple-error detection.  For 128 data bits this gives 17 check bits
        # (the 13% overhead quoted in the paper's introduction).
        m = 1
        while (1 << m) < data_bits + 2 * m + 2:
            m += 1
        return 2 * m + 1

    @property
    def name(self) -> str:
        return "dected"


@dataclass(frozen=True)
class Crc(ProtectionScheme):
    """Cyclic redundancy check: detection only, strong against bursts.

    A CRC with ``r`` check bits detects any burst of length <= ``r`` and, if
    its generator polynomial contains the factor (x + 1), any odd-weight
    error.  It corrects nothing; every detection is a DUE.
    """

    r: int = 8
    detects_odd: bool = True

    def react(self, n_faulty_bits: int) -> Reaction:
        if n_faulty_bits == 0:
            return Reaction.NO_FAULT
        if n_faulty_bits <= self.r:
            return Reaction.DETECTED
        if self.detects_odd and n_faulty_bits % 2 == 1:
            return Reaction.DETECTED
        return Reaction.UNDETECTED

    def check_bits(self, data_bits: int) -> int:
        return self.r

    @property
    def name(self) -> str:
        return f"crc{self.r}"


#: Registry of the schemes used throughout the paper's evaluation.
SCHEMES: Dict[str, ProtectionScheme] = {
    "none": NoProtection(),
    "parity": Parity(),
    "secded": SecDed(),
    "dected": DecTed(),
    "crc8": Crc(8),
}


#: Reaction kinds, the rows of :data:`OUTCOME_TABLE`.  Every reaction a
#: scheme can produce classifies a region like exactly one of these.
KIND_NONE, KIND_DETECTED, KIND_UNDETECTED = range(3)

#: ``OUTCOME_TABLE[kind][ace_class]`` is the :class:`Outcome` of a region
#: whose reaction has kind ``kind`` at an instant its ACE union has class
#: ``ace_class`` (the table in this module's docstring).  Each row is
#: non-decreasing in the ACE class.
OUTCOME_TABLE: Tuple[Tuple[int, int, int], ...] = (
    (0, 0, 0),
    (0, int(Outcome.FALSE_DUE), int(Outcome.TRUE_DUE)),
    (0, 0, int(Outcome.SDC)),
)


def reaction_kind(reaction: Reaction) -> int:
    """The :data:`OUTCOME_TABLE` row that classifies ``reaction``."""
    if reaction in (Reaction.NO_FAULT, Reaction.CORRECTED):
        return KIND_NONE
    if reaction is Reaction.DETECTED:
        return KIND_DETECTED
    # UNDETECTED, or MISCORRECTED: silent corruption of live data
    return KIND_UNDETECTED
