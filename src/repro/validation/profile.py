"""What Tables 4 and 5 read from one device cohort of one trace.

Every breakdown row and per-UE CDF of a (trace, device type) cohort
derives from four summaries: its event counts under the eight breakdown
rows (event types plus the Category-2 ``HO``/``TAU`` split by state),
its per-UE ``SRV_REQ`` / ``S1_CONN_REL`` counts and its complete
top-level sojourns.  A :class:`CohortProfile` holds exactly those, so a
cohort compared against several others — the real trace against every
method of the §8 harness — is filtered, replayed and classified once.
Build one with :func:`repro.validation.microscopic.cohort_profile`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..trace.events import DeviceType


@dataclasses.dataclass(frozen=True)
class CohortProfile:
    """Validation summaries of one device cohort (see module doc)."""

    device_type: DeviceType
    #: Events in the cohort.
    num_events: int
    #: UEs with at least one event.
    num_ues: int
    #: Event counts keyed by :data:`~repro.validation.BREAKDOWN_ROWS`.
    row_counts: Dict[str, int]
    #: Sorted per-UE counts (float64, one per present UE) keyed by
    #: ``"SRV_REQ"`` / ``"S1_CONN_REL"``.
    ue_counts: Dict[str, np.ndarray]
    #: Complete top-level sojourn durations by state.
    sojourns: Dict[str, np.ndarray]

    def check_device(self, device_type: DeviceType) -> "CohortProfile":
        """This profile, if it describes ``device_type``; else ``ValueError``."""
        if self.device_type != device_type:
            raise ValueError(
                f"profile of {self.device_type.name} used for {device_type.name}"
            )
        return self

    def padded_counts(self, quantity: str, num_ues: Optional[int] = None) -> np.ndarray:
        """Sorted per-UE counts of ``quantity``, zero-padded to ``num_ues``."""
        return pad_counts(self.ue_counts[quantity], num_ues)


def pad_counts(sorted_counts: np.ndarray, num_ues: Optional[int]) -> np.ndarray:
    """Prepend the zero counts of UEs absent from the trace.

    ``sorted_counts`` holds one non-negative count per present UE in
    ascending order, so the zeros of the ``num_ues - present`` invisible
    UEs sort first.
    """
    present = len(sorted_counts)
    if num_ues is None:
        return sorted_counts
    if num_ues < present:
        raise ValueError(
            f"num_ues={num_ues} smaller than UEs present ({present})"
        )
    return np.concatenate([np.zeros(num_ues - present), sorted_counts])
