"""NUMA shared-memory model.

On the Butterfly Plus (a NUMA machine), references to remote memory cross
the switch and contend with other traffic; the paper notes this made the
*placement* of file-system structures matter and motivated replicating data
structures to cut remote references (Section V-D).

We model the I/O subsystem's memory behaviour with a single shared
:class:`MemorySystem`:

* callers bracket their time inside the I/O subsystem with
  :meth:`enter`/:meth:`exit`, which maintains the count of concurrently
  active processors;
* :meth:`reference_time` prices a burst of references, inflating remote
  costs with the number of *other* active processors — so I/O-bound runs
  (everyone in the subsystem at once) see 3–5x slower shared-structure
  operations than balanced runs, which is exactly the mechanism behind the
  paper's observation that prefetch actions shrink from 22 ms to 5 ms as
  computation is added (Section V-C).

The model also supports the paper's "naive" (pre-optimization) layout where
structures are *not* replicated: every reference is remote.  The optimized
layout (default) does most references locally with occasional remote ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.monitor import TimeWeighted
from .costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = ["MemorySystem"]


class MemorySystem:
    """Shared-memory reference cost model with explicit contention.

    Parameters
    ----------
    env:
        Simulation environment.
    costs:
        Latency constants.
    replicated_structures:
        ``True`` (default) models the paper's optimized implementation with
        replicated data structures and cached local pointers; ``False``
        models the initial naive implementation where every file-system
        reference crosses the switch.
    """

    def __init__(
        self,
        env: "Environment",
        costs: CostModel,
        replicated_structures: bool = True,
    ) -> None:
        self.env = env
        self.costs = costs
        self.replicated_structures = replicated_structures
        self._active = 0
        #: Time-weighted number of processors inside the I/O subsystem.
        self.active_series = TimeWeighted(env, 0.0)

    @property
    def active(self) -> int:
        """Processors currently active inside the I/O subsystem."""
        return self._active

    def enter(self) -> None:
        """Note that a processor started I/O-subsystem work."""
        active = self._active + 1
        self._active = active
        self.active_series.set(active)

    def exit(self) -> None:
        """Note that a processor finished I/O-subsystem work."""
        active = self._active - 1
        if active < 0:
            raise RuntimeError("MemorySystem.exit() without matching enter()")
        self._active = active
        self.active_series.set(active)

    def reference_time(self, local_refs: int = 0, remote_refs: int = 0) -> float:
        """Cost of a burst of ``local_refs`` local and ``remote_refs``
        remote reference groups at current contention.

        With non-replicated structures, local references are charged at the
        remote rate (the naive layout keeps everything on one node).
        """
        if local_refs < 0 or remote_refs < 0:
            raise ValueError("reference counts must be non-negative")
        others = max(0, self._active - 1)
        remote_cost = self.costs.remote_ref(others)
        if not self.replicated_structures:
            return (local_refs + remote_refs) * remote_cost
        return local_refs * self.costs.local_ref_time + remote_refs * remote_cost

    def contention_multiplier(self) -> float:
        """Current inflation factor on remote references (1.0 = idle)."""
        others = max(0, self._active - 1)
        return 1.0 + self.costs.contention_factor * others

    def structure_multiplier(self) -> float:
        """Penalty on structure-walking compute (hash probes, buffer-table
        updates, candidate selection).

        In the optimized layout those walks run against replicated,
        node-local copies (1.0).  In the naive layout every step chases
        pointers through remote memory, so the whole walk slows by the
        remote/local reference ratio, further inflated by switch
        contention — the paper's "initial implementation" whose
        prefetching overhead was "very high" (Section V-D).
        """
        if self.replicated_structures:
            return 1.0
        ratio = self.costs.remote_ref_time / max(
            self.costs.local_ref_time, 1e-9
        )
        return ratio * self.contention_multiplier()
