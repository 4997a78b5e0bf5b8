"""The five inertia classes of attestable information (paper Fig. 4).

"Inertia refers to the level of variability of attestable information
across time: at one extreme, the model number of the hardware will not
change, at the other extreme, a packet might be completely different
than those that came before it. High-inertia attestations are more
easily cached since they take longer to expire."

:class:`InertiaClass` itself is defined in :mod:`repro.evidence.nodes`,
beside the hop-record measurement field whose class code it is; this
module holds the default TTLs, which encode exactly that gradient. They
are configuration, not physics, and every benchmark that sweeps the
design space (E5) overrides them.
"""

from __future__ import annotations

from typing import Dict

from repro.evidence.nodes import InertiaClass

#: Default evidence lifetimes in (simulated) seconds per class.
DEFAULT_TTLS: Dict[InertiaClass, float] = {
    InertiaClass.HARDWARE: 3600.0,
    InertiaClass.PROGRAM: 60.0,
    InertiaClass.TABLES: 1.0,
    InertiaClass.PROG_STATE: 0.01,
    InertiaClass.PACKETS: 0.0,
}
