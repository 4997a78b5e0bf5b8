"""Remote attestation for programmable dataplanes.

A full reproduction of "A Case for Remote Attestation in Programmable
Dataplanes" (Sultana, Shands, Yegneswaran — HotNets '22): the Copland
RA policy language, a NetKAT core, the network-aware Copland hybrid,
and PERA — a PISA switch extended with remote attestation — all running
over a deterministic simulated network.

Subpackages (bottom-up):

- :mod:`repro.util`    — TLV codec, checksum, ids, simulated clock.
- :mod:`repro.crypto`  — root of trust: SHA-256, Ed25519, Merkle, pseudonyms.
- :mod:`repro.net`     — packets, topologies, discrete-event simulator.
- :mod:`repro.pisa`    — programmable parser + match-action pipeline + runtime.
- :mod:`repro.netkat`  — NetKAT language and reachability.
- :mod:`repro.copland` — Copland language, VM, adversary analysis.
- :mod:`repro.ra`      — RATS principals: claims, nonces, appraiser, Fig. 2 protocols.
- :mod:`repro.pera`    — PISA Extended with RA (the paper's Fig. 3 switch).
- :mod:`repro.core`    — network-aware Copland: the paper's contribution.
- :mod:`repro.analysis`— automated trust analysis of policies.
- :mod:`repro.faults`  — deterministic fault injection + retry/fail-mode vocabulary.
"""

__version__ = "0.1.0"
