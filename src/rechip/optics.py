"""Generic multimode linear optics: netlists, transfer matrices, two-photon evolution.

Conventions
-----------
A directional coupler with splitting ratio ``eta`` (the cross-coupled power
fraction) acts on its mode pair as::

    [ sqrt(1 - eta)   i sqrt(eta)   ]
    [ i sqrt(eta)     sqrt(1 - eta) ]

so ``eta = 1/2`` is the Hadamard-like gate of the chip.  A phase shifter
multiplies one mode by ``exp(i phi)``.  Netlist elements are listed in
input-to-output order; ``compose`` returns the transfer matrix acting on
column vectors of mode amplitudes.

Fock states are occupation tuples, one entry per mode.  Only one- and
two-photon states are needed: single photons evolve as matrix columns, and
the two-photon operations below enumerate the dense set of m(m+1)/2 output
patterns.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels


@dataclass(frozen=True)
class Coupler:
    """Directional coupler between modes i and j with cross power eta."""

    i: int
    j: int
    eta: float

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("coupler modes must differ")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class Phase:
    """Phase shifter on mode i, in radians."""

    i: int
    phi: float


@dataclass(frozen=True)
class Netlist:
    """Ordered elements over a fixed number of waveguide modes."""

    modes: int
    elements: tuple

    def __post_init__(self):
        for e in self.elements:
            idx = (e.i, e.j) if isinstance(e, Coupler) else (e.i,)
            for m in idx:
                if not 0 <= m < self.modes:
                    raise ValueError(f"element {e} references mode outside 0..{self.modes - 1}")


def element_matrix(e, modes):
    """modes x modes unitary of a single element."""
    u = np.eye(modes, dtype=complex)
    if isinstance(e, Coupler):
        t = np.sqrt(1.0 - e.eta)
        r = 1j * np.sqrt(e.eta)
        u[e.i, e.i] = t
        u[e.j, e.j] = t
        u[e.i, e.j] = r
        u[e.j, e.i] = r
    elif isinstance(e, Phase):
        u[e.i, e.i] = np.exp(1j * e.phi)
    else:
        raise TypeError(f"unknown element type {type(e)!r}")
    return u


def compose(netlist):
    """Transfer matrix of the whole netlist (identity for an empty one).

    Phase values may be arrays of one shape, say (N,): the netlist then
    stands for N configurations of one layout, and the result is the
    (N, modes, modes) stack, each element applied once across the batch.
    """
    m = netlist.modes
    arrays = [e.phi for e in netlist.elements if isinstance(e, Phase) and isinstance(e.phi, np.ndarray)]
    batch = arrays[0].shape if arrays else ()
    # w[i] holds row i of every matrix in the batch; rows[i] is it flattened
    w = np.zeros((m,) + batch + (m,), dtype=complex)
    w[np.arange(m), ..., np.arange(m)] = 1.0
    rows = w.reshape(m, -1)
    for e in netlist.elements:
        if isinstance(e, Coupler):
            t = np.sqrt(1.0 - e.eta)
            r = 1j * np.sqrt(e.eta)
            ri, rj = rows[e.i], rows[e.j]
            rows[e.i], rows[e.j] = t * ri + r * rj, r * ri + t * rj
        else:
            w[e.i] = w[e.i] * np.exp(1j * np.asarray(e.phi))[..., None]
    return np.moveaxis(w, 0, -2)


@lru_cache(maxsize=8)
def two_photon_pairs(modes):
    """All two-photon patterns as ordered mode pairs (i <= j): the arrays of first and second modes."""
    return np.triu_indices(modes)


def pattern_of_pair(i, j, modes):
    """Occupation tuple for photons in modes i and j."""
    occ = [0] * modes
    occ[i] += 1
    occ[j] += 1
    return tuple(occ)


def pair_of_pattern(state):
    """Ordered occupied-mode pair (i <= j) of a two-photon occupation tuple."""
    modes = [m for m, n in enumerate(state) for _ in range(n)]
    if len(modes) != 2 or any(n < 0 for n in state):
        raise ValueError(f"expected a two-photon occupation pattern, got {state}")
    return modes[0], modes[1]


def two_photon_amplitude(u, input_state, output_state):
    """Bosonic transition amplitude between two-photon occupation patterns.

    The amplitude is the permanent of the 2x2 submatrix picked out by the
    occupied output rows and input columns (repeated for double occupancy),
    divided by sqrt(prod n_in! * prod n_out!).
    """
    u = np.asarray(u, dtype=complex)
    a, b = pair_of_pattern(input_state)
    i, j = pair_of_pattern(output_state)
    return complex(kernels.two_photon_amps(u, a, b, np.array([i]), np.array([j]))[0])


def two_photon_distribution(u, input_state):
    """Probabilities over every two-photon output pattern (sums to 1)."""
    u = np.asarray(u, dtype=complex)
    a, b = pair_of_pattern(input_state)
    out_i, out_j = two_photon_pairs(u.shape[0])
    amps = kernels.two_photon_amps(u, a, b, out_i, out_j)
    probs = np.abs(amps) ** 2
    modes = u.shape[0]
    return {
        pattern_of_pair(i, j, modes): float(p)
        for i, j, p in zip(out_i, out_j, probs)
    }


def distinguishable_distribution(u, input_state):
    """Output probabilities for two classical (distinguishable) photons.

    Each photon is routed independently with probabilities |u_ij|^2 and the
    outcomes are accumulated by occupation pattern.
    """
    u = np.asarray(u, dtype=complex)
    a, b = pair_of_pattern(input_state)
    pu = np.abs(u) ** 2
    out_i, out_j = two_photon_pairs(u.shape[0])
    probs = kernels.distinguishable_probs(pu, a, b, out_i, out_j)
    modes = u.shape[0]
    return {
        pattern_of_pair(i, j, modes): float(p)
        for i, j, p in zip(out_i, out_j, probs)
    }


def postselect(dist, accepted):
    """Condition a pattern distribution on an accepted set.

    Returns (renormalised distribution, success probability).  Zero success
    is flagged by an empty distribution, not an error.
    """
    accepted = set(accepted)
    if not accepted:
        raise ValueError("accepted set must be non-empty")
    success = sum(p for s, p in dist.items() if s in accepted)
    if success <= 0.0:
        return {}, 0.0
    return {s: p / success for s, p in dist.items() if s in accepted}, float(success)


# --- serialization ---------------------------------------------------------

def netlist_to_json(netlist):
    """JSON text for a netlist: {"modes": m, "elements": [...]}."""
    items = []
    for e in netlist.elements:
        if isinstance(e, Coupler):
            items.append({"type": "coupler", "i": e.i, "j": e.j, "eta": e.eta})
        else:
            items.append({"type": "phase", "i": e.i, "phi": e.phi})
    return json.dumps({"modes": netlist.modes, "elements": items}, sort_keys=True)


def netlist_from_json(text):
    """Parse the netlist JSON schema produced by :func:`netlist_to_json`."""
    doc = json.loads(text)
    elements = []
    for item in doc["elements"]:
        if item["type"] == "coupler":
            elements.append(Coupler(int(item["i"]), int(item["j"]), float(item["eta"])))
        elif item["type"] == "phase":
            elements.append(Phase(int(item["i"]), float(item["phi"])))
        else:
            raise ValueError(f"unknown element type {item['type']!r}")
    return Netlist(modes=int(doc["modes"]), elements=tuple(elements))
