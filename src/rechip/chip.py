"""The six-waveguide two-qubit device: phases, gate algebra, netlist, cross-checks.

Layout
------
Modes 0..5 carry (top to bottom): an ancilla, qubit A's rails, qubit B's
rails, and a second ancilla.  The first rail of each pair is logical |0>.
Each qubit passes through a preparation Mach-Zehnder (two eta=1/2 couplers
around an internal phase) plus an external phase, then the postselected
CNOT core, then a mirror-image measurement stage.  Outcomes are read as
coincidences with one photon in each qubit's rail pair and empty ancillas.

Phase indices: odd phases (phi1, phi3, phi5, phi7) are the MZ-internal
(sigma_y-type) angles, even phases (phi2, phi4, phi6, phi8) the external
sigma_z-type ones; (phi1, phi2) drive qubit A's preparation, (phi3, phi4)
qubit B's, (phi5, phi6) / (phi7, phi8) the respective measurement stages.

The gate-level model is

    [u_prep(phi5, phi6)† (x) u_prep(phi7, phi8)†] . U_CNOT .
    [u_prep(phi1, phi2) (x) u_prep(phi3, phi4)]

and the waveguide netlist reproduces its conditional coincidence statistics
exactly (up to float roundoff), with postselection success 1/9 for every
configuration.

Batches
-------
The device model evaluates many configurations as one array program.  Every
function taking a ``config`` accepts either a :class:`PhaseConfig` or an
(N, 8) array of phases (a batch, wrapped into [0, 2*pi) like a PhaseConfig).
A PhaseConfig is the batch of one and gets single results: a 4x4 unitary,
float-valued :class:`CoincidenceProbs`.  A batch gets stacked results: (N, 4,
4) unitaries, CoincidenceProbs with (N,) arrays as fields.  Each row of a
batch result is bit-identical to the single call on that row.

Netlist conventions that make the two models coincide (chosen once, then
validated end to end by :func:`verify_cnot` and the cross-model tests):

* The three couplers marked 1/3 in the physical layout keep one third of
  the power on the logical path, so with eta defined as the cross-coupled
  fraction they are ``Coupler(eta=2/3)`` here.
* MZ internal phases sit on the upper arm; the preparation external phase
  sits on the upper rail, the measurement external phase on the lower rail.
* Two fixed 3*pi/2 phases on mode 3, immediately before and after the core,
  absorb the coupler phase convention so the postselected map is exactly
  U_CNOT at zero settings (not merely locally equivalent).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import align_global_phase, tensor
from .optics import Coupler, Netlist, Phase, compose
from . import kernels

TWO_PI = 2.0 * np.pi

ANCILLA_MODES = (0, 5)
QUBIT_A_RAILS = (1, 2)
QUBIT_B_RAILS = (3, 4)
MODES = 6

# eta of the couplers marked "1/3": cross power 2/3 keeps amplitude 1/sqrt(3)
CORE_ETA = 2.0 / 3.0

BASIS_LABELS = ("00", "01", "10", "11")


def wrap_phases(phis):
    """Phases wrapped elementwise into [0, 2*pi)."""
    v = np.mod(np.asarray(phis, dtype=float), TWO_PI)
    # x % 2*pi can round up to exactly 2*pi for tiny negative x
    return np.where(v >= TWO_PI, 0.0, v)


@dataclass(frozen=True)
class PhaseConfig:
    """The eight on-chip phases, wrapped into [0, 2*pi) on construction."""

    phis: tuple

    def __init__(self, phis):
        arr = tuple(float(p) for p in wrap_phases(list(phis)))
        if len(arr) != 8:
            raise ValueError(f"expected 8 phases, got {len(arr)}")
        object.__setattr__(self, "phis", arr)

    @classmethod
    def zeros(cls):
        return cls((0.0,) * 8)


def phase_batch(config):
    """(N, 8) array of wrapped phases; a PhaseConfig is the batch of one."""
    if isinstance(config, PhaseConfig):
        return np.asarray(config.phis)[None, :]
    phis = np.asarray(config, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != 8:
        raise ValueError(f"expected a PhaseConfig or an (N, 8) phase array, got shape {phis.shape}")
    return wrap_phases(phis)


@dataclass(frozen=True)
class CoincidenceProbs:
    """Conditional coincidence probabilities plus the postselection success.

    Fields are floats for one configuration, (N,) arrays for a batch.
    """

    p00: float
    p01: float
    p10: float
    p11: float
    success: float = 1.0

    def as_array(self):
        """(4,) probabilities, or (N, 4) for a batch."""
        return np.stack([self.p00, self.p01, self.p10, self.p11], axis=-1)

    @classmethod
    def from_array(cls, p, success=1.0):
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            return cls(float(p[0]), float(p[1]), float(p[2]), float(p[3]), float(success))
        return cls(p[:, 0], p[:, 1], p[:, 2], p[:, 3], np.broadcast_to(success, p.shape[:1]))


def _batch_result(config, probs, success):
    """CoincidenceProbs over a batch; the single row for a PhaseConfig."""
    if isinstance(config, PhaseConfig):
        return CoincidenceProbs.from_array(probs[0], success[0])
    return CoincidenceProbs.from_array(probs, success)


def h_prime():
    """The Hadamard-like 2x2 gate of the chip: (1/sqrt 2) [[1, i], [i, 1]].

    Equals an eta=1/2 directional coupler; its square is i*X.
    """
    return np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def u_prep(phi_y, phi_z):
    """Preparation rotation exp(-i phi_z sigma_z / 2) exp(-i phi_y sigma_y / 2).

    The measurement stage applies its conjugate transpose.  Array angles of
    shape (N,) give the (N, 2, 2) stack.
    """
    half = np.asarray(phi_y) / 2.0
    c, s = np.cos(half), np.sin(half)
    ry = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2).astype(complex)
    rz = np.zeros_like(ry)
    rz[..., 0, 0] = np.exp(-0.5j * np.asarray(phi_z))
    rz[..., 1, 1] = np.exp(0.5j * np.asarray(phi_z))
    return rz @ ry


def _dagger(u):
    return u.conj().swapaxes(-1, -2)


def u_cnot():
    """CNOT with qubit A as control, basis order 00, 01, 10, 11."""
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


def two_qubit_unitary(config):
    """Gate-level 4x4 unitary of the full circuit at the given phases (N x 4 x 4 for a batch)."""
    p = phase_batch(config).T
    ui = tensor(u_prep(p[0], p[1]), u_prep(p[2], p[3]))
    uf = tensor(_dagger(u_prep(p[4], p[5])), _dagger(u_prep(p[6], p[7])))
    u = uf @ u_cnot() @ ui
    return u[0] if isinstance(config, PhaseConfig) else u


def default_netlist(config):
    """The six-mode waveguide netlist at the given phase configuration.

    The element layout is constant; only the eight variable phase values
    change between configurations.  For a batch each phase value is the
    (N,) array of that phase over the batch.
    """
    p = config.phis if isinstance(config, PhaseConfig) else phase_batch(config).T
    half = 0.5
    a0, a1 = QUBIT_A_RAILS
    b0, b1 = QUBIT_B_RAILS
    anc0, anc1 = ANCILLA_MODES
    elements = (
        # preparation stages: MZ internal phase on the upper arm, external on
        # the upper rail
        Coupler(a0, a1, half), Phase(a0, p[0]), Coupler(a0, a1, half), Phase(a0, p[1]),
        Coupler(b0, b1, half), Phase(b0, p[2]), Coupler(b0, b1, half), Phase(b0, p[3]),
        # fixed phase alignment of the CNOT core
        Phase(b0, 1.5 * np.pi),
        # H'-pair around the three power-1/3 couplers
        Coupler(b0, b1, half),
        Coupler(anc0, a0, CORE_ETA), Coupler(a1, b0, CORE_ETA), Coupler(b1, anc1, CORE_ETA),
        Coupler(b0, b1, half),
        Phase(b0, 1.5 * np.pi),
        # measurement stages (mirror image): external phase on the lower rail
        Phase(a1, p[5]), Coupler(a0, a1, half), Phase(a0, p[4]), Coupler(a0, a1, half),
        Phase(b1, p[7]), Coupler(b0, b1, half), Phase(b0, p[6]), Coupler(b0, b1, half),
    )
    return Netlist(modes=MODES, elements=elements)


def transfer_matrices(config):
    """(N, 6, 6) transfer matrices of the default netlist; (1, 6, 6) for a PhaseConfig."""
    return compose(default_netlist(phase_batch(config)))


def input_modes(basis_index):
    """Occupied input modes (one photon per qubit) for a computational basis state."""
    a_bit, b_bit = divmod(basis_index, 2)
    return QUBIT_A_RAILS[a_bit], QUBIT_B_RAILS[b_bit]


# mode pairs (out_i, out_j) of the four accepted patterns, in basis order
COINCIDENCE_PAIRS = tuple(np.array(modes) for modes in zip(*(input_modes(k) for k in range(4))))


def _postselected_block(netlist=None):
    """4x4 postselected two-photon amplitudes of a netlist (columns = basis inputs).

    With no netlist, the default netlist at the identity settings of the
    preparation and measurement stages.  For the default netlist this is
    two_qubit_unitary / 3 up to a global phase (postselection success 1/9).
    """
    u = compose(netlist if netlist is not None else default_netlist(PhaseConfig.zeros()))
    columns = [kernels.two_photon_amps(u, *input_modes(k), *COINCIDENCE_PAIRS) for k in range(4)]
    return np.stack(columns, axis=-1)


def verify_cnot(netlist=None):
    """Max-entry deviation of 3x the postselected map from CNOT, phase-aligned."""
    return float(np.max(np.abs(align_global_phase(3.0 * _postselected_block(netlist)) - u_cnot())))


def cnot_success_probs(netlist=None):
    """Postselection success probability for each computational basis input."""
    return np.sum(np.abs(_postselected_block(netlist)) ** 2, axis=0)


def _basis_index(state):
    if state not in BASIS_LABELS:
        raise ValueError(f"unknown basis state {state!r}")
    return BASIS_LABELS.index(state)


def _postselected(config, mass):
    """Condition (N, 4) coincidence probabilities on their sum, the postselection success."""
    success = mass.sum(axis=-1)
    return _batch_result(config, mass / success[:, None], success)


def coincidence_probs(config, input_state="00", model="gate", transfer=None):
    """Conditional coincidence probabilities for a computational-basis input.

    model="gate" evaluates |<k|U|psi>|^2 with success 1 (lossless algebra);
    model="waveguide" runs the two-photon netlist simulation and postselects
    on the coincidence patterns.  Both give the same conditional
    distribution; the waveguide success is 1/9.  ``transfer`` passes the
    batch's transfer matrices when the caller already has them.
    """
    idx = _basis_index(input_state)
    if model == "gate":
        psi = two_qubit_unitary(phase_batch(config))[:, :, idx]
        p = np.abs(psi) ** 2
        return _batch_result(config, p / p.sum(axis=-1, keepdims=True), np.ones(len(p)))
    if model == "waveguide":
        u = transfer_matrices(config) if transfer is None else transfer
        a, b = input_modes(idx)
        amps = kernels.two_photon_amps(u, a, b, *COINCIDENCE_PAIRS)
        return _postselected(config, np.abs(amps) ** 2)
    raise ValueError(f"model must be 'gate' or 'waveguide', got {model!r}")


def distinguishable_coincidence_probs(config, input_state="00", transfer=None):
    """Waveguide-model coincidence statistics for distinguishable photons.

    The classical counterpart of coincidence_probs(..., model="waveguide"),
    used by the noise layer to blend in imperfect photon indistinguishability.
    """
    idx = _basis_index(input_state)
    u = transfer_matrices(config) if transfer is None else transfer
    a, b = input_modes(idx)
    return _postselected(config, kernels.distinguishable_probs(np.abs(u) ** 2, a, b, *COINCIDENCE_PAIRS))
