"""Stochastic imperfection layer: phase jitter, distinguishability, counting noise.

All sampling goes through an explicitly passed ``numpy.random.Generator``;
a function that consumes an rng needs exclusive access to it.  The CHSH
manifold and the tomography suites derive independent child generators per
task (``spawn``, numpy's ``Generator.spawn`` for many parents at once, bit
for bit) so results do not depend on how a sweep is split into batches.
"""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .chip import CoincidenceProbs, PhaseConfig, phase_batch, wrap_phases
from .csvio import read_rows

SPEED_OF_LIGHT_NM_PER_FS = 299.792458

DEFAULT_PHASE_SIGMA = 0.05       # rad, typical heater-setting accuracy
DEFAULT_INDISTINGUISHABILITY = 0.978
DEFAULT_MEAN_PAIRS = 1e4


@dataclass(frozen=True)
class NoiseModel:
    """Imperfection parameters for simulated runs.

    phase_sigma
        Standard deviation of the per-heater phase-setting error, radians.
    indistinguishability
        Weight v of the quantum (indistinguishable-photon) statistics; the
        remainder 1 - v follows the distinguishable-photon model.
    accidental_fraction
        Accidental coincidences as a fraction of true ones, spread uniformly
        over the outcomes.
    mean_pairs
        Expected total coincidence events per measurement setting.

    Every field must be finite.
    """

    phase_sigma: float = DEFAULT_PHASE_SIGMA
    indistinguishability: float = DEFAULT_INDISTINGUISHABILITY
    accidental_fraction: float = 0.0
    mean_pairs: float = DEFAULT_MEAN_PAIRS

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not 0.0 <= self.indistinguishability <= 1.0:
            raise ValueError("indistinguishability must lie in [0, 1]")
        if self.phase_sigma < 0.0:
            raise ValueError("phase_sigma must be non-negative")
        if self.accidental_fraction < 0.0:
            raise ValueError("accidental_fraction must be non-negative")
        if self.mean_pairs < 0.0:
            raise ValueError("mean_pairs must be non-negative")

    @classmethod
    def noiseless(cls):
        return cls(phase_sigma=0.0, indistinguishability=1.0, accidental_fraction=0.0)


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts per outcome for one measurement setting.

    Single-qubit settings store their two outcome counts in n00 and n01.
    """

    setting: str
    n00: int
    n01: int
    n10: int = 0
    n11: int = 0

    def counts(self, outcomes=4):
        return np.array([self.n00, self.n01, self.n10, self.n11][:outcomes], dtype=float)

    @classmethod
    def from_counts(cls, setting, counts):
        vals = [int(round(c)) for c in counts] + [0, 0, 0, 0]
        return cls(setting, vals[0], vals[1], vals[2], vals[3])


@dataclass(frozen=True)
class SpectralModel:
    """Photon spectrum set by the interference filters (Gaussian lineshape)."""

    center_nm: float = 808.0
    fwhm_nm: float = 3.0

    def __post_init__(self):
        if self.fwhm_nm <= 0:
            raise ValueError("fwhm must be positive")

    def coherence_time_fs(self):
        """Gaussian dip width sigma_t = sqrt(ln 2) / (pi * dnu_fwhm).

        For a Gaussian intensity spectrum with frequency FWHM dnu, the
        two-photon overlap decays as exp(-tau^2 / (2 sigma_t^2)) with
        sigma_t = 1 / (sqrt(2) sigma_omega); expressing sigma_omega through
        dnu = c * fwhm / lambda^2 gives the formula above.
        """
        dnu = SPEED_OF_LIGHT_NM_PER_FS * self.fwhm_nm / self.center_nm**2  # 1/fs
        return float(np.sqrt(np.log(2.0)) / (np.pi * dnu))


def apply_phase_noise(config, sigma, rng):
    """Each phase independently perturbed by N(0, sigma^2), rewrapped to [0, 2*pi).

    rng is one Generator, which draws every error of the (N, 8) batch (a
    PhaseConfig is the batch of one) as one standard_normal((N, 8)) call, or
    a sequence of N generators, row k drawing its eight errors from rng[k] so
    that a row's draws do not depend on the batch.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return config
    phases = phase_batch(config)
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal(phases.shape)
    else:
        z = np.array([g.standard_normal(8) for g in rng])
    # sigma * z is the double g.normal(0, sigma, size) returns, without numpy's per-call checks
    noisy = wrap_phases(phases + sigma * z)
    return PhaseConfig(noisy[0]) if isinstance(config, PhaseConfig) else noisy


# --- Child generators: numpy's SeedSequence.spawn as one array program ------
#
# SeedSequence is O'Neill's seed_seq hash over a pool of four uint32 words.
# A child's assembled entropy is its parent's (zero-padded to the pool size)
# plus one word, its index, so its pool is the parent's pool with that word
# hashed into each pool word by mix_entropy's last loop; the hash constant
# goes on from where the parent's left off.  The state a bit generator asks
# for is then more hashed words of the pool.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init, mult, start, n):
    """init * mult**k mod 2**32 for k in [start, start + n), as uint32 (Python ints, so nothing overflows)."""
    c = init * pow(mult, start, 1 << 32) & _MASK32
    out = []
    for _ in range(n):
        out.append(c)
        c = c * mult & _MASK32
    return np.array(out, dtype=np.uint32)


def _hashmix(words, consts):
    """seed_seq's hash step on uint32 arrays: (w ^ c_k) * c_(k+1), then xor its high half down."""
    h = (words ^ consts[..., :-1]) * consts[..., 1:]
    return h ^ (h >> 16)


def _state_words(pools, n_words, dtype):
    """SeedSequence.generate_state(n_words, dtype) of each (..., 4) pool."""
    wide = np.dtype(dtype) == np.uint64
    if not wide and np.dtype(dtype) != np.uint32:
        raise ValueError("only support uint32 or uint64")
    n = 2 * n_words if wide else n_words
    words = _hashmix(pools[..., np.arange(n) % 4], _powers(_INIT_B, _MULT_B, 0, n + 1))
    # little-endian pairs, as numpy reads them on any platform
    return words.astype("<u4", order="C").view("<u8").astype(np.uint64) if wide else words


def _entropy_words(x):
    """How many uint32 words SeedSequence makes of an int or a sequence of ints (None for anything else)."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    if isinstance(x, (list, tuple)) and all(isinstance(v, (int, np.integer)) for v in x):
        return sum(max(1, -(-int(v).bit_length() // 32)) for v in x)
    return None


class _ChildSeedSequence:
    """A child that SeedSequence.spawn would make: same entropy, spawn key, pool and words.

    position counts the mix_entropy hash constants its pool has used; the
    four uint64 words a PCG64 seeds from are computed with the pool and
    handed out once.  _spawn_seqs registers the class as numpy's
    ISpawnableSeedSequence, so that importing rechip does not import
    numpy.random.
    """

    __slots__ = ("entropy", "spawn_key", "pool", "n_children_spawned", "position", "_seed_words")
    pool_size = 4

    def __init__(self, entropy, spawn_key, pool, position, seed_words):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.pool = pool
        self.n_children_spawned = 0
        self.position = position
        self._seed_words = seed_words

    def generate_state(self, n_words, dtype=np.uint32):
        words, self._seed_words = self._seed_words, None
        if words is not None and n_words == 4 and np.dtype(dtype) == np.uint64:
            return words
        return _state_words(self.pool, n_words, dtype)

    def spawn(self, n_children):
        return _spawn_seqs([self], [self.position], n_children)[0]


def _hash_position(seq):
    """How many mix_entropy constants seq's pool has used, or None where spawn must fall back to numpy."""
    if isinstance(seq, _ChildSeedSequence):
        return seq.position
    if type(seq) is not np.random.SeedSequence or seq.pool_size != 4:
        return None
    run, key = _entropy_words(seq.entropy), _entropy_words(seq.spawn_key)
    if run is None or key is None:
        return None
    # 4 for the pool words, 12 for their cross-mix, 4 per entropy word beyond the pool
    return 16 + 4 * (max(run, 4) + key - 4)


def _spawn_seqs(seqs, positions, n):
    """seq.spawn(n) for each of seqs (distinct objects), computed together; each parent advances by n."""
    if not seqs:
        return []
    np.random.bit_generator.ISpawnableSeedSequence.register(_ChildSeedSequence)  # idempotent
    first = np.array([s.n_children_spawned for s in seqs], dtype=np.int64)
    table = {p: _powers(_INIT_A, _MULT_A, p, 5) for p in set(positions)}
    consts = np.array([table[p] for p in positions])[:, None]  # (parents, 1, 5)
    index = (first[:, None] + np.arange(n)).astype(np.uint32)[..., None]
    # mix(x, y) = (L x - R y) ^ (... >> 16), with each pool word x and the hashed index y
    pools = _MIX_L * np.array([s.pool for s in seqs])[:, None] - _MIX_R * _hashmix(index, consts)
    pools ^= pools >> 16
    words = iter(_state_words(pools, 4, np.uint64).reshape(-1, 4))
    rows = iter(pools.reshape(-1, 4))
    children = []
    for s, p, i0 in zip(seqs, positions, first.tolist()):
        children.append([_ChildSeedSequence(s.entropy, s.spawn_key + (i,), next(rows), p + 4, next(words))
                         for i in range(i0, i0 + n)])
        if isinstance(s, _ChildSeedSequence):
            s.n_children_spawned += n
        else:
            # SeedSequence keeps n_children_spawned read-only; its pickled state is
            # (entropy, n_children_spawned, pool, pool_size, spawn_key)
            state = s.__reduce__()[2]
            s.__setstate__(state[:1] + (state[1] + n,) + state[2:])
    return children


def spawn(rngs, n):
    """n child generators of each generator in rngs: [c for g in rngs for c in g.spawn(n)], bit for bit.

    Every parent's seed sequence advances as g.spawn(n) advances it, and each
    child keeps its parent's generator and bit-generator types.  The hashing
    runs as one uint32 array program over all children; parents it cannot
    reproduce (a pool size other than 4, entropy other than ints) use g.spawn.
    """
    rngs = list(rngs)
    seqs = [g.bit_generator.seed_seq for g in rngs]
    if len({id(s) for s in seqs}) < len(seqs):  # a parent listed twice spawns twice, in turn
        return [c for g in rngs for c in spawn([g], n)]
    positions = [_hash_position(s) for s in seqs]
    fast = [(s, p) for s, p in zip(seqs, positions) if p is not None]
    kids = iter(_spawn_seqs([s for s, _ in fast], [p for _, p in fast], n))
    out = []
    for g, p in zip(rngs, positions):
        if p is None:
            out.extend(g.spawn(n))
        else:
            make, bit_gen = type(g), type(g.bit_generator)
            out.extend(make(bit_gen(s)) for s in next(kids))
    return out


def mix_statistics(quantum, classical, v):
    """Convex combination v * quantum + (1 - v) * classical, componentwise (rowwise for a batch)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError("v must lie in [0, 1]")
    p = v * quantum.as_array() + (1.0 - v) * classical.as_array()
    success = v * quantum.success + (1.0 - v) * classical.success
    return CoincidenceProbs.from_array(p, success)


def expected_counts(probs, model):
    """Expectation values of the per-outcome counts (accidentals included) of an
    array of outcome probabilities; (N, k) rows give (N, k) expectations."""
    p = np.asarray(probs, dtype=float)
    return model.mean_pairs * (p + model.accidental_fraction / p.shape[-1])


_DIP_CUTOFF_SIGMAS = 40.0  # exp(-40^2 / 2) is 0 in float64: beyond it the dip term is exactly 0


def hom_dip_curve(delays_fs, spectral, v_max):
    """Coincidence probability P(tau) = (1 - v_max exp(-tau^2/(2 sigma_t^2))) / 2."""
    sigma_t = spectral.coherence_time_fs()
    # |tau| is clipped where the dip term is already 0, so huge delays cannot overflow tau^2
    tau = np.clip(np.asarray(delays_fs, dtype=float), -_DIP_CUTOFF_SIGMAS * sigma_t, _DIP_CUTOFF_SIGMAS * sigma_t)
    return 0.5 * (1.0 - v_max * np.exp(-(tau**2) / (2.0 * sigma_t**2)))


def hom_visibility(n_classical, n_quantum):
    """Dip visibility (N_classical - N_quantum) / N_classical."""
    if n_classical <= 0:
        raise ValueError("n_classical must be positive")
    return (n_classical - n_quantum) / n_classical


# --- CSV schema: setting,n00,n01,n10,n11 -----------------------------------

COUNTS_HEADER = ["setting", "n00", "n01", "n10", "n11"]


def write_count_records(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTS_HEADER)
        for r in records:
            writer.writerow([r.setting, r.n00, r.n01, r.n10, r.n11])


def _count_record(fields):
    try:
        counts = [int(c) for c in fields[1:]]
    except ValueError:
        raise ValueError("non-integer count") from None
    if any(c < 0 for c in counts):
        raise ValueError("negative count")
    return CountRecord(fields[0], *counts)


def read_count_records(path):
    """Parse a counts CSV; raises ValueError naming the offending line."""
    return read_rows(path, COUNTS_HEADER, _count_record)
