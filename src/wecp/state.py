"""Sparse pure states over labeled optical modes.

A state is a sparse map from photon-occupation patterns (kets) to complex
amplitudes. Every mode holds at most one photon, and a photon either carries
no polarization tag (occupation-only convention) or an H/V tag (polarization
convention); one state never mixes the two conventions.

States may be sub-normalized: the squared norm of a state is read as the
probability of the measurement branch it represents. Nothing in this module
renormalizes implicitly, so branch probabilities stay auditable step by step.
"""
from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import itemgetter, xor
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

ModeLabel = str

DEFAULT_PRUNE_EPS = 1e-15
_NORM_SQ_CAP = 1.0 + 1e-9


class ZeroState(ValueError):
    """Every amplitude fell below the pruning threshold."""


class IncompatibleStates(ValueError):
    """Kets mix the occupation-only and polarization conventions."""


class ModeCollision(ValueError):
    """Two photons would occupy the same mode."""


class Polarization(Enum):
    H = "H"
    V = "V"
    NONE = "-"

    # Members are singletons compared by identity, so the identity hash agrees
    # with equality and skips Enum's Python-level __hash__ on every Ket hash.
    __hash__ = object.__hash__


_TAG_TEXT = {pol: pol.value for pol in Polarization}

# Per-photon hashes are kept to 63 bits, so their XOR is a non-negative
# machine-size int that Python uses as the hash without reducing it again.
_HASH_MASK = (1 << 63) - 1


def _photon_hash(mode: ModeLabel, pol: Polarization) -> int:
    """Hash of one photon: the builtin hash of its (mode, tag) pair, masked.

    A ket hashes to the XOR of its photon hashes, which ignores photon order
    and lets a move swap one photon's share in O(1). The mask distributes over
    XOR, so ``Ket`` hashes all its photons in one C pass and masks once.
    """
    return hash((mode, pol)) & _HASH_MASK


def _ket_key(ket: "Ket") -> tuple[tuple[str, str], ...]:
    pol = ket._pol
    return tuple([(m, _TAG_TEXT[pol[m]]) for m in sorted(pol)])


_set = object.__setattr__


class Ket:
    """Photon pattern: which modes hold a photon, and each photon's tag.

    A ket is its mode→polarization map, so kets built from permuted photon
    lists compare equal. The hash is the XOR of the builtin hash of each
    photon's (mode, tag) pair, masked to 63 bits (``_photon_hash``). The
    constructor computes it in one C pass over the photons; ``move`` and a PBS
    relabel through one batch kernel, ``_relabel``, which updates each hash in
    O(1) by a delta hashed once per call. ``photons`` and ``modes`` are sorted
    by mode label and derived on demand. Kets are immutable.
    """

    __slots__ = ("_pol", "_hash")

    def __init__(self, photons: Iterable[tuple[ModeLabel, Polarization]]) -> None:
        self.__post_init__(tuple(photons))

    def __post_init__(self, photons: tuple[tuple[ModeLabel, Polarization], ...]) -> None:
        pol = dict(photons)
        if len(pol) != len(photons):
            raise ModeCollision(f"duplicate occupancy in ket: {sorted(m for m, _ in photons)}")
        _set(self, "_pol", pol)
        _set(self, "_hash", reduce(xor, map(hash, photons), 0) & _HASH_MASK)

    def __setattr__(self, name, value):
        raise AttributeError("Ket is immutable")

    def __delattr__(self, name):
        raise AttributeError("Ket is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self._hash == other._hash and self._pol == other._pol

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return Ket, (self.photons,)

    @property
    def photons(self) -> tuple[tuple[ModeLabel, Polarization], ...]:
        return tuple(sorted(self._pol.items(), key=itemgetter(0)))

    @property
    def modes(self) -> tuple[ModeLabel, ...]:
        return tuple(sorted(self._pol))

    def has(self, mode: ModeLabel) -> bool:
        return mode in self._pol

    def polarization_at(self, mode: ModeLabel) -> Polarization | None:
        return self._pol.get(mode)

    def move(self, src: ModeLabel, dst: ModeLabel) -> "Ket":
        """Relocate the photon in ``src`` to ``dst``, keeping its tag.

        Raises:
            KeyError: ``src`` holds no photon.
            ModeCollision: ``dst`` already holds a photon.
        """
        tag = self._pol.get(src)
        if tag is None:
            raise KeyError(f"no photon in mode {src!r}")
        return _relabel((self,), src, {tag: dst})[0]

    def __repr__(self) -> str:
        inner = " ".join(
            m if pol is Polarization.NONE else f"{pol.value}@{m}"
            for m, pol in self.photons
        )
        return f"|{inner}>"


def _relabel(
    kets: Iterable[Ket], src: ModeLabel, route: Mapping[Polarization, ModeLabel]
) -> list[Ket]:
    """Move the photon in ``src`` of each ket to ``route[tag]``, keeping its tag.

    The one relabel path: ``Ket.move`` passes one ket, a PBS passes every ket
    of its input state once per input port. The hash delta of each route is
    hashed once per call, and no Python function runs per ket. Kets with no
    photon in ``src`` come back as they are, in place.

    Raises:
        ModeCollision: a destination already holds a photon.
    """
    moves = {}
    for tag, dst in route.items():
        moves[tag] = dst, _photon_hash(src, tag) ^ _photon_hash(dst, tag)
    out = []
    for ket in kets:
        pol = ket._pol
        tag = pol.get(src)
        if tag is None:
            out.append(ket)
            continue
        dst, delta = moves[tag]
        if dst in pol:
            raise ModeCollision(f"mode {dst!r} already holds a photon in {ket}")
        moved = pol.copy()
        moved[dst] = moved.pop(src)
        new = object.__new__(Ket)
        _set(new, "_pol", moved)
        _set(new, "_hash", ket._hash ^ delta)
        out.append(new)
    return out


def _left_sum(values: Iterable, start):
    """``start`` plus each of ``values``, left to right: every sum that feeds an
    output (``_prune`` fuses the same loop). The builtin ``sum`` is compensated
    from Python 3.12 (floats) or 3.14 (complex), so its bits vary by version."""
    total = start
    for x in values:
        total += x
    return total


def _prune(terms: dict[Ket, complex]) -> float:
    """Every state's one amplitude pass: delete each term below
    ``DEFAULT_PRUNE_EPS`` and return the kept squared norm, summed in term
    order. A NaN is never pruned but raises ValueError, and ZeroState is
    raised when no term is left."""
    n2 = 0.0
    pruned = []
    for ket, a in terms.items():
        m2 = a.real * a.real + a.imag * a.imag
        if m2 >= DEFAULT_PRUNE_EPS:
            n2 += m2
        elif m2 < DEFAULT_PRUNE_EPS:
            pruned.append(ket)
        else:
            raise ValueError(f"amplitude {a} at {ket} is NaN")
    for ket in pruned:
        del terms[ket]
    if not terms:
        raise ZeroState("state has no terms above the pruning threshold")
    return n2


class PureState:
    """Immutable sparse superposition of single-occupancy kets.

    Every state's amplitudes go through one pass (prune, NaN, squared norm).
    The constructor also checks each kept term's photon count, convention and
    modes. An optics element relabels photons of its validated parent, which
    keeps all three, so only the amplitude pass runs again. A copied or
    unpickled state is rebuilt through the constructor.

    Args:
        terms: mapping from Ket to complex amplitude. Terms with squared
            modulus below ``DEFAULT_PRUNE_EPS`` are dropped; a NaN is never
            dropped.
        modes: every mode label known to this state, occupied or vacuum.
            Defaults to the modes occupied by the terms. Acts as the mode
            registry for the optics elements: detectors may sit on vacuum
            modes, but only on modes that exist here.

    Raises:
        ZeroState: no term survives pruning.
        IncompatibleStates: kets differ in photon count or mix conventions.
        ValueError: an amplitude is NaN, the squared norm exceeds 1 (an
            infinite amplitude does), or a term occupies a mode missing from
            ``modes``.
    """

    __slots__ = ("_terms", "_norm2", "modes", "photon_count", "uses_polarization")

    def __init__(self, terms: Mapping[Ket, complex],
                 modes: Iterable[ModeLabel] | None = None) -> None:
        own = {ket: complex(amp) for ket, amp in terms.items()}
        n2 = _prune(own)
        pols = [ket._pol for ket in own]
        counts = set(map(len, pols))
        tags = set().union(*[pol.values() for pol in pols])
        occupied = frozenset().union(*pols)
        registry = occupied if modes is None else frozenset(modes)
        if len(counts) > 1:
            raise IncompatibleStates(f"photon count differs across kets: {sorted(counts)}")
        if Polarization.NONE in tags and len(tags) > 1:
            raise IncompatibleStates("kets mix tagged and untagged photons")
        if not occupied <= registry:
            raise ValueError(f"terms occupy unregistered modes: {set(occupied - registry)}")
        self._store(own, n2, registry, counts.pop(), Polarization.NONE not in tags)

    @classmethod
    def _derive(cls, parent: "PureState", terms: dict[Ket, complex],
                registry: frozenset[ModeLabel]) -> "PureState":
        """An optics element's output, built from its validated parent.

        Precondition: every term of ``terms`` is a term of ``parent`` or a
        ``_relabel`` of one, no two relabelled terms meet, and ``registry``
        registers every mode a term occupies. The optics port rule (consume
        registered modes, mint new ones) keeps all three. A relabel keeps the
        photon count and every tag, so the output needs none of the
        constructor's structure checks, only its amplitude pass, so both give
        the same terms and norm bits. Pruned kets are deleted from ``terms``,
        which the new state then owns.
        """
        state = object.__new__(cls)
        state._store(terms, _prune(terms), registry, parent.photon_count, parent.uses_polarization)
        return state

    def _store(self, terms: dict[Ket, complex], n2: float, registry: frozenset[ModeLabel],
               count: int, hv_used: bool) -> None:
        """Cap the squared norm at 1 and set the slots."""
        if n2 > _NORM_SQ_CAP:
            raise ValueError(f"squared norm {n2} exceeds 1")
        _set(self, "_terms", terms)
        _set(self, "_norm2", n2)
        _set(self, "modes", registry)
        _set(self, "photon_count", count)
        _set(self, "uses_polarization", hv_used)

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return PureState, (self._terms, self.modes)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def __delattr__(self, name):
        raise AttributeError("PureState is immutable")

    @property
    def terms(self) -> Mapping[Ket, complex]:
        return MappingProxyType(self._terms)

    def __eq__(self, other: object) -> bool:
        # registry metadata (modes) intentionally ignored
        if not isinstance(other, PureState):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        ordered = sorted(self._terms.items(), key=lambda kv: _ket_key(kv[0]))
        parts = " + ".join(f"({amp:.6g}){ket}" for ket, amp in ordered)
        return f"PureState({parts})"


def norm_squared(state: PureState) -> float:
    """Total squared amplitude, read as the probability of this branch.

    Summed once, while the state was validated.
    """
    return state._norm2


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 of the normalized versions of both states.

    Exactly symmetric in its arguments: the overlap is accumulated in
    canonical ket order and the norms enter as one commutative product.
    States on disjoint kets give 0.0; that is a valid answer, not an error.

    Raises:
        IncompatibleStates: the states use different polarization conventions.
    """
    if a.uses_polarization != b.uses_polarization:
        raise IncompatibleStates("cannot overlap tagged and untagged states")
    tb = b._terms
    shared = sorted(
        ((_ket_key(k), x, y) for k, x in a._terms.items() if (y := tb.get(k)) is not None),
        key=itemgetter(0),
    )
    overlap = _left_sum((x.conjugate() * y for _, x, y in shared), 0j)
    f = abs(overlap) ** 2 / (norm_squared(a) * norm_squared(b))
    return min(max(f, 0.0), 1.0)


def fresh_label(taken: Collection[ModeLabel], base: ModeLabel) -> ModeLabel:
    """Mint a mode label derived from ``base`` that avoids ``taken``.

    The trailing digits of ``base`` are treated as a counter, so minting from
    "a1" yields "a2", "a3", ... Callers pass the full set of labels in play;
    that keeps generated labels from ever colliding with user-supplied ones.
    """
    stem = base.rstrip("0123456789") or base
    suffix = base[len(stem):]
    k = int(suffix) + 1 if suffix else 1
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"
