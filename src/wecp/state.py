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

import math
from enum import Enum
from operator import itemgetter
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
    """Hash of one photon, bit-shuffled as frozenset shuffles each element hash.

    A ket hashes to the XOR of its photon hashes, which ignores photon order
    and lets a move swap one photon's share in O(1). The shuffle spreads
    nearby hashes apart so the XOR does not cancel on structured kets.
    """
    h = hash((mode, pol)) & _HASH_MASK
    return ((h ^ 89869747 ^ (h << 16)) * 3644798167) & _HASH_MASK


def _ket_key(ket: "Ket") -> tuple[tuple[str, str], ...]:
    pol = ket._pol
    return tuple([(m, _TAG_TEXT[pol[m]]) for m in sorted(pol)])


_set = object.__setattr__


class Ket:
    """Photon pattern: which modes hold a photon, and each photon's tag.

    A ket is its mode→polarization map, so kets built from permuted photon
    lists compare equal. The hash is the XOR of one shuffled hash per photon
    (``_photon_hash``): it is computed once by the constructor, and ``move``
    updates it in O(1) by swapping out the moved photon's old share for its
    new one. ``photons`` and ``modes`` are sorted by mode label and derived on
    demand. Kets are immutable.
    """

    __slots__ = ("_pol", "_hash", "_tags")

    def __init__(self, photons: Iterable[tuple[ModeLabel, Polarization]]) -> None:
        self.__post_init__(tuple(photons))

    def __post_init__(self, photons: tuple[tuple[ModeLabel, Polarization], ...]) -> None:
        pol = dict(photons)
        if len(pol) != len(photons):
            raise ModeCollision(f"duplicate occupancy in ket: {sorted(m for m, _ in photons)}")
        h = 0
        for mode, tag in photons:
            h ^= _photon_hash(mode, tag)
        _set(self, "_pol", pol)
        _set(self, "_hash", h)
        _set(self, "_tags", frozenset(pol.values()))

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

        Moving a photon onto its own mode returns this ket.

        Raises:
            KeyError: ``src`` holds no photon.
            ModeCollision: ``dst`` already holds a photon.
        """
        pol = self._pol
        tag = pol.get(src)
        if tag is None:
            raise KeyError(f"no photon in mode {src!r}")
        if dst == src:
            return self
        if dst in pol:
            raise ModeCollision(f"mode {dst!r} already holds a photon in {self}")
        moved = pol.copy()
        del moved[src]
        moved[dst] = tag
        ket = object.__new__(Ket)
        _set(ket, "_pol", moved)
        _set(ket, "_hash", self._hash ^ _photon_hash(src, tag) ^ _photon_hash(dst, tag))
        _set(ket, "_tags", self._tags)
        return ket

    def __len__(self) -> int:
        return len(self._pol)

    def __repr__(self) -> str:
        inner = " ".join(
            m if pol is Polarization.NONE else f"{pol.value}@{m}"
            for m, pol in self.photons
        )
        return f"|{inner}>"


class PureState:
    """Immutable sparse superposition of single-occupancy kets.

    Args:
        terms: mapping from Ket to complex amplitude. Terms with squared
            modulus below ``prune_eps`` are dropped; a NaN is never dropped.
        modes: every mode label known to this state, occupied or vacuum.
            Defaults to the modes occupied by the terms. Acts as the mode
            registry for the optics elements: detectors may sit on vacuum
            modes, but only on modes that exist here.
        prune_eps: squared-amplitude threshold below which terms are dropped.

    Raises:
        ZeroState: no term survives pruning.
        IncompatibleStates: kets differ in photon count or mix conventions.
        ValueError: an amplitude is NaN, the squared norm exceeds 1 (an
            infinite amplitude does), or a term occupies a mode missing from
            ``modes``.
    """

    __slots__ = ("_terms", "_norm2", "modes", "prune_eps", "photon_count", "uses_polarization")

    def __init__(
        self,
        terms: Mapping[Ket, complex],
        modes: Iterable[ModeLabel] | None = None,
        prune_eps: float = DEFAULT_PRUNE_EPS,
    ) -> None:
        registry = None if modes is None else frozenset(modes)
        kept: dict[Ket, complex] = {}
        n2 = 0.0
        count = -1
        tags: set[Polarization] = set()
        occupied: set[ModeLabel] = set()
        for ket, amp in terms.items():
            a = complex(amp)
            m2 = a.real * a.real + a.imag * a.imag
            if not m2 >= prune_eps:
                if not m2 < prune_eps:
                    raise ValueError(f"amplitude {a} at {ket} or prune_eps {prune_eps} is NaN")
                continue
            kept[ket] = a
            n2 += m2
            pol = ket._pol
            if len(pol) != count:
                if count >= 0:
                    raise IncompatibleStates(
                        f"photon count differs across kets: {count} and {len(pol)}")
                count = len(pol)
            tags.update(ket._tags)
            occupied.update(pol)
        if not kept:
            raise ZeroState("state has no terms above the pruning threshold")

        hv_used = Polarization.H in tags or Polarization.V in tags
        if hv_used and Polarization.NONE in tags:
            raise IncompatibleStates("kets mix tagged and untagged photons")
        if n2 > _NORM_SQ_CAP:
            raise ValueError(f"squared norm {n2} exceeds 1")
        if registry is None:
            registry = frozenset(occupied)
        elif not occupied <= registry:
            raise ValueError(f"terms occupy unregistered modes: {occupied - registry}")

        _set(self, "_terms", kept)
        _set(self, "_norm2", n2)
        _set(self, "modes", registry)
        _set(self, "prune_eps", float(prune_eps))
        _set(self, "photon_count", count)
        _set(self, "uses_polarization", hv_used)

    def __setattr__(self, name, value):
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

    def isclose(self, other: "PureState", atol: float = 1e-12) -> bool:
        """Term-by-term amplitude agreement within ``atol``."""
        if set(self._terms) != set(other._terms):
            return False
        return all(abs(a - other._terms[k]) <= atol for k, a in self._terms.items())

    def __repr__(self) -> str:
        ordered = sorted(self._terms.items(), key=lambda kv: _ket_key(kv[0]))
        parts = " + ".join(f"({amp:.6g}){ket}" for ket, amp in ordered)
        return f"PureState({parts})"


def norm_squared(state: PureState) -> float:
    """Total squared amplitude, read as the probability of this branch.

    Summed once, while the state was validated.
    """
    return state._norm2


def normalize(state: PureState) -> PureState:
    """Rescale to unit norm; amplitude ratios are untouched (global scale only)."""
    n2 = norm_squared(state)
    if n2 <= state.prune_eps:
        raise ZeroState(f"cannot normalize state with squared norm {n2}")
    scale = 1.0 / math.sqrt(n2)
    return PureState(
        {k: a * scale for k, a in state.terms.items()},
        modes=state.modes,
        prune_eps=state.prune_eps,
    )


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
    overlap = sum((x.conjugate() * y for _, x, y in shared), start=0j)
    f = abs(overlap) ** 2 / (norm_squared(a) * norm_squared(b))
    return min(max(f, 0.0), 1.0)


def fresh_label(taken: Collection[ModeLabel], base: ModeLabel) -> ModeLabel:
    """Mint a mode label derived from ``base`` that avoids ``taken``.

    The trailing digits of ``base`` are treated as a counter, so minting from
    "a1" yields "a2", "a3", ... Callers pass the full set of labels in play;
    that keeps generated labels from ever colliding with user-supplied ones.
    """
    stem = base.rstrip("0123456789")
    if not stem:
        stem = base
        suffix = ""
    else:
        suffix = base[len(stem):]
    k = int(suffix) + 1 if suffix else 1
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"
