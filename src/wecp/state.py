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
from dataclasses import dataclass
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


def _ket_key(ket: "Ket") -> tuple[tuple[str, str], ...]:
    return tuple((m, pol.value) for m, pol in ket.photons)


@dataclass(frozen=True)
class Ket:
    """Canonical photon pattern: which modes hold a photon, with optional tag.

    Photons are (mode, polarization) pairs kept sorted by mode label, so kets
    built from permuted photon lists compare and hash equal. The mode map and
    the hash are computed once at construction, so occupancy lookups are O(1).
    """

    __slots__ = ("photons", "_pol", "_hash")

    photons: tuple[tuple[ModeLabel, Polarization], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.photons, key=itemgetter(0)))
        pol = dict(pairs)
        if len(pol) != len(pairs):
            raise ModeCollision(f"duplicate occupancy in ket: {[m for m, _ in pairs]}")
        object.__setattr__(self, "photons", pairs)
        object.__setattr__(self, "_pol", pol)
        object.__setattr__(self, "_hash", hash(pairs))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return Ket, (self.photons,)

    @property
    def modes(self) -> tuple[ModeLabel, ...]:
        return tuple(self._pol)

    def has(self, mode: ModeLabel) -> bool:
        return mode in self._pol

    def polarization_at(self, mode: ModeLabel) -> Polarization | None:
        return self._pol.get(mode)

    def move(self, src: ModeLabel, dst: ModeLabel) -> "Ket":
        """Relocate the photon in ``src`` to ``dst``, keeping its tag."""
        pol = self._pol.get(src)
        if pol is None:
            raise KeyError(f"no photon in mode {src!r}")
        i = self.photons.index((src, pol))
        return Ket(self.photons[:i] + ((dst, pol),) + self.photons[i + 1:])

    def __len__(self) -> int:
        return len(self.photons)

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
            modulus below ``prune_eps`` are dropped.
        modes: every mode label known to this state, occupied or vacuum.
            Defaults to the modes occupied by the terms. Acts as the mode
            registry for the optics elements: detectors may sit on vacuum
            modes, but only on modes that exist here.
        prune_eps: squared-amplitude threshold below which terms are dropped.

    Raises:
        ZeroState: no term survives pruning.
        IncompatibleStates: kets differ in photon count or mix conventions.
        ValueError: squared norm exceeds 1, or a term occupies a mode
            missing from ``modes``.
    """

    __slots__ = ("_terms", "modes", "prune_eps", "photon_count", "uses_polarization")

    def __init__(
        self,
        terms: Mapping[Ket, complex],
        modes: Iterable[ModeLabel] | None = None,
        prune_eps: float = DEFAULT_PRUNE_EPS,
    ) -> None:
        kept: dict[Ket, complex] = {}
        for ket, amp in terms.items():
            a = complex(amp)
            if a.real * a.real + a.imag * a.imag >= prune_eps:
                kept[ket] = a
        if not kept:
            raise ZeroState("state has no terms above the pruning threshold")

        counts = {len(k) for k in kept}
        if len(counts) != 1:
            raise IncompatibleStates(f"photon count differs across kets: {counts}")
        tags: set[Polarization] = set()
        occupied: set[ModeLabel] = set()
        for k in kept:
            tags.update(k._pol.values())
            occupied.update(k._pol)
        none_used = Polarization.NONE in tags
        hv_used = bool(tags & {Polarization.H, Polarization.V})
        if none_used and hv_used:
            raise IncompatibleStates("kets mix tagged and untagged photons")

        n2 = sum(abs(a) ** 2 for a in kept.values())
        if n2 > _NORM_SQ_CAP:
            raise ValueError(f"squared norm {n2} exceeds 1")

        registry = occupied if modes is None else frozenset(modes)
        if not occupied <= registry:
            raise ValueError(f"terms occupy unregistered modes: {occupied - registry}")

        object.__setattr__(self, "_terms", kept)
        object.__setattr__(self, "modes", frozenset(registry))
        object.__setattr__(self, "prune_eps", float(prune_eps))
        object.__setattr__(self, "photon_count", counts.pop())
        object.__setattr__(self, "uses_polarization", hv_used)

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
    """Total squared amplitude, read as the probability of this branch."""
    return sum(abs(a) ** 2 for a in state.terms.values())


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
    shared = sorted((k for k in a.terms if k in b.terms), key=_ket_key)
    overlap = sum((a.terms[k].conjugate() * b.terms[k] for k in shared), start=0j)
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
