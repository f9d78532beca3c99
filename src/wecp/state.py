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

from collections.abc import Collection, Iterable, Mapping
from enum import Enum
from functools import reduce
from operator import itemgetter, xor

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
    constructor computes it in one C pass over the photons; ``move`` updates it
    in O(1) by the moved photon's share. ``photons`` and ``modes`` are sorted by
    mode label and derived on demand. Kets are immutable.
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
        pol = self._pol
        tag = pol.get(src)
        if tag is None:
            raise KeyError(f"no photon in mode {src!r}")
        if dst in pol:
            raise ModeCollision(f"mode {dst!r} already holds a photon in {self}")
        moved = pol.copy()
        moved[dst] = moved.pop(src)
        new = object.__new__(Ket)
        _set(new, "_pol", moved)
        _set(new, "_hash", self._hash ^ _photon_hash(src, tag) ^ _photon_hash(dst, tag))
        return new

    def __repr__(self) -> str:
        inner = " ".join(
            m if pol is Polarization.NONE else f"{pol.value}@{m}"
            for m, pol in self.photons
        )
        return f"|{inner}>"


def _ket_of(pol: dict[ModeLabel, Polarization]) -> Ket:
    """The ket whose mode->tag map is ``pol``, which it then owns. Hashes
    each photon through the item view, so no photon tuple is kept."""
    ket = object.__new__(Ket)
    _set(ket, "_pol", pol)
    _set(ket, "_hash", reduce(xor, map(hash, pol.items()), 0) & _HASH_MASK)
    return ket


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
    modes. An optics element moves photons of its validated parent, which
    keeps all three, so only the amplitude pass runs again; a PBS keeps every
    amplitude in its place and skips that pass too. A copied or unpickled
    state is rebuilt through the constructor.

    Every state holds its terms as stored kets plus a route, a pair of maps:
    each stored photon ``(label, tag)`` that a PBS moved, to the mode it
    occupies now; and each mode a PBS made or consumed, to the stored photons
    it holds (none, once consumed). Any other mode holds the photons stored
    under its own label. The constructor's route is empty, so its stored kets
    are its physical kets. A PBS composes the route in O(ports) and hands on
    its parent's stored terms and squared norm. A VBS or a detector finds the
    photons in its mode through the route, rewrites only the terms that hold
    one, and hands the route on; a VBS stores each photon it splits under its
    output label. Once a PBS has acted, the physical kets are built where
    something reads them (``terms``, ``==``, ``repr``, ``fidelity``, copy and
    pickle), once, and cached; counting the terms builds none.

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

    __slots__ = ("_terms", "_norm2", "_route", "_kets", "modes", "photon_count",
                 "uses_polarization")

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
        self._store(own, n2, registry, counts.pop(), Polarization.NONE not in tags, ({}, {}),
                    own)

    @classmethod
    def _derive(cls, parent: "PureState", terms: dict[Ket, complex],
                registry: frozenset[ModeLabel]) -> "PureState":
        """A VBS's or a detector's output, built from its validated parent,
        whose route it keeps. No term holds a photon the route moved unless a
        parent term did, so the stored kets are physical if the parent's are.

        Precondition: every term of ``terms`` is a stored term of ``parent``
        or one whose photon ``Ket.move`` put under a label that no stored
        photon of ``parent`` or its route names, no two moved terms meet, and
        ``registry`` registers every mode a term occupies; the port rule and
        ``_split`` keep all three. A move keeps the photon count and every
        tag, so the output needs only the constructor's amplitude pass, and
        both give the same terms and norm bits. Pruned kets are deleted from
        ``terms``, which the new state then owns.
        """
        state = object.__new__(cls)
        state._store(terms, _prune(terms), registry, parent.photon_count,
                     parent.uses_polarization, parent._route,
                     terms if parent._kets is parent._terms else None)
        return state

    def _holders(self, mode: ModeLabel) -> tuple[tuple[ModeLabel, Polarization], ...]:
        """The stored photons, as (label, tag), that may sit in ``mode``. Some
        may be held by no term: a PBS routes both tags of a mode it consumes."""
        placed = self._route[1].get(mode)
        if placed is not None:
            return placed
        if self.uses_polarization:
            return (mode, Polarization.H), (mode, Polarization.V)
        return ((mode, Polarization.NONE),)

    def _holding(self, mode: ModeLabel) -> list[Ket]:
        """The stored kets that hold a photon in ``mode``, in term order."""
        placed = self._route[1].get(mode)
        if placed is None:
            return [ket for ket in self._terms if mode in ket._pol]
        return [ket for ket in self._terms if not ket._pol.items().isdisjoint(placed)]

    def _physical(self) -> dict[Ket, complex]:
        """The terms over the modes their photons occupy, in stored order,
        built on the first read."""
        kets = self._kets
        if kets is None:
            where = self._route[0].get
            kets = {}
            for ket, amp in self._terms.items():
                pol = ket._pol
                moved = dict(zip(map(where, pol.items(), pol), pol.values()))
                if len(moved) != len(pol):
                    raise ModeCollision(f"the route puts two photons of {ket} in one mode")
                kets[_ket_of(moved)] = amp
            _set(self, "_kets", kets)
        return kets

    def _store(self, terms: dict[Ket, complex], n2: float, registry: frozenset[ModeLabel],
               count: int, hv_used: bool, route: tuple[dict, dict],
               kets: dict[Ket, complex] | None) -> None:
        """Cap the squared norm at 1 and set the slots. ``route`` is the pair
        (stored photon -> mode, mode -> stored photons); ``kets`` the physical
        terms, or None to build them on the first read."""
        if n2 > _NORM_SQ_CAP:
            raise ValueError(f"squared norm {n2} exceeds 1")
        _set(self, "_terms", terms)
        _set(self, "_norm2", n2)
        _set(self, "_route", route)
        _set(self, "_kets", kets)
        _set(self, "modes", registry)
        _set(self, "photon_count", count)
        _set(self, "uses_polarization", hv_used)

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return PureState, (self._physical(), self.modes)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def __delattr__(self, name):
        raise AttributeError("PureState is immutable")

    @property
    def terms(self) -> Mapping[Ket, complex]:
        return _Terms(self)

    def __eq__(self, other: object) -> bool:
        # registry metadata (modes) intentionally ignored
        if not isinstance(other, PureState):
            return NotImplemented
        return self._physical() == other._physical()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        ordered = sorted(self._physical().items(), key=lambda kv: _ket_key(kv[0]))
        parts = " + ".join(f"({amp:.6g}){ket}" for ket, amp in ordered)
        return f"PureState({parts})"


def _split(state: PureState, mode: ModeLabel, outs: tuple[ModeLabel, ModeLabel],
           amps: tuple[float, float], registry: frozenset[ModeLabel]) -> PureState:
    """A VBS's output: each term with a photon in ``mode`` becomes two, with
    that photon stored under each label of ``outs`` and the amplitude scaled
    by the matching factor of ``amps``; every other term passes on."""
    if not state._route[1].keys().isdisjoint(outs):
        # the route names an output label (every mode a PBS made or consumed,
        # so every label of a photon it moved): store the physical kets anew
        state = PureState(state._physical(), state.modes)
    held = state._holders(mode)
    (out_t, out_r), (amp_t, amp_r) = outs, amps
    terms = {}
    for ket, amp in state._terms.items():
        pol = ket._pol
        for label, tag in held:
            if pol.get(label) is tag:
                terms[ket.move(label, out_t)] = amp * amp_t
                terms[ket.move(label, out_r)] = amp * amp_r
                break
        else:
            terms[ket] = amp
    return PureState._derive(state, terms, registry)


def _steer(state: PureState, ports: Mapping[ModeLabel, Mapping[Polarization, ModeLabel]],
           registry: frozenset[ModeLabel]) -> PureState:
    """A PBS's output: the same stored terms and squared norm, and a route
    that sends each photon in an input mode of ``ports`` to the output that
    ``ports`` names for its tag. Costs O(ports) and one route copy, and with
    two inputs a scan of the terms in the first for a ModeCollision: two
    photons that would share an output."""
    moves = [(photon, out[photon[1]]) for src, out in ports.items()
             for photon in state._holders(src)]
    if len(ports) == 2:
        a, b = ports
        for ket in state._holding(a):
            photons = ket._pol.items()
            dsts = [dst for photon, dst in moves if photon in photons]
            if len(set(dsts)) < len(dsts):
                raise ModeCollision(f"photons in {a!r} and {b!r} would share an output")
    to, at = map(dict.copy, state._route)
    for src, out in ports.items():
        at[src] = ()
        at.update(dict.fromkeys(out.values(), ()))
    for photon, dst in moves:
        to[photon] = dst
        at[dst] += (photon,)
    steered = object.__new__(PureState)
    steered._store(state._terms, state._norm2, registry, state.photon_count,
                   state.uses_polarization, (to, at), None)
    return steered


def _dark(state: PureState, mode: ModeLabel) -> PureState:
    """A vacuum detector's kept state: the terms with no photon in ``mode``,
    in term order. Raises ZeroState when every term holds one."""
    kept = state._terms.copy()
    for ket in state._holding(mode):
        del kept[ket]
    if not kept:
        raise ZeroState(f"vacuum branch at {mode!r} is empty")
    return PureState._derive(state, kept, state.modes)


class _Terms(Mapping):
    """Read-only view of a state's terms over the modes their photons occupy.

    A route only renames photons, so the view's length is the number of
    stored terms and ``len`` builds no ket. Every other read goes to the
    physical kets (``PureState._physical``).
    """

    __slots__ = ("_state",)

    def __init__(self, state: PureState) -> None:
        self._state = state

    def __len__(self) -> int:
        return len(self._state._terms)

    def __getitem__(self, ket: Ket) -> complex:
        return self._state._physical()[ket]

    def __iter__(self):
        return iter(self._state._physical())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._state._physical()!r})"


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
    tb = b._physical()
    shared = sorted(
        ((_ket_key(k), x, y) for k, x in a._physical().items() if (y := tb.get(k)) is not None),
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
