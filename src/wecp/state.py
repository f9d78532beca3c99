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
from math import fsum
from operator import itemgetter

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


# An enum member read costs over ten global reads; the convention is read per PBS and fidelity.
_NONE = Polarization.NONE


class Ket:
    """Photon pattern: which modes hold a photon, and each photon's tag.

    A ket is its mode→polarization map, so kets built from permuted photon
    lists compare equal. The hash is the hash of the frozenset of its (mode,
    tag) pairs, computed once when the ket is built. ``photons`` and ``modes``
    are sorted by mode label and derived on demand. Kets are immutable.
    """

    __slots__ = ("_pol", "_hash")

    def __init__(self, photons: Iterable[tuple[ModeLabel, Polarization]]) -> None:
        self.__post_init__(tuple(photons))

    def __post_init__(self, photons: tuple[tuple[ModeLabel, Polarization], ...]) -> None:
        pol = dict(photons)
        if len(pol) != len(photons):
            raise ModeCollision(f"duplicate occupancy in ket: {sorted(m for m, _ in photons)}")
        _put_pol(self, pol)
        _put_hash(self, hash(frozenset(photons)))

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
        if src not in pol:
            raise KeyError(f"no photon in mode {src!r}")
        if dst in pol:
            raise ModeCollision(f"mode {dst!r} already holds a photon in {self}")
        moved = pol.copy()
        moved[dst] = moved.pop(src)
        return _ket_of(moved)

    def __repr__(self) -> str:
        inner = " ".join(
            m if pol is Polarization.NONE else f"{pol.value}@{m}"
            for m, pol in self.photons
        )
        return f"|{inner}>"


def _ket_of(pol: dict[ModeLabel, Polarization]) -> Ket:
    """The ket whose mode->tag map is ``pol``, which it then owns."""
    ket = object.__new__(Ket)
    _put_pol(ket, pol)
    _put_hash(ket, hash(frozenset(pol.items())))
    return ket


def _fsum(values: Iterable[float]) -> float:
    """Every sum that feeds an output: the correctly rounded sum of ``values``
    (``math.fsum``), whose bits depend on neither their order nor the Python
    version. A sum past the largest float is ``inf``, as float addition gives,
    where ``math.fsum`` raises OverflowError."""
    try:
        return fsum(values)
    except OverflowError:
        return float("inf")


def _prune(pairs: Iterable[tuple[Ket, complex]]) -> tuple[list, list, list]:
    """The amplitude pass: the kets, amplitudes and squared moduli (``re*re +
    im*im``) of the pairs at or above ``DEFAULT_PRUNE_EPS``; a NaN raises."""
    kets, amps, squares = [], [], []
    for ket, a in pairs:
        m2 = a.real * a.real + a.imag * a.imag
        if m2 >= DEFAULT_PRUNE_EPS:
            kets.append(ket)
            amps.append(a)
            squares.append(m2)
        elif not m2 < DEFAULT_PRUNE_EPS:
            raise ValueError(f"amplitude {a} at {ket} is NaN")
    return kets, amps, squares


def _norm(squares: list[float]) -> float:
    """The correctly rounded sum of the squared moduli; ZeroState if there are none."""
    if not squares:
        raise ZeroState("state has no terms above the pruning threshold")
    return _fsum(squares)


class PureState:
    """Immutable sparse superposition of single-occupancy kets.

    Terms are three ordered columns, never written once built: the stored
    kets, their amplitudes and each amplitude's squared modulus, whose
    correctly rounded sum is the squared norm. Only new amplitudes go
    through ``_prune``. The constructor's are all new; it also checks each
    term's photon count, convention and modes, which elements keep, so both
    are read from the first stored ket and stored nowhere else. A VBS or
    a detector copies its input's columns in C and splices in or deletes only
    the terms it changes; a PBS shares them. Copy and pickle go through the
    constructor.

    A route is one map: each mode a PBS made or consumed to the stored
    photons ``(label, tag)`` it holds (none, once consumed); any other mode
    holds the photons stored under its label. A PBS empties every input it
    consumes, so each stored photon sits in at most one entry. The route is
    empty from the constructor; a PBS extends a copy in O(ports), a VBS or a
    detector hands it on, and a VBS stores the photons it splits under its
    output labels. The physical kets are the stored kets until a PBS acts;
    after that they are built from the route where read (``terms``, ``==``,
    ``repr``, ``fidelity``, copy, pickle). Every state's physical
    ket->amplitude map is built on its first read and kept; ``len`` builds
    nothing.

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

    __slots__ = ("_stored", "_amps", "_squares", "_norm2", "_route", "_terms", "modes")

    def __init__(self, terms: Mapping[Ket, complex],
                 modes: Iterable[ModeLabel] | None = None) -> None:
        kets, amps, squares = _prune(zip(terms, map(complex, terms.values())))
        n2 = _norm(squares)
        pols = [ket._pol for ket in kets]
        counts = set(map(len, pols))
        tags = set().union(*[pol.values() for pol in pols])
        occupied = frozenset().union(*pols)
        registry = occupied if modes is None else frozenset(modes)
        if len(counts) > 1:
            raise IncompatibleStates(f"photon count differs across kets: {sorted(counts)}")
        if _NONE in tags and len(tags) > 1:
            raise IncompatibleStates("kets mix tagged and untagged photons")
        if not occupied <= registry:
            raise ValueError(f"terms occupy unregistered modes: {set(occupied - registry)}")
        self._store(kets, amps, squares, n2, registry, {})

    @property
    def photon_count(self) -> int:
        """Photons in each ket, read from the first; the constructor checks they agree."""
        return len(self._stored[0]._pol)

    @property
    def uses_polarization(self) -> bool:
        """Whether the photons carry H/V tags, read from the first photon; the
        constructor lets no state mix conventions. A ket of no photons holds
        no untagged one, so it reads as tagged."""
        return next(iter(self._stored[0]._pol.values()), None) is not _NONE

    def _holders(self, mode: ModeLabel) -> tuple[tuple[ModeLabel, Polarization], ...]:
        """The stored (label, tag) photons in ``mode``, whether a term holds them
        or not. Only a PBS asks, and only of a polarization state."""
        placed = self._route.get(mode)
        if placed is not None:
            return placed
        return (mode, Polarization.H), (mode, Polarization.V)

    def _holding(self, mode: ModeLabel) -> list[tuple[int, ModeLabel]]:
        """(position, stored label) of each photon in ``mode``, in term order:
        the VBS's, detector's and PBS's one scan. A ket holds one at most."""
        placed = self._route.get(mode)
        if placed is None:
            return [(i, mode) for i, ket in enumerate(self._stored) if mode in ket._pol]
        return sorted([(i, label) for label, tag in placed
                       for i, ket in enumerate(self._stored) if ket._pol.get(label) is tag])

    def _physical_kets(self) -> list[Ket]:
        """The kets over the modes their photons occupy: the stored kets until
        a PBS acts, else built here through the route's inverse."""
        if not self._route:
            return self._stored
        where = {photon: mode for mode, photons in self._route.items() for photon in photons}.get
        kets = []
        for ket in self._stored:
            pol = ket._pol
            moved = dict(zip(map(where, pol.items(), pol), pol.values()))
            if len(moved) != len(pol):
                raise ModeCollision(f"the route puts two photons of {ket} in one mode")
            kets.append(_ket_of(moved))
        return kets

    def _physical(self) -> dict[Ket, complex]:
        """The physical ket->amplitude map, in term order, built on first read."""
        terms = self._terms
        if terms is None:
            terms = dict(zip(self._physical_kets(), self._amps))
            _put_terms(self, terms)
        return terms

    def _store(self, stored: list[Ket], amps: list[complex], squares: list[float], n2: float,
               registry: frozenset[ModeLabel], route: dict) -> None:
        """Cap the squared norm at 1 and set the slots; ``_physical`` builds the map."""
        if n2 > _NORM_SQ_CAP:
            raise ValueError(f"squared norm {n2} exceeds 1")
        _put_stored(self, stored)
        _put_amps(self, amps)
        _put_squares(self, squares)
        _put_norm2(self, n2)
        _put_route(self, route)
        _put_terms(self, None)
        _put_modes(self, registry)

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
        ordered = sorted(zip(self._physical_kets(), self._amps),
                         key=lambda kv: [(m, pol.value) for m, pol in kv[0].photons])
        parts = " + ".join(f"({amp:.6g}){ket}" for ket, amp in ordered)
        return f"PureState({parts})"


# Slots are written past the guards by their descriptors: half object.__setattr__'s cost.
_put_pol, _put_hash = Ket._pol.__set__, Ket._hash.__set__
(_put_stored, _put_amps, _put_squares, _put_norm2, _put_route, _put_terms,
 _put_modes) = [getattr(PureState, slot).__set__ for slot in PureState.__slots__]


def _columns(parent: PureState, stored: list[Ket], amps: list[complex],
             squares: list[float], registry: frozenset[ModeLabel]) -> PureState:
    """A VBS's or a detector's output: checked columns with the route of
    ``parent``; the photon count and convention come with the kets.
    Precondition (the port rule and ``_split`` keep it): each ket is the
    parent's or moved by ``Ket.move`` to a label no stored photon or route
    names, no two are equal, and ``registry`` holds their modes."""
    state = object.__new__(PureState)
    state._store(stored, amps, squares, _norm(squares), registry, parent._route)
    return state


def _split(state: PureState, mode: ModeLabel, outs: tuple[ModeLabel, ModeLabel],
           factors: tuple[float, float], registry: frozenset[ModeLabel]) -> PureState:
    """A VBS's output: each term with a photon in ``mode`` becomes two in its
    slot, the photon under each label of ``outs``, scaled by each factor."""
    if not state._route.keys().isdisjoint(outs):
        # the route names an output label (every mode a PBS made or consumed,
        # so every label of a photon it moved): store the physical kets anew
        state = PureState(state._physical(), state.modes)
    (out_t, out_r), (amp_t, amp_r) = outs, factors
    stored, amps, squares = list(state._stored), list(state._amps), list(state._squares)
    for i, label in reversed(state._holding(mode)):
        ket, amp = stored[i], amps[i]
        stored[i:i + 1], amps[i:i + 1], squares[i:i + 1] = _prune(
            ((ket.move(label, out_t), amp * amp_t), (ket.move(label, out_r), amp * amp_r)))
    return _columns(state, stored, amps, squares, registry)


def _steer(state: PureState, ports: Mapping[ModeLabel, Mapping[Polarization, ModeLabel]],
           registry: frozenset[ModeLabel]) -> PureState:
    """A PBS's output: the same columns and norm, and a route sending each
    photon in an input of ``ports`` to the output named for its tag. With two
    inputs, one scan finds a ModeCollision: two photons sharing an output."""
    moves = [(photon, out[photon[1]]) for src, out in ports.items()
             for photon in state._holders(src)]
    if len(ports) == 2:
        a, b = ports
        for i, _ in state._holding(a):
            photons = state._stored[i]._pol.items()
            dsts = [dst for photon, dst in moves if photon in photons]
            if len(set(dsts)) < len(dsts):
                raise ModeCollision(f"photons in {a!r} and {b!r} would share an output")
    route = state._route.copy()
    for src, out in ports.items():
        route[src] = ()
        route.update(dict.fromkeys(out.values(), ()))
    for photon, dst in moves:
        route[dst] += (photon,)
    steered = object.__new__(PureState)
    steered._store(state._stored, state._amps, state._squares, state._norm2, registry, route)
    return steered


def _dark(state: PureState, mode: ModeLabel) -> PureState:
    """A vacuum detector's kept state: the terms with no photon in ``mode``."""
    hits = state._holding(mode)
    if len(hits) == len(state._stored):
        raise ZeroState(f"vacuum branch at {mode!r} is empty")
    stored, amps, squares = list(state._stored), list(state._amps), list(state._squares)
    for i, _ in reversed(hits):
        del stored[i], amps[i], squares[i]
    return _columns(state, stored, amps, squares, state.modes)


class _Terms(Mapping):
    """Read-only view of the physical terms (``PureState._physical``); as a
    route only renames photons, ``len`` counts stored terms, building none."""

    __slots__ = ("_state",)

    def __init__(self, state: PureState) -> None:
        self._state = state

    def __len__(self) -> int:
        return len(self._state._stored)

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

    Exactly symmetric in its arguments: swapping them conjugates each
    product ``x.conjugate() * y`` exactly, the overlap's real and imaginary
    parts are each one correctly rounded sum, which term order cannot change,
    and the norms enter as one commutative product.
    States on disjoint kets give 0.0; that is a valid answer, not an error.

    Raises:
        IncompatibleStates: the states use different polarization conventions.
    """
    if a.uses_polarization != b.uses_polarization:
        raise IncompatibleStates("cannot overlap tagged and untagged states")
    tb = b._physical()
    products = [x.conjugate() * y for k, x in zip(a._physical_kets(), a._amps)
                if (y := tb.get(k)) is not None]
    overlap = complex(_fsum([p.real for p in products]), _fsum([p.imag for p in products]))
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
