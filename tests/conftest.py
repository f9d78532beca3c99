from hypothesis import HealthCheck, settings

from wecp.cli import _sample_coefficients

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def sample_coeffs(rng, n, floor):
    """Coefficients drawn as ``wecp verify`` draws them: Dirichlet(1, ..., 1)
    squared moduli with random phases, from a ``random.Random``. Drawn again
    until every squared modulus is at least ``floor``."""
    while True:
        c = _sample_coefficients(rng, n)
        if min(c.moduli_squared) >= floor:
            return c


def canonical(state):
    """No difference repeats the reference: each entry is a photon that the
    reference lacks or tags otherwise, or None where the reference holds one."""
    return all(state._ref.get(mode) is not tag
               for diff in state._diffs for mode, tag in diff._pol.items())
