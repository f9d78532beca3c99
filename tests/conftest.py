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
