"""The benchmark's tracer wraps package hooks by name; keep those names alive.

``bench/tracing.py`` replaces functions at the places callers look them up
(module globals, the CLI driver table, class attributes such as
``Ket.__post_init__``). A renamed or bypassed hook would leave a per-layer
metric silently empty, so these tests install and remove the tracer and run
the CLI once under it. The file is read, never imported as a package module.
"""
import types
from pathlib import Path

from wecp import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_restores_every_binding():
    tracing = load_tracing()
    before = tracing.bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.bindings()
    finally:
        tracer.remove()
    assert all(w is not b and w.__wrapped__ is b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(tracing.bindings(), before))


def test_every_traced_hook_is_reached(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["run", "--protocol", "polarization", "--coeffs2", "0.5,0.3,0.2"]) == 0
        assert cli.main(["run", "--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2"]) == 0
        assert cli.main(["compare", "--points", "3"]) == 0
        spans, _ = tracer.take()
    finally:
        tracer.remove()
    capsys.readouterr()
    assert set(tracing.SPAN_NAMES) <= {name for name, *_ in spans}
