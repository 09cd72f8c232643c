"""Every name the traced benchmark wraps must exist in the package.

``perfbench/tracing.py`` looks each layer up with ``getattr`` when it
installs its wrappers, so a renamed or deleted function would crash every
traced benchmark run.  This loads that file by path, without changing it,
and resolves each of its names.  Its wrappers are also rebound into module
globals, ``autodiff.ACTIVATIONS`` and class attributes, so removing them
must restore every original.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    missing = [f"{m.__name__}.{attr}" for m, attr in tracing.FUNCTIONS
               if not callable(getattr(m, attr, None))]
    missing += [f"{m.__name__}.{cls.__name__}.{attr}" for m, cls, attr in tracing.METHODS
                if not callable(getattr(cls, attr, None))]
    missing += [f"autodiff.{op}" for ops in tracing.AUTODIFF_GROUPS.values() for op in ops
                if not callable(getattr(tracing.autodiff, op, None))]
    assert missing == []
    assert tracing.FUNCTIONS and tracing.METHODS and tracing.AUTODIFF_GROUPS


def test_instrument_then_remove_restores_every_binding():
    from qivcnet import autodiff as ad
    from qivcnet.network import QivcNet

    tracing = _load_tracing()

    def bindings():
        # the activations, built from one table, are module globals and
        # ACTIVATIONS entries alike; the tracer must wrap and restore both
        acts = [ad.ACTIVATIONS[name] for name in ("relu", "tanh", "sigmoid")]
        return (ad.lstm, ad.backward, ad.tanh, ad.sigmoid, *acts, QivcNet.forward)

    originals = bindings()
    remove = tracing.instrument(tracing.Tracer("guard"))
    try:
        wrapped = bindings()
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        remove()
    restored = bindings()
    assert all(r is o for r, o in zip(restored, originals))
