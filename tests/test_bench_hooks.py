"""`bench/layers.py` wraps library attributes by name (`sampler.sample_rbm`,
`charpoly.tridiagonalize_batch`, the `covariance_profile` bound in `cli`, ...):
deleting or renaming one breaks `bench/run.py --trace 1`, and this test with it."""

from pathlib import Path


def test_layers_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import layers

    tracer = layers.install()
    try:
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched and all(getattr(module, attr) is inner for module, attr, inner in patched)
