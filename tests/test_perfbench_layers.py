"""The functions the traced benchmark run wraps by name still exist.

``perfbench/layers.py`` patches cicdml functions and methods by their
names; a rename would break only the traced run, which is not part of
this suite.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    from layers import cicdml_layers

    layers = cicdml_layers()
    assert layers
    for layer in layers:
        assert callable(getattr(layer.owner, layer.attr, None)), layer.name


def test_a_traced_estimate_records_its_layers(monkeypatch, tmp_path):
    # The counts read the wrapped functions' leading positional arguments.
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    from layers import cicdml_layers
    from spans import Tracer, installed

    from cicdml.cli import main

    csv = {}
    for dgp in ("stm-cov", "did"):
        csv[dgp] = tmp_path / f"{dgp}.csv"
        assert main(["simulate", "--dgp", dgp, "--n", "200", "--seed", "1",
                     "--out", str(csv[dgp]), "--output", str(tmp_path / "simulate.json")]) == 0
    tracer = Tracer()
    # Pointwise fitted odds (NuFn.evaluate_many) are reached by the p = 0
    # node odds of the did QTT moment, whose nodes at n = 200 take the
    # dense sums.
    runs = [("stm-cov", ["att"]), ("stm-cov", ["qtt", "--tau", "0.5"]),
            ("did", ["qtt", "--tau", "0.5"])]
    layers = cicdml_layers()
    with installed(tracer, layers):
        for dgp, estimand in runs:
            assert main(["estimate", "--input", str(csv[dgp]), "--folds", "2",
                         "--output", str(tmp_path / "estimate.json"), "--estimand"]
                        + estimand) == 0
    # Every layer records spans, so that no refactor leaves a benchmark
    # layer reading zero unseen; the covariate transport map is fused
    # into GammaMap, so CondCdf and CondQuantile are no longer called.
    unreached = {"nuisance.CondCdf.evaluate_many", "nuisance.CondQuantile.evaluate_many"}
    assert {span.name for span in tracer.spans} == {layer.name for layer in layers} - unreached
