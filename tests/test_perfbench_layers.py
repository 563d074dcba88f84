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
    # node odds, here of the did QTT moment.
    runs = [("stm-cov", ["att"]), ("stm-cov", ["qtt", "--tau", "0.5"]),
            ("did", ["qtt", "--tau", "0.5"])]
    with installed(tracer, cicdml_layers()):
        for dgp, estimand in runs:
            assert main(["estimate", "--input", str(csv[dgp]), "--folds", "2",
                         "--output", str(tmp_path / "estimate.json"), "--estimand"]
                        + estimand) == 0
    names = {span.name for span in tracer.spans}
    assert {"cli.ingest_csv", "estimator.fit_fold_nuisances", "eif.integrate_nu_many",
            "nuisance.NuFn.integral_many", "estimator.solve_quantile_root",
            "nuisance.GammaMap.evaluate_many", "nuisance.NuFn.evaluate_many"} <= names
