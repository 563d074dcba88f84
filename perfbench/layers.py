"""The cicdml functions the traced run wraps, and the counts each records.

Each is patched where its caller looks it up: module globals in the
module that calls them, methods on their class. Counts come from array
shapes at the call: ``rows`` are query rows, ``kernel_evals`` are query
rows times training rows where kernel weights are formed (none for the
covariate-free rank arithmetic), ``intervals`` are odds integrals asked
for, ``fn_evals`` are calls of the root solver's estimating function.
"""

from __future__ import annotations

from spans import Layer


def _rows(args, result):
    return {"rows": len(args[1])}


def _nu_rows(args, result):
    nu, x = args[0], args[1]
    return {"rows": len(x), "kernel_evals": len(x) * nu.z.shape[0]}


def _cdf_rows(args, result):
    cdf, y = args[0], args[1]
    return {"rows": len(y), "kernel_evals": len(y) * cdf.m if cdf.p else 0}


def _quantile_rows(args, result):
    quant, u = args[0], args[1]
    return {"rows": len(u), "kernel_evals": len(u) * quant.cdf.m if quant.p else 0}


def cicdml_layers() -> list:
    from cicdml import cli, estimator, nuisance

    return [
        Layer(cli, "ingest_csv", "cli.ingest_csv", ("rows",),
              lambda args, res: {"rows": res.n}),
        Layer(cli, "estimate", "estimator.estimate"),
        Layer(estimator, "partition_folds", "data_model.partition_folds"),
        Layer(estimator, "fit_fold_nuisances", "estimator.fit_fold_nuisances", ("calls",),
              lambda args, res: {"calls": 1}),
        Layer(estimator, "fit_nu", "nuisance.fit_nu"),
        Layer(estimator, "solve_att_once", "estimator.solve_att_once"),
        Layer(estimator, "integrate_nu_many", "eif.integrate_nu_many", ("intervals",),
              lambda args, res: {"intervals": len(args[0])}),
        Layer(estimator, "solve_quantile_root", "estimator.solve_quantile_root",
              ("fn_evals",), counts_fn_evals=True),
        Layer(nuisance.NuFn, "integral_many", "nuisance.NuFn.integral_many", ("intervals",),
              lambda args, res: {"intervals": len(args[1])}),
        Layer(nuisance.NuFn, "evaluate_many", "nuisance.NuFn.evaluate_many",
              ("rows", "kernel_evals"), _nu_rows),
        Layer(nuisance.GammaMap, "evaluate_many", "nuisance.GammaMap.evaluate_many",
              ("rows",), _rows),
        Layer(nuisance.CondCdf, "evaluate_many", "nuisance.CondCdf.evaluate_many",
              ("rows", "kernel_evals"), _cdf_rows),
        Layer(nuisance.CondQuantile, "evaluate_many", "nuisance.CondQuantile.evaluate_many",
              ("rows", "kernel_evals"), _quantile_rows),
        Layer(nuisance.DensityFn, "evaluate_many", "nuisance.DensityFn.evaluate_many"),
    ]

