"""Command-line interface: model construction, bound/rate evaluation,
trajectory simulation, bound-vs-simulation comparison, inequality reports,
and the fixture check suite.

Exit codes: 0 success, 1 validation error (a file that cannot be read or
written included), 2 numerical failure. Errors are emitted on stderr as one
JSON object {code, message, context}. Every output file is accompanied by a
run manifest recording input digests, the seed, and the parameters, so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .deviation import main_bound, rate_function
from .inequalities import (
    LipschitzContext,
    concentration_bound,
    functional_constants,
    lipschitz_norm,
    tilde_observable,
)
from .linalg import NumericalError, QdevError, ValidationError
from .lindblad import check_detailed_balance, lindbladian_from_channel
from .models import (
    ClassicalChain,
    appendix_b_fixtures,
    classical_embedding,
    depolarizing,
    heat_bath,
    maximally_mixed,
    require_depolarizing_dim,
    tensor_product,
)
from .trajectories import run_ensemble


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token that starts with "-" and a digit (--grid -0.5:0.5:3, --t -1,2)
        # is a value: argparse's own rule takes only a plain negative number
        # for one, and no qdev option starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValidationError(message)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"cannot parse float list {text!r}")
    if not values:
        raise ValidationError(f"float list {text!r} is empty")
    if not all(math.isfinite(x) for x in values):
        raise ValidationError(f"float list {text!r} has a value that is not finite")
    return values


def _resolve_seed(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("QDEV_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"QDEV_SEED={env!r} is not an integer") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="qdev", description=__doc__)
    parser.add_argument("--threads", type=int, default=1, help="worker threads for ensemble runs")
    parser.add_argument("--format", default="csv", choices=["csv", "json"],
                        help="tabular output format; json embeds the run manifest")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_model = sub.add_parser("model", help="construct model files")
    model_sub = p_model.add_subparsers(dest="model_verb", required=True)
    p_new = model_sub.add_parser("new")
    p_new.add_argument("--template", required=True,
                       choices=["depolarizing", "classical", "tensor", "heat-bath", "appendix-b"])
    p_new.add_argument("--dim", type=int)
    p_new.add_argument("--sigma", help="state JSON for the depolarizing target")
    p_new.add_argument("--rates-file", help="JSON rate matrix for classical chains")
    p_new.add_argument("--factors", nargs="*", help="model files for tensor products")
    p_new.add_argument("--lattice-file", help="JSON heat-bath description")
    p_new.add_argument("--which", default="psi", choices=["psi", "psi-tilde", "p-channel"])
    p_new.add_argument("--p", type=float, default=0.3)
    p_new.add_argument("-o", "--output", required=True)

    p_bound = sub.add_parser("bound", help="finite-time deviation bound")
    p_bound.add_argument("--model", required=True)
    p_bound.add_argument("--setup", required=True)
    p_bound.add_argument("--state", help="initial state JSON (default: stationary)")
    p_bound.add_argument("--r", required=True, help="comma-separated thresholds")
    p_bound.add_argument("--t", required=True, help="comma-separated times")
    p_bound.add_argument("-o", "--output", required=True)

    p_rate = sub.add_parser("rate", help="large-deviation rate function table")
    p_rate.add_argument("--model", required=True)
    p_rate.add_argument("--setup", required=True)
    p_rate.add_argument("--grid", help="lo:hi:n for single-channel setups")
    p_rate.add_argument("--grid-file", help="JSON list of grid points")
    p_rate.add_argument("-o", "--output", required=True)

    p_sim = sub.add_parser("simulate", help="trajectory ensemble")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--setup", required=True)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--state")
    p_sim.add_argument("--r", required=True)
    p_sim.add_argument("--seed", type=int, help="overrides QDEV_SEED and the config seed")
    p_sim.add_argument("--paths-dump", help="per-path estimator CSV")
    p_sim.add_argument("-o", "--output", required=True)

    p_cmp = sub.add_parser("compare", help="join simulate and bound CSVs")
    p_cmp.add_argument("--simulate-csv", required=True)
    p_cmp.add_argument("--bound-csv", required=True)
    p_cmp.add_argument("-o", "--output", required=True)

    p_ineq = sub.add_parser("inequalities", help="constants and symmetry report")
    p_ineq.add_argument("--model", required=True)
    p_ineq.add_argument("--setup", help="optional setup for per-direction Lipschitz norms")
    p_ineq.add_argument("-o", "--output", required=True, help="prefix; writes .json and .csv")

    p_conc = sub.add_parser("concentrate", help="closed-form concentration bounds")
    p_conc.add_argument("--variant", required=True,
                        choices=["ti_gaussian", "ti_lipschitz", "poincare", "depolarizing",
                                 "tensor", "gibbs"])
    p_conc.add_argument("--t", required=True)
    p_conc.add_argument("--r", required=True)
    p_conc.add_argument("--prefactor", type=float, default=1.0)
    p_conc.add_argument("--ti-constant", type=float)
    p_conc.add_argument("--lipschitz-value", type=float)
    p_conc.add_argument("--gap", type=float)
    p_conc.add_argument("--sup-norm", type=float)
    p_conc.add_argument("--dim", type=int)
    p_conc.add_argument("--eigenvalue-spread", type=float)
    p_conc.add_argument("--lsi-alpha2", type=float)
    p_conc.add_argument("--n-factors", type=int)
    p_conc.add_argument("--alpha-u", type=float)
    p_conc.add_argument("--beta-h-norm", type=float)
    p_conc.add_argument("--attest-hypothesis", action="store_true")
    p_conc.add_argument("-o", "--output", required=True)

    p_check = sub.add_parser("check", help="run the fixture suite")
    p_check.add_argument("--suite", default="paper-fixtures", choices=["paper-fixtures"])
    return parser


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------

def _cmd_model_new(args, argv) -> int:
    template = args.template
    if template == "depolarizing":
        # The declared dimension is checked against the guard before any
        # state of that size is loaded or built.
        if args.sigma:
            dim = fileio.require_int(fileio.load_object(args.sigma), "dim", args.sigma)
            lind = depolarizing(fileio.load_state(args.sigma, require_depolarizing_dim(dim)))
        else:
            if args.dim is None:
                raise ValidationError("depolarizing template needs --dim or --sigma")
            if args.dim < 1:
                raise ValidationError(f"--dim must be at least 1, got {args.dim}")
            lind = depolarizing(maximally_mixed(require_depolarizing_dim(args.dim)))
    elif template == "classical":
        if not args.rates_file:
            raise ValidationError("classical template needs --rates-file")
        lind = classical_embedding(ClassicalChain(fileio.load_real_array(args.rates_file)))
    elif template == "tensor":
        if not args.factors:
            raise ValidationError("tensor template needs --factors")
        lind = tensor_product([fileio.load_model(f).context.lindbladian for f in args.factors])
    elif template == "heat-bath":
        if not args.lattice_file:
            raise ValidationError("heat-bath template needs --lattice-file")
        lind = heat_bath(fileio.load_lattice(args.lattice_file))
    elif template == "appendix-b":
        fx = appendix_b_fixtures(p=args.p)
        which = {"psi": fx.psi, "psi-tilde": fx.psi_tilde, "p-channel": fx.p_channel}[args.which]
        lind = lindbladian_from_channel(which)
        template = f"appendix-b:{args.which}"
    fileio.save_model(args.output, hamiltonian=lind.hamiltonian, jumps=lind.jumps, template=template)
    fileio.write_manifest(args.output, argv, _existing_inputs(args), {"template": args.template})
    return 0


def _existing_inputs(args) -> list[str]:
    paths = []
    for name in ("model", "setup", "config", "state", "sigma", "rates_file", "lattice_file",
                 "simulate_csv", "bound_csv", "grid_file"):
        value = getattr(args, name, None)
        if value and Path(value).exists():
            paths.append(value)
    for f in getattr(args, "factors", None) or []:
        if Path(f).exists():
            paths.append(f)
    return paths


def _cmd_bound(args, argv) -> int:
    model = fileio.load_model(args.model)
    setup = fileio.load_setup(args.setup, model.context)
    r = np.asarray(_float_list(args.r))
    ts = _float_list(args.t)
    rho = (fileio.load_state(args.state, model.context.dim) if args.state
           else model.context.sigma)
    report = main_bound(setup, rho, r)
    header = (["t"] + [f"r{i}" for i in range(setup.ell)]
              + ["exponent", "prefactor", "bound", "residual", "status"])
    rows = []
    for t in ts:
        rows.append([t, *r.tolist(), report.exponent, report.prefactor, report.bound(t),
                     report.stationarity_residual, report.status])
    fileio.emit_report(args.output, header, rows, args.format, argv,
                       _existing_inputs(args), {"r": r.tolist(), "t": ts})
    return 0


def _cmd_rate(args, argv) -> int:
    model = fileio.load_model(args.model)
    setup = fileio.load_setup(args.setup, model.context)
    if args.grid_file:
        grid = fileio.load_real_array(args.grid_file)
    elif args.grid:
        try:
            lo, hi, count = args.grid.split(":")
            ends = [float(lo), float(hi)]
            if not all(math.isfinite(x) for x in ends):
                raise ValueError
            n = int(count)
        except ValueError:
            raise ValidationError(f"cannot parse grid spec {args.grid!r} "
                                  "(expected lo:hi:n with finite lo and hi)")
        if n < 1:
            raise ValidationError(f"grid spec {args.grid!r} has n = {n}; need at least one point")
        grid = np.linspace(*ends, n)[:, None]
        if setup.ell != 1:
            raise ValidationError("--grid is for single-channel setups; use --grid-file")
    else:
        raise ValidationError("rate needs --grid or --grid-file")
    points = rate_function(setup, grid)
    header = [f"s{i}" for i in range(setup.ell)] + ["rate", "residual", "status"]
    rows = [[*p.s.tolist(), p.value if math.isfinite(p.value) else math.inf, p.residual, p.status]
            for p in points]
    fileio.emit_report(args.output, header, rows, args.format, argv,
                       _existing_inputs(args), {"n_points": len(points)})
    return 0


def _cmd_simulate(args, argv) -> int:
    model = fileio.load_model(args.model)
    setup = fileio.load_setup(args.setup, model.context)
    config = fileio.load_config(args.config, seed_override=_resolve_seed(args))
    r = np.asarray(_float_list(args.r))
    rho = (fileio.load_state(args.state, model.context.dim) if args.state
           else model.context.sigma)
    result = run_ensemble(setup, rho, config, r, n_threads=args.threads)
    header = (["t"] + [f"r{i}" for i in range(setup.ell)]
              + [f"estimator_mean{i}" for i in range(setup.ell)]
              + [f"estimator_stderr{i}" for i in range(setup.ell)]
              + ["count", "n_paths", "estimate", "ci_low", "ci_high",
                 "clip_violation_fraction", "n_resampled", "status"])
    rows = []
    for i, t in enumerate(result.checkpoint_times):
        tail = result.tails[i]
        status = "ok" if np.all(np.isfinite(result.estimator_mean[i])) else "failed"
        rows.append([t, *r.tolist(), *result.estimator_mean[i].tolist(),
                     *result.estimator_stderr[i].tolist(), tail.count, tail.n_paths,
                     tail.estimate, tail.ci_low, tail.ci_high,
                     result.clip_violation_fraction, result.n_resampled, status])
    parameters = {"r": r.tolist(), "n_paths": config.n_paths, "dt": config.dt, "t_max": config.t_max}
    fileio.emit_report(args.output, header, rows, args.format, argv,
                       _existing_inputs(args), parameters, base_seed=config.base_seed)
    if args.paths_dump:
        header = ["path", "t"] + [f"estimator{i}" for i in range(setup.ell)]
        rows = [[p, t, *est[i].tolist()] for p, est in enumerate(result.path_estimators)
                for i, t in enumerate(result.checkpoint_times)]
        fileio.write_csv(args.paths_dump, header, rows)
        fileio.write_manifest(args.paths_dump, argv, _existing_inputs(args), parameters,
                              base_seed=config.base_seed)
    return 0


def _numeric_columns(path, columns: tuple[str, ...]) -> list[dict[str, float]]:
    """The named columns of every row of a CSV, as floats."""
    header, rows = fileio.read_csv(path)
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValidationError(f"{path} has no {missing[0]!r} column")
    try:
        return [{c: float(row[c]) for c in columns} for row in rows]
    except (TypeError, ValueError):
        raise ValidationError(f"{path} has an empty or non-numeric cell in {columns}") from None


def _cmd_compare(args, argv) -> int:
    sim_rows = _numeric_columns(args.simulate_csv, ("t", "estimate", "ci_low", "ci_high"))
    bound_rows = _numeric_columns(args.bound_csv, ("t", "bound"))
    if not sim_rows or not bound_rows:
        raise ValidationError("compare needs nonempty simulate and bound CSVs")
    bounds_by_t = {row["t"]: row for row in bound_rows}
    header = ["t", "bound", "estimate", "ci_low", "ci_high", "consistent", "margin"]
    rows = []
    for row in sim_rows:
        t = row["t"]
        for tb, match in bounds_by_t.items():
            if abs(tb - t) <= 1e-12 * max(1.0, abs(t)):
                b = match["bound"]
                rows.append([t, b, row["estimate"], row["ci_low"], row["ci_high"],
                             row["ci_low"] <= b, b - row["estimate"]])
                break
    if not rows:
        raise ValidationError("no matching times between the two CSVs")
    fileio.emit_report(args.output, header, rows, args.format, argv,
                       _existing_inputs(args), {"n_rows": len(rows)})
    return 0


def _cmd_inequalities(args, argv) -> int:
    model = fileio.load_model(args.model)
    ctx = model.context
    report: dict = {
        "dim": ctx.dim,
        "primitive": ctx.primitive,
        "stationary_state": fileio.encode_complex_matrix(ctx.sigma),
        # kappa(sigma) = s_max / s_min, null when sigma is not faithful
        "sigma_condition": (float(ctx.faithful.eigenvalues[0] / ctx.faithful.eigenvalues[-1])
                            if ctx.faithful is not None else None),
    }
    symmetry = {}
    for kind in ("GNS", "KMS", "BKM"):
        sym = check_detailed_balance(kind, ctx)
        symmetry[kind] = {"symmetric": sym.symmetric, "deviation": sym.deviation}
    report["symmetry"] = symmetry
    consts = functional_constants(ctx)
    report.update((k, v) for k, v in dataclasses.asdict(consts).items() if v is not None)
    report["bohr_frequencies"] = ctx.bohr
    lipschitz_rows = []
    if args.setup:
        setup = fileio.load_setup(args.setup, ctx)
        lip = LipschitzContext.from_context(ctx)
        for j in range(setup.ell):
            obs = tilde_observable(ctx, setup.directions[j])
            lipschitz_rows.append([j, lipschitz_norm(lip, obs), float(np.linalg.norm(obs, 2))])
        report["tilde_lipschitz"] = [row[1] for row in lipschitz_rows]
    Path(args.output + ".json").write_text(json.dumps(report, indent=1))
    header = ["quantity", "value"]
    rows = [["spectral_gap", consts.spectral_gap], ["primitive", ctx.primitive]]
    for kind in ("GNS", "KMS", "BKM"):
        rows.append([f"{kind.lower()}_deviation", symmetry[kind]["deviation"]])
        rows.append([f"{kind.lower()}_symmetric", symmetry[kind]["symmetric"]])
    if consts.lsi_alpha2 is not None:
        rows.append(["lsi_alpha2", consts.lsi_alpha2])
        rows.append(["ti_constant", consts.ti_constant])
    for j, lip_norm, sup in lipschitz_rows:
        rows.append([f"tilde_lipschitz{j}", lip_norm])
        rows.append([f"tilde_sup{j}", sup])
    fileio.write_csv(args.output + ".csv", header, rows)
    fileio.write_manifest(args.output + ".csv", argv, _existing_inputs(args), {})
    return 0


def _cmd_concentrate(args, argv) -> int:
    bound = concentration_bound(
        args.variant,
        prefactor=args.prefactor,
        ti_constant=args.ti_constant,
        lipschitz_value=args.lipschitz_value,
        gap=args.gap,
        sup_norm=args.sup_norm,
        dim=args.dim,
        eigenvalue_spread=args.eigenvalue_spread,
        lsi_alpha2=args.lsi_alpha2,
        n_factors=args.n_factors,
        alpha_u=args.alpha_u,
        beta_h_norm=args.beta_h_norm,
        hypothesis_attested=args.attest_hypothesis,
    )
    ts = _float_list(args.t)
    rs = _float_list(args.r)
    header = ["t", "r", "bound"]
    rows = [[t, r, bound.bound(t, r)] for t in ts for r in rs]
    fileio.emit_report(args.output, header, rows, args.format, argv, [],
                       {"variant": args.variant})
    return 0


# ---------------------------------------------------------------------------
# Fixture check suite
# ---------------------------------------------------------------------------

def _cmd_check(args, argv) -> int:
    from . import checks

    results = checks.run_paper_fixtures()
    failed = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} fixture checks passed")
    return 0 if failed == 0 else 2


HANDLERS = {
    "bound": _cmd_bound,
    "rate": _cmd_rate,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "inequalities": _cmd_inequalities,
    "concentrate": _cmd_concentrate,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ValidationError(f"--threads must be at least 1, got {args.threads}")
        if args.verb == "model":
            return _cmd_model_new(args, argv)
        return HANDLERS[args.verb](args, argv)
    except (ValidationError, OSError) as exc:   # OSError: a path that cannot be read or written
        fileio.emit_error("validation", str(exc), {"argv": argv})
        return 1
    except NumericalError as exc:
        fileio.emit_error("numerical", str(exc), {"argv": argv})
        return 2
    except QdevError as exc:
        fileio.emit_error("error", str(exc), {"argv": argv})
        return 2


if __name__ == "__main__":
    sys.exit(main())
