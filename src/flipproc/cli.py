"""Command line front end.

Machine-readable output (JSON or CSV) goes to stdout or --out; diagnostics
go to stderr.  Exit codes:

0  success or affirmative verdict
1  negative verdict
2  input error: a malformed or invalid rule or kernel file (including
   non-finite kernel values), a missing file, a bad argument (argparse
   rejects a --t-max, --dt, --time or --eps that is not finite and
   positive), and an integration that fails (IntegrationError: the state
   left [0, 1] or stopped being finite, so the step size was too large)
   or asks for more steps than a float can count (OverflowError)
3  resource budget exceeded (CapExceeded): census pairs, relabelling
   tables or sweep images, rule entries, velocity grid or stored
   trajectory, a 62-bit graph code, or a simulation's vertices or steps
   (README "Caps")
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .codes import CapExceeded, enumerate_classes, num_pairs
from .dynamics import (
    IntegrationError,
    integrate,
    kernel_to_json,
    load_kernel,
    velocity,
)
from .equivalence import (
    _class_records,
    _dilation,
    K1_BANNER,
    check_k1,
    classify_unique,
    coeff_vector,
    compare,
    lift,
    symmetrize,
)
from .rules import (
    _exact_value,
    _json_text,
    exact_number,
    load_rule,
    make_named,
    rule_to_json,
)
from .simulate import SimConfig, result_to_csv, run, transference_check


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- handlers

def _cmd_classes(args):
    classes = enumerate_classes(args.k)
    obj = {"order": args.k, "count": len(classes), "classes": "\0"}
    _emit(_json_text(obj, _class_records(classes, 1)), args.out)
    return 0


def _cmd_coeffs(args):
    rule = load_rule(args.rule)
    _emit(_json_text("\0", coeff_vector(rule)._json_records(0)), args.out)
    return 0


def _cmd_compare(args):
    r1 = load_rule(args.rule1)
    r2 = load_rule(args.rule2)
    verdict = compare(r1, r2)
    obj = verdict._json_obj(["\0", "\0"])
    affirmative = verdict.equivalent
    if args.dilation:
        factor = _dilation(*verdict.vectors)
        obj["dilation"] = None if factor is None else str(factor)
        affirmative = factor is not None
    _emit(_json_text(obj, *(v._json_records(2) for v in verdict.vectors)), args.out)
    return 0 if affirmative else 1


def _cmd_lift(args):
    rule = load_rule(args.rule)
    _emit(rule_to_json(lift(rule, args.to)), args.out)
    return 0


def _cmd_symmetrize(args):
    rule = load_rule(args.rule)
    _emit(rule_to_json(symmetrize(rule)), args.out)
    return 0


def _cmd_unique(args):
    rule = load_rule(args.rule)
    verdict = classify_unique(rule)
    obj = verdict.to_json_obj()
    if verdict.witness is not None and args.witness:
        with open(args.witness, "w", encoding="utf-8") as fh:
            fh.write(rule_to_json(verdict.witness))
        obj["witness_path"] = args.witness
    _emit(_json_text(obj), args.out)
    return 0 if verdict.unique else 1


def _cmd_k1(args):
    r1 = load_rule(args.rule1)
    r2 = load_rule(args.rule2)
    print(K1_BANNER, file=sys.stderr)
    holds = check_k1(r1, r2)
    _emit(_json_text({"conjectured_check": "orbit-sums", "holds": holds}), args.out)
    return 0 if holds else 1


def _cmd_velocity(args):
    rule = load_rule(args.rule)
    kernel = load_kernel(args.kernel)
    _emit(kernel_to_json(velocity(rule, kernel)), args.out)
    return 0


def _cmd_integrate(args):
    rule = load_rule(args.rule)
    kernel = load_kernel(args.kernel)
    trajectory = integrate(rule, kernel, args.t_max, args.dt,
                           expert_nongraphon=args.expert_nongraphon)
    _emit(trajectory.to_csv(), args.out)
    return 0


def _cmd_simulate(args):
    rule = load_rule(args.rule)
    kernel = load_kernel(args.w0)
    config = SimConfig(
        rule=rule, n=args.n, initial=kernel, horizon=args.time,
        seed=args.seed, runs=args.runs,
    )
    result = run(config)
    _emit(result_to_csv(result), args.out)
    return 0


def _cmd_transference(args):
    rule = load_rule(args.rule)
    kernel = load_kernel(args.w0)
    report, _ = transference_check(rule, args.n, kernel, args.time, args.eps,
                                   args.seed, runs=args.runs)
    _emit(_json_text(report), args.out)
    return 0 if report["pass"] else 1


def _cmd_named(args):
    params = {}
    if args.threshold is not None:
        params["threshold"] = exact_number(args.threshold)
    if args.dist is not None:
        raw = json.loads(args.dist)
        if not isinstance(raw, dict):
            raise ValueError("--dist must be a JSON object {code: probability}")
        dist = params["dist"] = {}
        for code, p in raw.items():
            code = _graph_code(code, args.k)  # "1" and "01" name one graph: they add up
            p = (Fraction(p) if isinstance(p, float) and math.isfinite(p)
                 else _exact_value(p, "a --dist probability other than a finite float"))
            dist[code] = dist[code] + p if code in dist else p
    _emit(rule_to_json(make_named(args.family, args.k, **params)), args.out)
    return 0


def _graph_code(text, k):
    """A graph code of order k read from text, its length checked against
    the order's largest code before int() reads it."""
    digits = math.floor(num_pairs(max(k, 1)) * math.log10(2)) + 1
    if len(text.strip()) > digits + 1:  # one more for a sign
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise ValueError(f"graph code {shown!r} has more digits than any "
                         f"graph code of order {k}")
    return int(text)


# -------------------------------------------------------------------- parser

def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}"
        )
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flipproc",
        description=(
            "Flip process rules: equivalence certificates, uniqueness "
            "witnesses, trajectories, and simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        return p

    p = add("classes", _cmd_classes, "orbit census of pair-rooted graphs")
    p.add_argument("--k", type=int, required=True)

    p = add("coeffs", _cmd_coeffs, "exact coefficient certificate of a rule")
    p.add_argument("rule")

    p = add("compare", _cmd_compare, "decide trajectory equivalence of two rules")
    p.add_argument("rule1")
    p.add_argument("rule2")
    p.add_argument("--dilation", action="store_true",
                   help="also look for a uniform time dilation factor")

    p = add("lift", _cmd_lift, "rewrite a rule at a higher order")
    p.add_argument("rule")
    p.add_argument("--to", type=int, required=True)

    p = add("symmetrize", _cmd_symmetrize, "relabelling average of a rule")
    p.add_argument("rule")

    p = add("unique", _cmd_unique, "is this the only rule with its trajectories?")
    p.add_argument("rule")
    p.add_argument("--witness", default=None,
                   help="write the witness rule here when not unique")

    p = add("k1", _cmd_k1, "equal orbit sums: equal processes (converse past n = k open)")
    p.add_argument("rule1")
    p.add_argument("rule2")

    p = add("velocity", _cmd_velocity, "drift kernel of a rule at a step kernel")
    p.add_argument("rule")
    p.add_argument("kernel")

    p = add("integrate", _cmd_integrate, "integrate the trajectory, CSV output")
    p.add_argument("rule")
    p.add_argument("kernel")
    p.add_argument("--t-max", type=_positive_float, required=True)
    p.add_argument("--dt", type=_positive_float, default=1e-3)
    p.add_argument("--expert-nongraphon", action="store_true",
                   help="integrate non-graphon starts (no domain guarantees)")

    p = add("simulate", _cmd_simulate, "Monte Carlo runs, CSV output")
    p.add_argument("rule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w0", required=True, help="step kernel JSON to sample from")
    p.add_argument("--time", type=_positive_float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--runs", type=int, default=1)

    p = add("transference", _cmd_transference,
            "simulation versus integrated trajectory, JSON report")
    p.add_argument("rule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w0", required=True)
    p.add_argument("--time", type=_positive_float, required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--runs", type=int, default=5)

    p = add("named", _cmd_named, "construct a named rule family")
    p.add_argument("family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--threshold", default=None,
                   help="edge-count threshold for the extremist family")
    p.add_argument("--dist", default=None,
                   help="JSON object {code: probability} for the ignorant family")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IntegrationError, OverflowError, KeyError, OSError,
            ZeroDivisionError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
