"""Command-line front end.

Exit codes: 0 for success (and for claims that hold), 1 for claims that
fail, 2 for usage errors (bad flags, malformed files or formulas, inputs
the evaluator does not admit), for evaluations that run out of their
step budget or set-size cap and for set enumerations that pass their
horizon.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from fractions import Fraction

from . import arithx, quantifiers as quantmod, sets as setsmod, suites
from .evaluator import (DEFAULT_BUDGET, BudgetExceeded, ef_equivalent,
                        evaluate)
from .model import (PartialArithModel, builtin_registry, format_model,
                    full_multiplication, parse_model, powerset_structure,
                    word_model)
from .sets import HorizonExceeded
from .syntax import ParseError, parse, pretty
from .transforms import mso_translate, relativize_formula, substitute


class UsageError(Exception):
    pass


def _read_model(path: str):
    with open(path) as fh:
        return parse_model(fh.read())


def _formula_text(value: str) -> str:
    """`@path` reads the formula from a file, unless the text is really a
    built-in atom (the path does not exist)."""
    if value.startswith("@") and os.path.isfile(value[1:]):
        with open(value[1:]) as fh:
            return fh.read()
    return value


def _parse_assign(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(","):
        k, eq, v = part.partition("=")
        k = k.strip()
        if not (eq and k) or k in out:
            raise UsageError(f"bad assignment item {part!r}; want k=v, "
                             "each k once")
        try:
            out[k] = int(v)
        except ValueError:
            raise UsageError(f"bad assignment item {part!r}; want an "
                             "integer value") from None
    return out


def fraction(text: str) -> Fraction:
    """An --eps value p/q with 0 < p/q < 1; argparse shows a ValueError
    as "invalid fraction"."""
    try:
        eps = Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError(f"need 0 < epsilon < 1, got {text}")
    return eps


def _load_config(path: str):
    """Line-oriented registration: `set <name> <set-spec>` and
    `quantifier <name> card:<set-spec> | lang:<lang-spec>`."""
    set_reg: dict = {}
    quant_extra: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "set" and len(parts) == 3:
                    set_reg[parts[1]] = setsmod.parse_set_spec(parts[2])
                elif parts[0] == "quantifier" and len(parts) == 3:
                    name, spec = parts[1], parts[2]
                    if spec.startswith("card:"):
                        q = quantmod.cardinality(
                            setsmod.parse_set_spec(spec[5:]), name)
                    elif spec.startswith("lang:"):
                        lang = quantmod.parse_lang_spec(spec[5:])
                        q = dataclasses.replace(
                            quantmod.language_quantifier(lang), name=name)
                    else:
                        raise ValueError(f"unknown quantifier spec {spec!r}")
                    quant_extra[name] = q
                else:
                    raise ValueError("want 'set <name> <spec>' or "
                                     "'quantifier <name> <spec>'")
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return set_reg, quant_extra


def _context(args):
    """Builtins, quantifier registry and parser shapes for this invocation."""
    set_reg, quant_extra = ({}, {})
    if getattr(args, "config", None):
        set_reg, quant_extra = _load_config(args.config)
    builtins = builtin_registry(set_reg)
    registry = quantmod.builtin_quantifiers()
    registry.update(quant_extra)
    return builtins, registry, quantmod.registry_shapes(registry)


# ---------------------------------------------------------------------------
# commands


def _cmd_parse(args) -> int:
    vocab = _read_model(args.model).arities if args.model else {}
    _, _, shapes = _context(args)
    print(pretty(parse(_formula_text(args.formula), vocab, shapes)))
    return 0


def _cmd_eval(args) -> int:
    m = _read_model(args.model)
    builtins, registry, shapes = _context(args)
    phi = parse(_formula_text(args.formula), m.arities, shapes)
    assign = _parse_assign(args.assign)
    verdict = evaluate(m, phi, assign, builtins=builtins, quantifiers=registry,
                       budget=DEFAULT_BUDGET if args.budget is None
                       else args.budget)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_ef(args) -> int:
    if len(args.model) != 2:
        raise UsageError("ef needs exactly two --model files")
    m1, m2 = (_read_model(p) for p in args.model)
    verdict = ef_equivalent(m1, m2, args.rank)
    print("equivalent" if verdict else "distinguishable")
    return 0 if verdict else 1


def _cmd_transform(args) -> int:
    builtins, registry, shapes = _context(args)
    vocab = _read_model(args.model).arities if args.model else {}
    phi = parse(_formula_text(args.formula), vocab, shapes)
    if args.kind == "subst":
        params = tuple(p for p in args.params.split(",") if p)
        body = parse(_formula_text(args.body), vocab, shapes)
        out = substitute(phi, {args.name: (params, body)})
    elif args.kind == "rel":
        guard = parse(_formula_text(args.guard), vocab, shapes)
        out = relativize_formula(phi, guard, args.var, registry=registry)
    else:
        out = mso_translate(phi)
    print(pretty(out))
    return 0


def _cmd_analyze_set(args) -> int:
    s = setsmod.parse_set_spec(args.set)
    f, omega = setsmod.f_omega(s, args.n)
    print(f"f={f} omega={omega}")
    eps = args.eps
    if eps is not None:
        for rep in (setsmod.loose_at(s, args.n, eps),
                    setsmod.pseudoloose_at(s, args.n, eps)):
            extra = "".join([
                f" t={rep.witness_t}" if rep.witness_t is not None else "",
                f" word={rep.witness_word}" if rep.witness_word else "",
                f" gamma={rep.gamma_value}" if rep.gamma_value is not None
                else ""])
            print(f"eps={eps} {rep.verdict}{extra}")
    return 0


def _print_trace(trace, a_star=None):
    """One row per extension round (with gamma(a*) when a* is given), then
    the round that returned its input, if the trace reached one."""
    print("round  triples" + ("  gamma(a*)" if a_star else ""))
    for i, step in enumerate(trace):
        gamma = f"  {step.gamma(a_star):>9}" if a_star else ""
        print(f"{i:>5}  {step.known.sum():>7}{gamma}")
    if len(trace) > 1 and trace[-1] == trace[-2]:
        print(f"fixed point at round {len(trace) - 1}")


def _cmd_mulext(args) -> int:
    a_star, pm = arithx.choose_seed(args.n, args.k)
    print(f"n={pm.n} k={args.k} a*={a_star} "
          f"rounds={arithx.default_rounds(args.k)}")
    trace = arithx.extension_trace(pm, args.k)
    _print_trace(trace, a_star)
    full = trace[-1].is_full()
    print("full multiplication reached" if full else "not full")
    return 0 if full else 1


def _cmd_pipeline(args) -> int:
    s = setsmod.parse_set_spec(args.set)
    res = arithx.synthesize_multiplication(s, args.n, args.eps)
    print(f"set={args.set} n={args.n} eps={args.eps} k={res.k} t={res.t} "
          f"word={res.word!r} rounds={res.rounds}")
    if res.trace:
        _print_trace(res.trace)
    if res.note:
        print(res.note)
    print("full multiplication reached" if res.ok else "not full")
    return 0 if res.ok else 1


def _cmd_check(args) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in suites.SUITES:
            raise UsageError(f"unknown suite {name!r}; known: "
                             + ", ".join(sorted(suites.SUITES)) + ", all")
    ok = True
    for name in names:
        report = suites.run_suite(name, args.seed)
        print("\n".join(report.lines()))
        ok = ok and report.ok
    print("ALL PASS" if ok else "FAILURES")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    if args.kind == "word":
        m = word_model(args.word)
    elif args.kind == "powerset":
        m = powerset_structure(args.k)
    else:
        m = PartialArithModel(args.n, full_multiplication(args.n)).as_br_model()
    sys.stdout.write(format_model(m))
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # one parser a process: parse_args changes none of it
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fmlab")
    top.add_argument("--config", help="registration file for extra sets "
                     "and quantifiers")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("--formula", required=True)
    p.add_argument("--model", help="model file supplying the vocabulary")
    p.set_defaults(run=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="", help="k=v,... for free variables")
    p.add_argument("--budget", type=int,
                   help=f"cap on evaluation steps (default {DEFAULT_BUDGET})")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("ef", help="round-limited equivalence of two models")
    p.add_argument("--model", action="append", required=True,
                   help="give twice, one file per model")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(run=_cmd_ef)

    p = sub.add_parser("transform", help="rewrite a formula")
    tsub = p.add_subparsers(dest="kind", required=True)
    q = tsub.add_parser("subst", help="replace a relation by a definition")
    q.add_argument("--formula", required=True)
    q.add_argument("--model")
    q.add_argument("--name", required=True, help="relation being defined")
    q.add_argument("--params", required=True, help="comma-joined parameters")
    q.add_argument("--body", required=True, help="defining formula")
    q.set_defaults(run=_cmd_transform)
    q = tsub.add_parser("rel", help="relativize to a guard formula")
    q.add_argument("--formula", required=True)
    q.add_argument("--model")
    q.add_argument("--guard", required=True)
    q.add_argument("--var", default="v", help="the guard's free variable")
    q.set_defaults(run=_cmd_transform)
    q = tsub.add_parser("mso", help="translate to the word-side sentence")
    q.add_argument("--formula", required=True)
    q.add_argument("--model")
    q.set_defaults(run=_cmd_transform)

    p = sub.add_parser("analyze-set", help="offset/period and looseness")
    p.add_argument("--set", required=True, help="set-spec, e.g. sq or fact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=fraction,
                   help="p/q in (0, 1); also run the looseness scans")
    p.set_defaults(run=_cmd_analyze_set)

    p = sub.add_parser("mulext", help="extend a rectangle seed, with trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(run=_cmd_mulext)

    p = sub.add_parser("pipeline",
                       help="multiplication synthesis from a loose set")
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=fraction, required=True)
    p.set_defaults(run=_cmd_pipeline)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("gen", help="emit a model file")
    gsub = p.add_subparsers(dest="kind", required=True)
    q = gsub.add_parser("word", help="a word as a structure")
    q.add_argument("--word", required=True)
    q.set_defaults(run=_cmd_gen)
    q = gsub.add_parser("powerset", help="atoms plus nonempty subsets")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(run=_cmd_gen)
    q = gsub.add_parser("arith", help="restricted addition/multiplication")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(run=_cmd_gen)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (UsageError, ParseError, ValueError, OSError, MemoryError,
            BudgetExceeded, HorizonExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser caps nesting, but not a flat chain of connectives,
        # which the recursive walks still descend one level per connective
        print("error: formula nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
