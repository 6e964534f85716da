"""Command-line front end.

Subcommands: tensor, module, classify classical, classify exceptional,
enumerate, witnesses, selfcheck.  --json switches the human-readable
output to a stable JSON envelope (sorted keys, canonically ordered
lists), so identical inputs always produce byte-identical output.

Exit codes: 0 success, 1 domain error (out of scope, unknown label, bad
prime, ...), 2 usage error.

Importing this module registers every package module in sys.modules and
on the package, but executes only errors: the others are bound lazily
and run on their first attribute access, so a cold query compiles only
the modules its subcommand reads (tensor: ffmatrix and jordan; module:
also sl2modules; classify classical and witnesses: also classical;
classify exceptional: ffmatrix and atlas; enumerate: also enumerator;
selfcheck: all of them).  Handlers read each name on its module at call
time, so a patch on the module shows through.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from functools import cache

from .errors import DomainError, InvalidQueryError, VerdictKind


def _lazy(name: str):
    """The package module `name`, registered in sys.modules and on the
    package but executed on its first attribute access (importlib's
    LazyLoader recipe); a module already imported is returned as it is."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# ffmatrix too, which no handler reads: an outside tracer that imports
# only this module finds every package module in sys.modules
ffmatrix = _lazy("ffmatrix")
jordan = _lazy("jordan")
sl2modules = _lazy("sl2modules")
classical = _lazy("classical")
atlas = _lazy("atlas")
enumerator = _lazy("enumerator")
selfcheck = _lazy("selfcheck")


class _UsageError(Exception):
    pass


# a1u module and a1u tensor print one Jordan block per trivial line and per
# tensor block, so the answer is refused above this dimension before any
# block is listed
MAX_MODULE_DIMENSION = 10**6


def _partition_arg(text: str) -> classical.Partition:
    try:
        return classical.Partition.from_string(text)
    except ValueError as err:
        raise _UsageError(f"--partition: {err}") from None


def _sizes_arg(text: str) -> list[int]:
    try:
        sizes = [int(x) for x in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad block list {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise _UsageError(f"bad block list {text!r}")
    return sizes


# --family flag -> classical.Family member name
_FAMILY_BY_FLAG = {"A": "SL", "SL": "SL", "C": "SP", "SP": "SP", "B": "SO", "D": "SO", "SO": "SO"}

# --form choices, each the value of its sl2modules.FormType
_FORMS = ["none", "orthogonal", "symplectic"]


def _group_arg(family: str, dim: int) -> classical.GroupFamily:
    fam = _FAMILY_BY_FLAG.get(family.upper())
    if fam is None:
        raise _UsageError(f"--family: unknown family {family!r}")
    if family.upper() == "B" and dim % 2 == 0:
        raise _UsageError("--family B needs odd dimension (use D)")
    if family.upper() == "D" and dim % 2 == 1:
        raise _UsageError("--family D needs even dimension (use B)")
    try:
        return classical.GroupFamily(classical.Family[fam], dim)
    except DomainError as err:
        raise _UsageError(str(err)) from None


def _classical_query(args) -> tuple[classical.GroupFamily, classical.Partition, dict]:
    """The group, the partition (--dim defaults to its total) and the JSON
    input of a classify classical or witnesses query."""
    part = _partition_arg(args.partition)
    g = _group_arg(args.family, args.dim if args.dim is not None else part.n)
    query = {
        "family": g.family.value,
        "dim": g.dimension,
        "p": args.p,
        "partition": list(part.parts),
    }
    return g, part, query


def _emit(args, out, query: dict, result: dict, provenance: str, human) -> None:
    """The answer: under --json one envelope line, otherwise the human lines."""
    if args.json:
        envelope = {"command": args.command_name, "input": query, "result": result,
                    "provenance": [provenance]}
        out.write(json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        out.write("".join(line + "\n" for line in human))


def _cmd_tensor(args, out) -> int:
    sizes = _sizes_arg(args.sizes)
    dim = 1
    for size in sizes:
        dim *= size
        if dim > MAX_MODULE_DIMENSION:
            raise InvalidQueryError(
                f"tensor dimension exceeds the answer budget {MAX_MODULE_DIMENSION}"
            )
    t = jordan.tensor_multi(sizes, args.p)
    _emit(args, out, {"p": args.p, "sizes": sizes},
          {"blocks": list(t.blocks), "dimension": t.dimension},
          "tensor decomposition of full Jordan blocks mod p", [
              " x ".join(f"J{m}" for m in sizes) + f"  (mod {args.p})",
              f"  = {jordan.jnotation(t.blocks)}   [dim {t.dimension}]",
          ])
    return 0


def _cmd_module(args, out) -> int:
    d = sl2modules.parse_descriptor(args.descriptor, args.p)
    dim = sl2modules.dimension(d)
    if dim > MAX_MODULE_DIMENSION:
        raise InvalidQueryError(
            f"module dimension {dim} exceeds the answer budget {MAX_MODULE_DIMENSION}"
        )
    t = sl2modules.jordan_type(d)
    try:
        sl2modules.check_realizable(d)
        realizable = True
    except DomainError:
        realizable = False
    canonical, form = sl2modules.format_descriptor(d), sl2modules.form_type(d).value
    _emit(args, out, {"p": args.p, "descriptor": args.descriptor}, {
        "canonical": canonical,
        "dimension": dim,
        "blocks": list(t.blocks),
        "jordan_type": jordan.jnotation(t.blocks),
        "form": form,
        "realizable": realizable,
    }, "module arithmetic: dimension, Jordan type, invariant form", [
        f"module    {canonical}   (p = {args.p})",
        f"dimension {dim}",
        f"type      {jordan.jnotation(t.blocks)}",
        f"form      {form}",
        f"matrix    {'available' if realizable else 'not realizable'}",
    ])
    return 0


def _cmd_classify_classical(args, out) -> int:
    g, part, query = _classical_query(args)
    v = classical.unicity_verdict(g, part, args.p)
    result = {"verdict": v.kind.value}
    human = [f"{g}, u = {jordan.jnotation(part.parts)}, p = {args.p}: {v.kind.value}"]
    if v.reason:
        result["reason"] = v.reason
        human.append(f"  reason: {v.reason}")
    if v.witness_pair:
        pair = [sl2modules.format_descriptor(d) for d in v.witness_pair]
        result["witnesses"] = sorted(pair)
        human.append("  witnesses: " + "  |  ".join(pair))
    _emit(args, out, query, result,
          f"classical unicity criterion, type {g.family.value}", human)
    return 0 if v.kind is not VerdictKind.OUT_OF_SCOPE else 1


def _cmd_classify_exceptional(args, out) -> int:
    g = atlas.group(args.group)
    v = atlas.verdict(g, args.p, args.label)
    result = {"verdict": v.kind.value}
    human = [f"{g}, class {atlas.normalize_label(args.label)}, p = {args.p}: {v.kind.value}"]
    if v.note:
        result["note"] = v.note
        human.append(f"  note: {v.note}")
    _emit(args, out, {"group": g.type.value, "p": args.p, "label": args.label},
          result, "exceptional unicity table", human)
    return 1 if v.kind in (VerdictKind.BAD_PRIME, VerdictKind.UNKNOWN_LABEL) else 0


def _cmd_enumerate(args, out) -> int:
    part = _partition_arg(args.partition)
    dim = args.dim if args.dim is not None else part.n
    form = sl2modules.FormType(args.form)
    res = enumerator.enumerate_embeddings(
        form, dim, part, args.p, args.max_twist, distinct_irr=args.distinct_irr
    )
    query = {
        "form": args.form,
        "dim": dim,
        "p": args.p,
        "partition": list(part.parts),
        "max_twist": args.max_twist,
        "distinct_irr": args.distinct_irr,
    }
    result = {"count": res.count, "growth_flag": res.growth_flag}
    listing = []
    if args.count_only:
        query["count_only"] = True
    else:
        result["classes"] = [str(c) for c in res.classes]
        listing = [f"  {c}" for c in result["classes"]] or ["  (none)"]
    growth = "count grows with the twist bound" if res.growth_flag else "count stable"
    _emit(args, out, query, result, "completely reducible module enumeration", [
        f"{args.form} structures with type {jordan.jnotation(part.parts)} on dim {dim}, "
        f"p = {args.p}, twists <= {args.max_twist}:",
        *listing,
        f"count {res.count}; {growth}",
    ])
    return 0


def _cmd_witnesses(args, out) -> int:
    g, part, query = _classical_query(args)
    pair = [sl2modules.format_descriptor(d) for d in classical.witnesses(g, part, args.p)]
    _emit(args, out, query, {"witnesses": pair},
          "explicit non-conjugate overgroup constructions",
          [f"{g}, u = {jordan.jnotation(part.parts)}, p = {args.p}:", *(f"  {w}" for w in pair)])
    return 0


def _cmd_selfcheck(args, out) -> int:
    ok = selfcheck.run_selfcheck(quick=args.quick, emit=lambda s: out.write(s + "\n"))
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The a1u parser, built on first use and shared by every later run."""
    parser = argparse.ArgumentParser(
        prog="a1u",
        description="Jordan-type calculus and unicity tests for A1-overgroups "
        "of order-p unipotent elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, fn, help):
        # `name` is the full command, as the JSON envelope spells it
        sp = parent.add_parser(name.split()[-1], help=help)
        sp.set_defaults(fn=fn, command_name=name)
        return sp

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="emit a JSON envelope")

    def add_classical_query(sp):
        sp.add_argument("--family", required=True, help="A/C/B/D or SL/Sp/SO")
        sp.add_argument("--dim", type=int, help="natural module dimension "
                        "(default: partition total)")
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--partition", required=True, help="descending, e.g. 6,1,1,1,1")
        add_json(sp)

    sp = command(sub, "tensor", _cmd_tensor, "decompose a tensor product of Jordan blocks")
    sp.add_argument("-p", "--p", type=int, required=True, help="characteristic")
    sp.add_argument("sizes", help="comma-separated block sizes, e.g. 2,5")
    add_json(sp)

    sp = command(sub, "module", _cmd_module, "dimension, Jordan type and form of a descriptor")
    sp.add_argument("-p", "--p", type=int, required=True)
    sp.add_argument("descriptor", help="e.g. 'L(1)*L(3)@1+2*triv' or 'W(5)'")
    add_json(sp)

    csub = sub.add_parser("classify", help="unicity verdicts").add_subparsers(
        dest="kind", required=True)
    add_classical_query(command(csub, "classify classical", _cmd_classify_classical,
                                "verdict from the Jordan partition"))
    sp = command(csub, "classify exceptional", _cmd_classify_exceptional,
                 "verdict from the class label")
    sp.add_argument("--group", required=True, choices=["G2", "F4", "E6", "E7", "E8"])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--label", required=True, help="e.g. A6, (A5)', Ã1 (or ~A1)")
    add_json(sp)

    sp = command(sub, "enumerate", _cmd_enumerate,
                 "completely reducible structures with a given type")
    sp.add_argument("--form", choices=_FORMS, required=True)
    sp.add_argument("--dim", type=int, help="default: partition total")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--partition", required=True)
    sp.add_argument("--max-twist", type=int, default=3, dest="max_twist")
    sp.add_argument(
        "--distinct-irr",
        action="store_true",
        dest="distinct_irr",
        help="pairwise inequivalent irreducible summands only",
    )
    sp.add_argument(
        "--count-only",
        action="store_true",
        dest="count_only",
        help="print the count and growth flag without listing the classes",
    )
    add_json(sp)

    add_classical_query(command(sub, "witnesses", _cmd_witnesses,
                                "explicit non-conjugate overgroup pair"))

    sp = command(sub, "selfcheck", _cmd_selfcheck, "run the cross-validation suites")
    sp.add_argument("--quick", action="store_true", help="reduced ranges")

    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        return args.fn(args, out)
    except _UsageError as err:
        print(f"a1u: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"a1u: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so that the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
