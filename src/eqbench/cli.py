"""Command-line front end.

Subcommands: enumerate, check, prove, refute, compare, rank, classify,
audit.  Output is either human-readable text or line-delimited JSON records
(--format records); record output is byte-stable for identical configs.

Exit codes: 0 success; 1 negative verdict (not proved / not refuted /
does not satisfy); 2 configuration or input error; 3 resource cap;
4 I/O failure.

Each command imports the modules only it runs (``consequence``, ``power``,
``structure``) when it starts, so the others are never loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from contextlib import contextmanager, nullcontext
from functools import lru_cache, partial
from pathlib import Path

from .axioms import (
    AxiomFileError,
    AxiomSystem,
    BUILTIN_NAMES,
    UnknownSystemError,
    builtin_system,
    empty_system,
    load_axioms,
    make_system,
    merge,
    system_content_key,
)
from .models import (
    EnumOptions,
    MissingConstantError,
    MissingTableError,
    ResourceLimitError,
    ShapeTemplate,
    bind_constants,
    compile_check,
    count_models,
    enumerate_models,
    from_record,
    models_template,
    past_max_results,
    record_blocks,
    record_line,
    template_of,
    to_record,
)
from .terms import Op, ParseError, format_equation, parse_equation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_IO = 4

CACHE_ENV = "EQBENCH_CACHE_DIR"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# argument plumbing

def _resolve_system(selector: str) -> AxiomSystem:
    if selector.lower() == "none":
        return empty_system()
    try:
        return builtin_system(selector)
    except UnknownSystemError:
        pass
    path = Path(selector)
    if path.exists():
        return load_axioms(path)
    raise CliError(
        f"unknown system or missing axiom file: {selector!r} "
        f"(built-ins: none, {', '.join(BUILTIN_NAMES)})")


def _resolve_merged(selectors) -> AxiomSystem:
    systems = [_resolve_system(s) for s in selectors]
    return systems[0] if len(systems) == 1 else merge(systems)


def _parse_ops(arg: str) -> frozenset:
    out = set()
    for name in arg.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            out.add(Op(name))
        except ValueError:
            raise CliError(f"unknown operation {name!r}; use prod, ldiv, rdiv") from None
    return frozenset(out)


#: the most entries (cells and constants) of a shape whose record pattern
#: is compiled: compiling costs from 40 to 400 json reads of a line of its
#: shape, about 0.03 s at this many entries, and grows faster than the
#: entries beyond
_PATTERN_ENTRIES = 512

#: bytes read from a record stream at a time
_BLOCK = 1 << 15


def _patterned(template: ShapeTemplate):
    """``template`` if its pattern is cheap enough to compile, else None."""
    entries = len(template.ops) * template.size ** 2 + len(template.names)
    return template if entries <= _PATTERN_ENTRIES else None


def _records(stream, source: str):
    """Yield (template, entry vector) of each record line of ``stream``, read
    a block at a time: a run of lines of the shape ``json`` last read is read
    by that shape's template, every other line by ``json``.  Return the last
    template (None if none); a line not a record or not UTF-8 fails, naming
    its number."""
    template = run = None
    lineno, rest = 0, b""
    while True:
        block = stream.read(max(_BLOCK, len(rest)))  # a long line is read in doubling blocks
        if isinstance(block, str):  # a text stream with no bytes beneath
            block = block.encode("utf-8", "surrogatepass")
        data = rest + block
        end = data.rfind(b"\n") + 1 if block else len(data)
        pos = 0
        while pos < end:
            if run:
                stop, vectors = run.read(data, pos, end)
                if vectors:
                    lineno += len(vectors)
                    for v in vectors:
                        yield template, v
                    pos = stop
                    continue
            stop = data.find(b"\n", pos, end) + 1 or end
            lineno += 1
            try:
                line = data[pos:stop].decode().strip()
            except UnicodeDecodeError as exc:
                raise CliError(f"{source}:{lineno}: not UTF-8 text: {exc}") from None
            pos = stop
            if line:
                try:
                    alg = from_record(json.loads(line))
                except (json.JSONDecodeError, ValueError, RecursionError) as exc:
                    raise CliError(f"{source}:{lineno}: bad algebra record: {exc}")
                template = template_of(alg)
                run = template.digits and _patterned(template)
                yield template, alg.cells + tuple(v for _, v in alg.constants)
        if not block:
            return template
        rest = data[end:]


def _read_records(source: str):
    """``_records`` of the file ``source``, or stdin for '-'; no record at all fails."""
    stdin = getattr(_sys.stdin, "buffer", _sys.stdin)
    try:
        with nullcontext(stdin) if source == "-" else open(source, "rb") as f:
            template = yield from _records(f, source)
    except UnicodeDecodeError as exc:  # from a text stream that has no bytes beneath
        raise CliError(f"{source}: not UTF-8 text: {exc}")
    if template is None:
        raise CliError(f"{source}: no algebra records found")


def _emit(record: dict):
    print(json.dumps(record, separators=(",", ":")))


# ---------------------------------------------------------------------------
# enumerate (with the model cache)

def _cache_path(cache_dir: str, sys_: AxiomSystem, ops, n: int, up_to_iso: bool) -> Path:
    opsig = ",".join(op.value for op in sorted(ops, key=lambda o: o.value)) if ops else "auto"
    key = f"{system_content_key(sys_)}-{opsig}-n{n}-{'iso' if up_to_iso else 'raw'}"
    return Path(cache_dir) / f"{key}.jsonl"


def _end_marker(count: int) -> str:
    return json.dumps({"records": count})


def _read_cache(path: Path, template: ShapeTemplate):
    """The record lines cached at ``path``, each ending in a newline, and their
    count; or None (a miss) when the file is absent, does not end with the
    marker line that counts its records, or holds a line that is not a record
    line of ``template`` (such a line is ASCII, so the lines are UTF-8)."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    end = data.rfind(b"\n", 0, -1) + 1  # where the marker line starts
    body = data[:end]
    if (data[end:] != (_end_marker(body.count(b"\n")) + "\n").encode()
            or not (template.lines.fullmatch(body) if _patterned(template) else
                    all(_is_record_line(template, s) for s in body.split(b"\n")[:-1]))):
        return None
    return body.decode(), body.count(b"\n")


def _is_record_line(template: ShapeTemplate, line: bytes) -> bool:
    """Whether ``line`` is the record line of an algebra of ``template``'s shape."""
    try:
        alg = from_record(json.loads(line))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return False
    return template_of(alg) == template and record_line(alg).encode() == line


@contextmanager
def _write_cache(path: Path, serve):
    """Yield ``serve`` (of lines and their count) teed into a temp file of its
    own.  When the block ends, write the end marker and rename the file into
    place, so readers never see a partial file; when it raises (the cap, a
    closed pipe, an error), remove the file, so a run cut short is not cached."""
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
    counts = []
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            yield lambda lines, count: (f.write(lines), counts.append(count), serve(lines, count))
            f.write(_end_marker(sum(counts)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


#: lines written in one write
_BATCH = 512


def _write_lines(lines: list):
    """Write ``lines`` to stdout, each ending in a newline, ``_BATCH`` per write."""
    for i in range(0, len(lines), _BATCH):
        _sys.stdout.write("\n".join(lines[i:i + _BATCH]) + "\n")


def cmd_enumerate(args) -> int:
    sys_ = _resolve_merged(args.system)
    ops = _parse_ops(args.ops) if args.ops else None
    opts = EnumOptions(up_to_iso=args.up_to_iso, max_results=args.max_results, ops=ops,
                       allow_large=args.allow_large)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    if args.count and not cache_dir:  # added up without making a line
        print(count_models(sys_, args.size, args.up_to_iso, opts))
        return EXIT_OK
    template = models_template(sys_, args.size, opts)
    path = _cache_path(cache_dir, sys_, ops, args.size, args.up_to_iso) if cache_dir else None
    cap, served = args.max_results, 0  # the lines served so far, if ``counted``
    counted = path or cap is not None or args.count  # the cache, cap or --count needs it

    def serve(lines: str, count: int):
        """The one output stage, for an enumeration and a cache hit alike:
        write the ``count`` record lines ``lines`` in the asked format, or
        count them; past the cap, those before it, whole, then raise."""
        nonlocal served
        past = cap is not None and served + count > cap
        if past:
            lines = lines[:len(lines) - len(lines.split("\n", cap - served)[-1])]
        if not args.count:
            _sys.stdout.write(lines if args.format == "records" else template.text(lines))
        if past:
            past_max_results(cap)
        served += count

    hit = _read_cache(path, template) if path else None
    if hit is not None:  # a hit is served as the enumeration would be
        serve(*hit)
    else:
        with _write_cache(path, serve) if path else nullcontext(serve) as write:
            for lines in record_blocks(sys_, args.size, opts, _BATCH):
                write(lines, lines.count("\n") if counted else 0)
    if args.count:
        print(served)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check / classify

@lru_cache(maxsize=4096)
def _check_line(name: str, failed, witness, fmt: str) -> str:
    """``check``'s answer when ``failed`` is the first equation of system
    ``name`` to fail (None if none does), at the sorted items ``witness``."""
    if fmt == "records":
        return json.dumps({"system": name, "satisfies": failed is None,
                           "failed_equation": format_equation(failed) if failed else None,
                           "witness": dict(witness) if witness else None},
                          separators=(",", ":"))
    if failed is None:
        return f"satisfies {name}"
    at = ", ".join(f"{k}={v}" for k, v in witness)
    return f"fails {name}: {format_equation(failed)} at {at}"


def _first_failure(template: ShapeTemplate, sys_: AxiomSystem, v: tuple):
    """check's (equation, sorted witness) on an entry vector of ``template``'s
    shape, such as ``v``, or (None, None).  A constant the shape lacks is
    missing at once, a table only when an equation that needs it is reached."""
    bind_constants(template.algebra(v), sys_)
    checks = []

    def first_failure(v):
        for k, eq in enumerate(sys_.equations):
            if k == len(checks):
                checks.append(compile_check(eq, template.size, template.ops, template.names,
                                            sys_.constants))
            if (witness := checks[k](v)) is not None:
                return eq, tuple(sorted(witness.items()))
        return None, None

    return first_failure


def cmd_check(args) -> int:
    sys_ = _resolve_merged(args.system)
    checkers, lines, code = {}, [], EXIT_OK
    for template, v in _read_records(args.algebra):
        check = checkers.get(template) or checkers.setdefault(
            template, _first_failure(template, sys_, v))
        failed, witness = check(v)
        if failed is not None:
            code = EXIT_NEGATIVE
        lines.append(_check_line(sys_.name, failed, witness, args.format))
    _write_lines(lines)
    return code


def _classify_text(report, fmt: str) -> str:
    """The answer of ``classify`` on an algebra whose report is ``report``."""
    from .structure import report_record

    if fmt == "records":
        return json.dumps(report_record(report), separators=(",", ":"))
    coincide = report.ops_coincide
    lines = [f"size={report.size} ops_coincide={'n/a' if coincide is None else coincide}"]
    for op, rep in report.ops:
        lines.append(
            f"  {op.value}: not applicable (no table)" if rep is None else
            f"  {op.value}: commutative={rep.commutative}"
            f" associative={rep.associative}"
            f" latin_square={rep.latin_square}"
            f" identities={list(rep.identity_elements)}"
            f" group={rep.is_group} abelian_group={rep.is_abelian_group}")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    from .structure import TableReports

    # each distinct table is classified, and each distinct answer rendered, once
    reports = TableReports()
    render = partial(_classify_text, fmt=args.format)
    _write_lines([reports.answer(t.size, t.ops, v, render)
                  for t, v in _read_records(args.algebra)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# prove / refute

def cmd_prove(args) -> int:
    from .consequence import DeriveBudgets, Proved, derive, verdict_record

    sys_ = _resolve_merged(args.system)
    cand = parse_equation(args.identity)
    budgets = DeriveBudgets(max_term_depth=args.max_term_depth,
                            max_steps=args.max_steps)
    verdict = derive(sys_, cand, budgets)
    if args.format == "records":
        _emit(verdict_record(verdict))
    elif isinstance(verdict, Proved):
        print(f"proved: {format_equation(cand)}")
        for i, step in enumerate(verdict.derivation):
            uses = f" [{', '.join(str(p + 1) for p in step.premises)}]" if step.premises else ""
            print(f"  {i + 1}. {step.rule}{uses}: {format_equation(step.equation)}")
    else:
        print(f"unknown: {format_equation(cand)} not derived within "
              f"depth {args.max_term_depth}, steps {args.max_steps}")
    return EXIT_OK if isinstance(verdict, Proved) else EXIT_NEGATIVE


def cmd_refute(args) -> int:
    from .consequence import Refuted, semantic_consequence, verdict_record

    sys_ = _resolve_merged(args.system)
    cand = parse_equation(args.identity)
    verdict = semantic_consequence(sys_, cand, args.max_size,
                                   allow_large=args.allow_large)
    if args.format == "records":
        _emit(verdict_record(verdict))
    elif isinstance(verdict, Refuted):
        at = ", ".join(f"{k}={v}" for k, v in verdict.witness)
        print(f"refuted: {format_equation(cand)} fails at {at} in")
        print("  " + template_of(verdict.countermodel).text(record_line(verdict.countermodel)))
    else:
        print(f"holds in every model up to size {verdict.max_size}")
    return EXIT_OK if isinstance(verdict, Refuted) else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# compare / rank

def _space(args):
    from .consequence import CandidateSpace

    return CandidateSpace(max_vars=args.max_vars, max_depth=args.max_depth)


def cmd_compare(args) -> int:
    from .power import compare, power_record

    sys_a = _resolve_system(args.first)
    sys_b = _resolve_system(args.second)
    report = compare(sys_a, sys_b, _space(args), args.model_size)
    if args.format == "records":
        _emit(power_record(report))
    else:
        print(f"{report.first} vs {report.second}: {report.relation}")
        if report.witness_first_only is not None:
            print(f"  only in {report.first}: "
                  f"{format_equation(report.witness_first_only)}")
        if report.witness_second_only is not None:
            print(f"  only in {report.second}: "
                  f"{format_equation(report.witness_second_only)}")
    return EXIT_OK


def cmd_rank(args) -> int:
    from .power import rank_all, rank_record

    systems = [_resolve_system(s) for s in args.systems]
    report = rank_all(systems, _space(args), args.model_size)
    if args.format == "records":
        _emit(rank_record(report))
    else:
        for names in report.classes:
            print("class: " + ", ".join(names))
        for a, b in report.edges:
            print(f"{a} > {b}")
        if not report.edges:
            print("(no strict order)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit of the commutative-group reading of the moduli

_AUDIT_ROWS = (
    ("G1", Op.PROD, "ab = ba", ("Mx_as_printed", "Mx_neutral")),
    ("G2", Op.LDIV, "a:b = b:a", ("Mldiv_as_printed", "Mldiv_neutral")),
    ("G3", Op.RDIV, "a/b = b/a", ("Mrdiv_as_printed", "Mrdiv_diagonal", "Mrdiv_neutral")),
)


def cmd_audit(args) -> int:
    """For every reading of each structure's modulus, report whether all of
    its models up to the size bound are abelian groups, with the first
    countermodel when they are not."""
    from .structure import is_abelian_group

    for struct, op, comm, readings in _AUDIT_ROWS:
        for reading_name in readings:
            reading = builtin_system(reading_name)
            audited = make_system(
                f"{struct}[{reading.name}]",
                [parse_equation(comm)] + list(reading.equations),
                reading.constants,
            )
            sizes = {}
            for n in range(1, args.max_size + 1):
                total = abelian = 0
                counter = reason = None
                for alg in enumerate_models(audited, n):
                    total += 1
                    ok, why = is_abelian_group(alg, op)
                    if ok:
                        abelian += 1
                    elif counter is None:
                        counter, reason = alg, why
                sizes[str(n)] = {
                    "models": total,
                    "abelian_groups": abelian,
                    "all_abelian": counter is None,
                    "countermodel": to_record(counter) if counter else None,
                    "reason": reason,
                }
            all_ok = all(info["all_abelian"] for info in sizes.values())
            record = {
                "structure": struct,
                "operation": op.value,
                "reading": reading.name,
                "axioms": [format_equation(eq) for eq in audited.equations],
                "constants": sorted(audited.constants),
                "sizes": sizes,
                "abelian_group_claim_holds": all_ok,
                "max_size": args.max_size,
            }
            if args.format == "records":
                _emit(record)
            else:
                verdictxt = "all abelian groups" if all_ok else "claim fails"
                print(f"{struct} with {reading.name} (sizes 1..{args.max_size}): {verdictxt}")
                for n, info in sizes.items():
                    line = (f"  size {n}: {info['abelian_groups']}/{info['models']}"
                            f" abelian groups")
                    if info["reason"]:
                        line += f"; first failure: {info['reason']}"
                    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_format(p):
    p.add_argument("--format", choices=("text", "records"), default="text",
                   help="human-readable text or line-delimited JSON records")


def _add_system(p, required=True):
    p.add_argument("--system", action="append", required=required,
                   metavar="NAME|FILE",
                   help="built-in system name, axiom file path, or 'none'; "
                        "repeat to merge several")


def _add_budgets(p):
    p.add_argument("--max-vars", type=int, choices=(1, 2, 3), default=2,
                   help="variables in the candidate-identity space (default 2)")
    p.add_argument("--max-depth", type=int, choices=(0, 1, 2), default=1,
                   help="term depth in the candidate-identity space (default 1)")
    p.add_argument("--model-size", type=_positive_int, default=2,
                   help="model size bound for semantic checks (default 2)")
    _add_parallel(p)


def _add_parallel(p):
    p.add_argument("--parallel", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqbench",
        description="Workbench for equational axiom systems over product, "
                    "left division, and right division: enumerate finite "
                    "models, prove or refute identities, classify structure, "
                    "and compare systems by deductive power.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate finite models of a system")
    _add_system(p)
    p.add_argument("--size", type=_positive_int, required=True, help="carrier size")
    p.add_argument("--ops", help="comma-separated operations to instantiate "
                                 "(default: those the system mentions)")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--up-to-iso", action="store_true",
                   help="one representative per isomorphism class")
    p.add_argument("--max-results", type=_positive_int, default=None)
    _add_parallel(p)
    p.add_argument("--allow-large", action="store_true",
                   help="permit sizes above the built-in limit")
    p.add_argument("--cache-dir", default=None,
                   help=f"cache directory (default: ${CACHE_ENV})")
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="check an algebra against a system")
    _add_system(p)
    p.add_argument("--algebra", required=True, metavar="FILE|-",
                   help="algebra record file (JSON lines), '-' for stdin")
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("prove", help="derive an identity from a system")
    _add_system(p)
    p.add_argument("identity", help="candidate identity, e.g. 'ab = b/a'")
    p.add_argument("--max-term-depth", type=_positive_int, default=3,
                   help="deepest term a proof may pass through (default 3); an "
                        "identity with a side deeper than this is not derived "
                        "and exits 1, so raise it to at least that depth")
    p.add_argument("--max-steps", type=_positive_int, default=8)
    _add_format(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("refute", help="search for a countermodel")
    _add_system(p)
    p.add_argument("identity")
    p.add_argument("--max-size", type=_positive_int, default=3)
    p.add_argument("--allow-large", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("compare", help="compare two systems by power")
    p.add_argument("first")
    p.add_argument("second")
    _add_budgets(p)
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rank", help="order several systems by power")
    p.add_argument("systems", nargs="+")
    _add_budgets(p)
    _add_format(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("classify", help="structural report for algebras")
    p.add_argument("--algebra", default="-", metavar="FILE|-",
                   help="algebra record file, '-' for stdin (default)")
    _add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "audit",
        help="report whether each modulus reading makes the single-operation "
             "structures abelian groups at small sizes")
    p.add_argument("--max-size", type=_positive_int, default=3)
    _add_format(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return exc.code
    except (ParseError, AxiomFileError, UnknownSystemError,
            MissingTableError, MissingConstantError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # downstream closed the stream (e.g. piping into head); die quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
