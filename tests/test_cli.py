import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eqbench import cli, models, structure
from eqbench.axioms import builtin_system, load_axioms, merge
from eqbench.models import (EnumOptions, enumerate_models, from_record, make_algebra,
                             record_line, template_of, to_record)
from eqbench.terms import Op

from oracles import algebra_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_count_c1_size1(capsys):
    code, out, _ = run(capsys, "enumerate", "--system", "C1", "--size", "1", "--count")
    assert code == 0 and out == "1\n"


def test_enumerate_count_unconstrained_prod(capsys):
    code, out, _ = run(capsys, "enumerate", "--system", "none", "--ops", "prod",
                       "--size", "2", "--count")
    assert code == 0 and out == "16\n"


def test_enumerate_count_c0_with_a_neutral_element(capsys):
    code, out, _ = run(capsys, "enumerate", "--system", "C0", "--system", "Mx_neutral",
                       "--size", "3", "--count")
    assert code == 0 and out == "243\n"


def test_enumerate_count_c1_size2(capsys):
    code, out, _ = run(capsys, "enumerate", "--system", "C1", "--size", "2", "--count")
    assert code == 0 and out == "128\n"


def test_enumerate_count_of_c1_size3_builds_no_vector(capsys):
    # C1 tests no cell at size 3, so its 3**15 models are one block, counted
    started = time.monotonic()
    code, out, _ = run(capsys, "enumerate", "--system", "C1", "--size", "3", "--count")
    assert (code, out) == (0, "14348907\n") and time.monotonic() - started < 5
    code, out, _ = run(capsys, "enumerate", "--system", "C1", "--size", "3", "--count",
                       "--max-results", "14348907")
    assert (code, out) == (0, "14348907\n")
    code, out, err = run(capsys, "enumerate", "--system", "C1", "--size", "3", "--count",
                         "--max-results", "14348906")
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert err == "error: more than max_results=14348906 models exist\n"


def test_enumerate_records_are_valid_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--system", "C0", "--size", "2",
                       "--format", "records")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"size", "ops", "constants"}


def test_enumerate_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--system", "Mx_neutral", "--size", "4",
                       "--count")
    assert code == cli.EXIT_RESOURCE
    assert "limit" in err


def test_enumerate_unknown_system_is_config_error(capsys):
    code, _, err = run(capsys, "enumerate", "--system", "C9", "--size", "2", "--count")
    assert code == cli.EXIT_CONFIG
    assert "unknown system" in err


def test_enumerate_parallel_streams_identical(capsys):
    args = ["enumerate", "--system", "C0", "--size", "3", "--format", "records"]
    code, base, _ = run(capsys, *args, "--parallel", "1")
    assert code == 0
    code, wide, _ = run(capsys, *args, "--parallel", "8")
    assert code == 0
    assert base == wide


def test_enumerate_cache_cold_and_warm_byte_identical(tmp_path, capsys):
    args = ["enumerate", "--system", "C1", "--size", "2", "--format", "records",
            "--cache-dir", str(tmp_path)]
    code, cold, _ = run(capsys, *args)
    assert code == 0
    cached_files = list(tmp_path.glob("*.jsonl"))
    assert len(cached_files) == 1
    code, warm, _ = run(capsys, *args)
    assert code == 0
    assert cold == warm


def test_cache_shared_between_renamed_but_equal_systems(tmp_path, capsys):
    eqfile = tmp_path / "my_c1.eq"
    eqfile.write_text("xy = yx\nx:y = x/y\n")
    run(capsys, "enumerate", "--system", "C1", "--size", "2", "--count",
        "--cache-dir", str(tmp_path / "cache"))
    run(capsys, "enumerate", "--system", str(eqfile), "--size", "2", "--count",
        "--cache-dir", str(tmp_path / "cache"))
    assert len(list((tmp_path / "cache").glob("*.jsonl"))) == 1


def test_cache_env_var_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(capsys, "enumerate", "--system", "C1", "--size", "2", "--count")
    assert code == 0
    assert list(tmp_path.glob("*.jsonl"))


# ---------------------------------------------------------------------------
# check

def _write_algebra(path, **kw):
    table_z2 = [[0, 1], [1, 0]]
    tables = {Op.PROD: table_z2, Op.LDIV: table_z2, Op.RDIV: table_z2}
    alg = make_algebra(2, tables, kw.get("constants", {}))
    path.write_text(record_line(alg) + "\n")


def test_check_size_one_satisfies_c0(tmp_path, capsys):
    f = tmp_path / "one.jsonl"
    f.write_text('{"size":1,"ops":{"prod":[[0]],"ldiv":[[0]],"rdiv":[[0]]},"constants":{}}\n')
    code, out, _ = run(capsys, "check", "--system", "C0", "--algebra", str(f))
    assert code == 0 and out == "satisfies C0\n"


def test_check_z2_triple_satisfies_c0(tmp_path, capsys):
    f = tmp_path / "z2.jsonl"
    _write_algebra(f)
    code, out, _ = run(capsys, "check", "--system", "C0", "--algebra", str(f))
    assert code == 0 and "satisfies" in out


def test_check_missing_table_is_input_error(tmp_path, capsys):
    f = tmp_path / "prodonly.jsonl"
    f.write_text('{"size":2,"ops":{"prod":[[0,1],[1,0]]},"constants":{}}\n')
    code, _, err = run(capsys, "check", "--system", "C0", "--algebra", str(f))
    assert code == cli.EXIT_CONFIG
    assert "missing table ldiv" in err


_ONE = '{"size":1,"ops":{"prod":[[0]],"ldiv":[[0]],"rdiv":[[0]]},"constants":%s}\n'
_PROD_ONLY = '{"size":1,"ops":{"prod":[[0]]},"constants":{}}\n'


@pytest.mark.parametrize("system,first,err", [
    ("C0", _ONE % "{}", "error: missing table ldiv\n"),
    ("Mx_neutral", _ONE % '{"e":0}',
     "error: system 'Mx_neutral' names constant 'e' but the algebra does not define it\n"),
], ids=["missing_table", "missing_constant"])
def test_check_input_error_after_a_good_record_leaves_stdout_empty(tmp_path, capsys,
                                                                   system, first, err):
    f = tmp_path / "two.jsonl"
    f.write_text(first + _PROD_ONLY)
    assert run(capsys, "check", "--system", system, "--algebra", str(f)) == (
        cli.EXIT_CONFIG, "", err)


def test_check_reports_the_first_input_error_in_input_order(tmp_path, capsys):
    # a record lacking a table the system needs, and a line that is no record
    f = tmp_path / "both.jsonl"
    f.write_text(_ONE % "{}" + _PROD_ONLY + "not json\n")
    assert run(capsys, "check", "--system", "C0", "--algebra", str(f)) == (
        cli.EXIT_CONFIG, "", "error: missing table ldiv\n")
    f.write_text(_ONE % "{}" + "not json\n" + _PROD_ONLY)
    code, out, err = run(capsys, "check", "--system", "C0", "--algebra", str(f))
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"error: {f}:2: bad algebra record: ")


def test_check_compiles_an_equation_only_when_a_record_reaches_it(tmp_path, capsys):
    # the first axiom fails on the product alone, so the second one, which
    # needs ldiv, is never reached and its missing table is no error
    ax = tmp_path / "ax.eq"
    ax.write_text("ab = ba\na:b = b:a\n")
    f = tmp_path / "prod.jsonl"
    f.write_text('{"size":2,"ops":{"prod":[[0,0],[1,1]]},"constants":{}}\n')
    assert run(capsys, "check", "--system", str(ax), "--algebra", str(f)) == (
        cli.EXIT_NEGATIVE, "fails ax: a b = b a at a=0, b=1\n", "")
    # a record that gets past the first axiom does need the table
    f.write_text('{"size":2,"ops":{"prod":[[0,0],[1,1]]},"constants":{}}\n'
                 '{"size":2,"ops":{"prod":[[0,1],[1,0]]},"constants":{}}\n')
    assert run(capsys, "check", "--system", str(ax), "--algebra", str(f)) == (
        cli.EXIT_CONFIG, "", "error: missing table ldiv\n")


def test_check_reports_a_missing_constant_at_the_first_record_of_its_shape(tmp_path, capsys):
    # good records of one shape, then a shape without the constant, then a
    # line that is no record: the constant is the first error
    good = [record_line(make_algebra(2, {Op.PROD: [[0, 1], [1, 0]]}, {"e": 0})),
            record_line(make_algebra(2, {Op.PROD: [[1, 0], [0, 1]]}, {"e": 1}))]
    f = tmp_path / "mixed.jsonl"
    f.write_text("\n".join([*good, *good, _PROD_ONLY.strip(), *good, "not json"]) + "\n")
    assert run(capsys, "check", "--system", "Mx_neutral", "--algebra", str(f)) == (
        cli.EXIT_CONFIG, "",
        "error: system 'Mx_neutral' names constant 'e' but the algebra does not define it\n")


def test_check_failure_reports_witness_and_exit1(tmp_path, capsys):
    f = tmp_path / "bad.jsonl"
    f.write_text('{"size":2,"ops":{"prod":[[0,0],[1,0]]},"constants":{}}\n')
    code, out, _ = run(capsys, "check", "--system", "C1", "--algebra", str(f),
                       "--format", "records")
    assert code == cli.EXIT_NEGATIVE
    rec = json.loads(out)
    assert rec["satisfies"] is False
    assert rec["failed_equation"] == "a b = b a"
    assert rec["witness"] == {"a": 0, "b": 1}


def test_check_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "check", "--system", "C0", "--algebra",
                       "/nonexistent/path.jsonl")
    assert code == cli.EXIT_IO


# ---------------------------------------------------------------------------
# prove / refute

def test_prove_c0_coincidence(capsys):
    code, out, _ = run(capsys, "prove", "--system", "C0", "ab = b/a")
    assert code == 0
    assert out.startswith("proved: a b = b/a")
    steps = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    assert 1 <= len(steps) <= 3


def test_prove_reflexive(capsys):
    code, out, _ = run(capsys, "prove", "--system", "C1", "a = a")
    assert code == 0 and "reflexivity" in out


def test_prove_unknown_exits_nonzero(capsys):
    code, out, _ = run(capsys, "prove", "--system", "none", "ab = ba")
    assert code == cli.EXIT_NEGATIVE and "unknown" in out


def test_prove_bad_identity_is_config_error(capsys):
    code, _, err = run(capsys, "prove", "--system", "C1", "ab = = ba")
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["prove", "refute"])
def test_deeply_nested_identity_is_config_error(capsys, command):
    deep = "(" * 5000 + "a" + ")" * 5000
    code, _, err = run(capsys, command, "--system", "C0", f"{deep} = a")
    assert code == cli.EXIT_CONFIG and "nesting too deep" in err


@pytest.mark.parametrize("command,system", [("prove", "C0"), ("refute", "none")])
def test_juxtaposed_chain_past_depth_limit_is_config_error(capsys, command, system):
    # a chain of 1,000 factors parses without recursion into a 999-deep term
    chain = " ".join("a" * 1000)
    code, _, err = run(capsys, command, "--system", system, f"{chain} = a")
    assert code == cli.EXIT_CONFIG
    assert "deeper than" in err and "position" in err


@pytest.mark.parametrize("argv", [["enumerate", "--size", "2", "--count"], ["prove", "ab = ba"]],
                         ids=["enumerate", "prove"])
def test_axiom_file_that_is_not_utf8_is_config_error(tmp_path, capsys, argv):
    # the error names the line that holds the first bad byte
    f = tmp_path / "bad.ax"
    f.write_bytes(b"ab = ba\n\xff ab = ba\n")
    code, out, err = run(capsys, argv[0], "--system", str(f), *argv[1:])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"error: {f}:2: not UTF-8 text:") and "Traceback" not in err


def test_refute_empty_system_commutativity(capsys):
    code, out, _ = run(capsys, "refute", "--system", "none", "ab = ba",
                       "--max-size", "2")
    assert code == 0
    assert "refuted" in out and "prod=[[0,0],[1,0]]" in out


def test_refute_records(capsys):
    code, out, _ = run(capsys, "refute", "--system", "none", "ab = ba",
                       "--max-size", "2", "--format", "records")
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "refuted"
    assert rec["countermodel"]["ops"]["prod"] == [[0, 0], [1, 0]]
    assert rec["witness"] == {"a": 0, "b": 1}


def test_refute_holds_exits_nonzero(capsys):
    code, out, _ = run(capsys, "refute", "--system", "C0", "ab = b/a",
                       "--max-size", "2")
    assert code == cli.EXIT_NEGATIVE and "holds" in out


@pytest.mark.parametrize("system,identity", [("C1", "(a:b)c = c(a:b)"),
                                             ("none", "(ab)/b = (ab)/b")])
def test_refute_of_a_provable_identity_holds(capsys, system, identity):
    # the size-3 search over the tables these identities leave free passes
    # the node cap; a proof settles them before that search
    code, out, _ = run(capsys, "refute", "--system", system, identity)
    assert (code, out) == (cli.EXIT_NEGATIVE, "holds in every model up to size 3\n")


def test_refute_finds_a_size_3_countermodel_with_a_neutral_element(capsys):
    # a e = a and e a = a read e; ruling out the values of e that a cell
    # contradicts keeps the size-3 search under the node cap
    code, out, _ = run(capsys, "refute", "--system", "Mx_neutral", "a a:a = a:a a")
    assert (code, out) == (0, "refuted: a a:a = a:a a fails at a=2 in\n"
                              "  size=3 prod=[[0,0,0],[0,1,2],[1,2,0]] "
                              "ldiv=[[0,0,0],[0,0,0],[0,0,0]] constants=e=1\n")


def test_prove_deeper_than_max_term_depth_needs_the_flag(capsys):
    identity = "(((ab)c)d)e = e/(((ab)c)d)"  # its left side is 4 deep
    code, out, _ = run(capsys, "prove", "--system", "C0", identity)
    assert code == cli.EXIT_NEGATIVE and out.startswith("unknown:")
    code, out, _ = run(capsys, "prove", "--system", "C0", identity, "--max-term-depth", "4")
    assert code == 0 and out.startswith("proved:")


def test_prove_deep_product_is_unknown_at_once(capsys):
    # the candidate's own depth must not raise derive's depth cap: a search
    # that grows terms 100 deep runs for tens of seconds before it gives up
    product = "a a"
    for _ in range(99):
        product = f"a ({product})"
    started = time.monotonic()
    code, out, _ = run(capsys, "prove", "--system", "C0", f"{product} = a")
    assert code == cli.EXIT_NEGATIVE and out.startswith("unknown:")
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# compare / rank

def test_compare_equivalent(capsys):
    code, out, _ = run(capsys, "compare", "C1", "C1")
    assert code == 0 and "equivalent" in out


def test_compare_superset_not_second_stronger(tmp_path, capsys):
    eqfile = tmp_path / "extra.eq"
    eqfile.write_text("a:b = b:a\n")
    # C2 plus its own first axiom vs C2: must not be weaker
    code, out, _ = run(capsys, "compare", "C2", str(eqfile), "--format", "records")
    assert code == 0
    rec = json.loads(out)
    assert rec["relation"] in ("equivalent", "first-stronger", "incomparable")


def test_rank_records_shape(capsys):
    code, out, _ = run(capsys, "rank", "C0", "C1", "C2", "C3", "--format", "records")
    assert code == 0
    rec = json.loads(out)
    assert rec["systems"] == ["C0", "C1", "C2", "C3"]
    assert rec["budgets"]["model_size"] == 2


@pytest.mark.parametrize("argv", [
    ("enumerate", "--system", "C0", "--size", "0"),
    ("refute", "--system", "C0", "ab = ba", "--max-size", "0"),
    ("prove", "--system", "C0", "ab = ba", "--max-steps", "0"),
    ("compare", "C0", "C1", "--max-vars", "5"),
], ids=["enumerate-size", "refute-max-size", "prove-max-steps", "compare-max-vars"])
def test_out_of_range_numeric_option_is_config_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert argv[-2] in err and "Traceback" not in err


def test_rank_refuses_a_candidate_space_too_large_to_build(capsys):
    from eqbench.consequence import MAX_CANDIDATE_PAIRS, terms_within

    # the (2, 2) space is still built; the (3, 2) space is refused before
    # its 7.3 million pairs are
    assert len(terms_within(2, 2)) ** 2 <= MAX_CANDIDATE_PAIRS < len(terms_within(3, 2)) ** 2
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "C0", "--max-vars", "3", "--max-depth", "2")
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert "7,306,209" in err and time.perf_counter() - start < 5


def test_rank_parallel_byte_identical(capsys):
    code, one, _ = run(capsys, "rank", "C0", "C1", "C2", "C3",
                       "--format", "records", "--parallel", "1")
    assert code == 0
    code, eight, _ = run(capsys, "rank", "C0", "C1", "C2", "C3",
                         "--format", "records", "--parallel", "8")
    assert code == 0
    assert one == eight


# ---------------------------------------------------------------------------
# classify

def test_classify_z3_addition_is_abelian_group(tmp_path, capsys):
    z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    f = tmp_path / "z3.jsonl"
    f.write_text(record_line(make_algebra(3, {Op.PROD: z3})) + "\n")
    code, out, _ = run(capsys, "classify", "--algebra", str(f), "--format", "records")
    assert code == 0
    rec = json.loads(out)
    assert rec["ops"]["prod"]["is_abelian_group"] is True
    assert rec["ops"]["ldiv"] is None


def test_classify_piped_c0_models_all_coincide(capsys, monkeypatch):
    code, models_out, _ = run(capsys, "enumerate", "--system", "C0", "--size", "2",
                              "--format", "records")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(models_out))
    code, out, _ = run(capsys, "classify", "--format", "records")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    for line in lines:
        assert json.loads(line)["ops_coincide"] is True


def test_check_and_classify_answer_the_same_from_a_file_and_stdin(tmp_path, capsys,
                                                                 monkeypatch):
    def records(*argv):
        code, out, _ = run(capsys, "enumerate", *argv, "--format", "records")
        assert code == 0
        return out

    c0 = records("--system", "C0", "--size", "2")
    # tables that differ, a constant, and records with the product alone
    mixed = (records("--system", "C1", "--size", "2", "--max-results", "200")
             + records("--system", "C0", "--system", "Mx_neutral", "--size", "2")
             + records("--system", "G1", "--size", "3", "--up-to-iso") + c0)
    for name, text in (("c0", c0), ("mixed", mixed)):
        f = tmp_path / f"{name}.jsonl"
        f.write_text(text, encoding="utf-8")
        for command in (["check", "--system", "C1"], ["classify"]):
            for fmt in ("text", "records"):
                argv = [*command, "--format", fmt, "--algebra"]
                from_file = run(capsys, *argv, str(f))
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                assert run(capsys, *argv, "-") == from_file, (name, argv)
                # answers, or C1's missing-table error on the G1 records
                assert from_file[1] or from_file[0] == cli.EXIT_CONFIG


def _records_by_json(text: str) -> list:
    """(template, entry vector) of each record line of ``text``, each line
    read on its own by ``json``."""
    out = []
    for line in text.split("\n"):
        if line.strip():
            alg = from_record(json.loads(line))
            out.append((template_of(alg), alg.cells + tuple(v for _, v in alg.constants)))
    return out


def test_block_reader_matches_json_line_by_line(tmp_path, monkeypatch):
    rng = random.Random(19)

    def record(n, ops, names):
        return json.dumps({"size": n, "ops": {op: [[rng.randrange(n) for _ in range(n)]
                                                   for _ in range(n)] for op in ops},
                           "constants": {x: rng.randrange(n) for x in names}},
                          separators=(",", ":"))

    # runs of one shape (sizes 1-3, with and without a constant, a constant
    # whose name holds a digit, size 10, tables out of order), lines json
    # alone reads, a size-11 record, and a last line without a newline
    odd = ["", "   ", "\r", " {} ", "{}\r", "\t{}"]
    lines = []
    for _ in range(60):
        n = rng.choice((1, 2, 3, 3, 10))
        ops = [op for op in ("prod", "ldiv", "rdiv") if rng.random() < 0.6] or ["rdiv"]
        if rng.random() < 0.1:  # not the order the template writes
            ops.reverse()
        names = rng.choice([(), (), ("e",), ("c2",)])
        lines += [record(n, ops, names) for _ in range(rng.randint(1, 40))]
        lines.append(rng.choice(odd).format(record(n, ops, names)))
    lines[100:100] = [record(11, ["prod"], ())]
    lines += [record(2, ["prod"], ("e",)) for _ in range(30)]
    text = "\n".join(lines)
    want = _records_by_json(text)
    assert len({t for t, _ in want}) > 20
    f = tmp_path / "mixed.jsonl"
    f.write_text(text, encoding="utf-8")
    by_json = []
    monkeypatch.setattr(cli, "from_record", lambda rec: by_json.append(rec) or from_record(rec))
    for block in (1, 7, 64, cli._BLOCK):
        monkeypatch.setattr(cli, "_BLOCK", block)
        assert list(cli._read_records(str(f))) == want, block
        monkeypatch.setattr("sys.stdin", io.StringIO(text))  # no bytes beneath
        assert list(cli._read_records("-")) == want, block
    assert len(by_json) < len(want) * 8 / 2  # most lines were read by templates
    # an error after a run read by the template names the line json names
    bad = len(lines) - 1
    lines[bad] = lines[bad].replace("]]", ",0]]", 1)
    with pytest.raises(ValueError) as err:
        _records_by_json("\n".join(lines))
    f.write_text("\n".join(lines), encoding="utf-8")
    for block in (7, cli._BLOCK):
        monkeypatch.setattr(cli, "_BLOCK", block)
        with pytest.raises(cli.CliError) as got:
            list(cli._read_records(str(f)))
        assert str(got.value) == f"{f}:{bad + 1}: bad algebra record: {err.value}"


def test_classify_memo_stays_within_its_bound(tmp_path, capsys, monkeypatch):
    # every table of size 2 and 300 of size 3, twice, more than the bound
    # holds: the answers are those of a run with room for every table
    tables = [[list(flat[:2]), list(flat[2:])] for flat in itertools.product(range(2), repeat=4)]
    rng = random.Random(14)
    tables += [[[rng.randrange(3) for _ in range(3)] for _ in range(3)] for _ in range(300)]
    f = tmp_path / "tables.jsonl"
    f.write_text("".join(record_line(make_algebra(len(t), {Op.PROD: t})) + "\n"
                         for t in tables * 2))
    memos, held = [], []

    class Recorded(structure.TableReports):
        def __init__(self):
            super().__init__()
            memos.append(self)

        def __missing__(self, cells):  # a scan, and the tables and cells held after it
            report = super().__missing__(cells)
            held.append((len(self), sum(map(len, self))))
            return report

    monkeypatch.setattr(structure, "TableReports", Recorded)
    want = run(capsys, "classify", "--algebra", str(f), "--format", "records")
    assert want[0] == 0 and [k for k, _ in held] == list(range(1, len(tables) + 1))
    # equal reports are one object
    memo = memos.pop()
    assert len(set(map(id, memo.values()))) == len(set(memo.values())) < len(tables)
    held.clear()
    monkeypatch.setattr(structure, "_MEMO_CELLS", 45)
    assert run(capsys, "classify", "--algebra", str(f), "--format", "records") == want
    # cleared so often, the memo never hits, and never holds more than 45
    # cells: five tables of size 3
    assert len(held) == 2 * len(tables) and max(c for _, c in held) == 45


# ---------------------------------------------------------------------------
# audit

def test_audit_emits_seven_reading_rows(capsys):
    code, out, _ = run(capsys, "audit", "--max-size", "2", "--format", "records")
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert len(rows) == 7
    assert {r["structure"] for r in rows} == {"G1", "G2", "G3"}
    for row in rows:
        assert set(row["sizes"]) == {"1", "2"}
        assert isinstance(row["abelian_group_claim_holds"], bool)


def test_audit_text_mode_mentions_claim(capsys):
    code, out, _ = run(capsys, "audit", "--max-size", "1")
    assert code == 0
    assert "G1 with Mx_as_printed" in out


def test_enumerate_max_results_cap_exit_code(tmp_path, capsys, monkeypatch):
    code, out, err = run(capsys, "enumerate", "--system", "none", "--ops", "prod",
                         "--size", "2", "--max-results", "5", "--format", "records")
    assert code == cli.EXIT_RESOURCE
    assert "max_results" in err
    # the records before the cap are written, whole, whether the cap falls
    # inside the first batch of lines or after some batches were written
    code, full, _ = run(capsys, "enumerate", "--system", "none", "--ops", "prod",
                        "--size", "2", "--format", "records")
    assert code == 0 and len(full.splitlines()) == 16
    assert out == "".join(full.splitlines(keepends=True)[:5])
    monkeypatch.setattr(cli, "_BATCH", 2)
    for cap in (4, 5):
        assert run(capsys, "enumerate", "--system", "none", "--ops", "prod", "--size", "2",
                   "--max-results", str(cap), "--format", "records")[:2] == (
            cli.EXIT_RESOURCE, "".join(full.splitlines(keepends=True)[:cap]))
    # the same for a shape with a constant, with the cap just before, at and
    # just past the end of a batch; a cold cache file holds the same lines
    base = ["enumerate", "--system", "C0", "--system", "Mx_neutral", "--size", "2",
            "--format", "records"]
    code, full, _ = run(capsys, *base)
    assert code == 0 and len(full.splitlines()) == 4 and '"constants":{"e":' in full
    assert full == "".join(record_line(from_record(json.loads(line))) + "\n"
                           for line in full.splitlines())
    for cap in (cli._BATCH - 1, cli._BATCH, cli._BATCH + 1):
        assert run(capsys, *base, "--max-results", str(cap))[:2] == (
            cli.EXIT_RESOURCE, "".join(full.splitlines(keepends=True)[:cap]))
    cache = tmp_path / "cache"
    assert run(capsys, *base, "--cache-dir", str(cache))[:2] == (0, full)
    [path] = cache.glob("*.jsonl")
    assert path.read_text(encoding="utf-8") == full + cli._end_marker(4) + "\n"


@pytest.mark.parametrize("batch", [512, pytest.param(2, marks=pytest.mark.slow)])
def test_max_results_cuts_every_record_writer_the_same(batch, tmp_path, capsys, monkeypatch):
    # the output stage applies the cap to the lines of each writer: a raw
    # run (C0, one leaf of 19,683 models, and an axiom file whose leaves are
    # 3 models each), a run up to isomorphism (each vector a leaf of one
    # model) and C0 at size 11 (no digits: format writes the lines).  In
    # batches of 512 lines (6 s) and of two (slow: 13 s, most lines a chunk
    # of their own), capped at 1, around a batch and at the count less one
    # and at it, a run without a cache, on a cold one and on a warm one
    # prints record_line of the first algebras enumerate_models yields (in
    # --format text, their reference text), and exits 3 exactly when the cap
    # is below the count
    assert cli._BATCH == 512
    monkeypatch.setattr(cli, "_BATCH", batch)
    leaves = tmp_path / "leaves.ax"
    leaves.write_text("a(bc) = a(bc)\na/b = c/d\n")
    c0 = builtin_system("C0")
    cases = [(c0, ["--system", "C0", "--size", "3"], EnumOptions(), 19_683),
             (c0, ["--system", "C0", "--size", "3", "--up-to-iso"], EnumOptions(up_to_iso=True),
              3_330),
             (load_axioms(leaves), ["--system", str(leaves), "--size", "3"], EnumOptions(),
              59_049),
             (c0, ["--system", "C0", "--size", "11", "--allow-large"],
              EnumOptions(allow_large=True), None)]
    caches = (str(tmp_path / f"cache{i}") for i in itertools.count())
    for sys_, argv, opts, count in cases:
        n = int(argv[argv.index("--size") + 1])
        caps = {1, batch - 1, batch, batch + 1, *((count - 1, count) if count else ())} - {0}
        algebras = list(itertools.islice(enumerate_models(sys_, n, opts), max(caps)))
        formats = {"records": [record_line(a) + "\n" for a in algebras],
                   "text": [algebra_text(a) + "\n" for a in algebras]}
        for cap, (fmt, want) in itertools.product(sorted(caps), formats.items()):
            stopped = count is None or cap < count
            expect = (cli.EXIT_RESOURCE if stopped else 0, "".join(want[:cap]),
                      f"error: more than max_results={cap} models exist\n" if stopped else "")
            capped = ["enumerate", *argv, "--format", fmt, "--max-results", str(cap)]
            cache = ["--cache-dir", next(caches)]
            for state in ([], cache, cache):  # no cache, cold, warm
                assert run(capsys, *capped, *state) == expect, (capped, state)


def test_enumerate_builds_the_relabeling_table_only_up_to_iso(capsys, monkeypatch):
    # the table has a row per permutation of the carrier: 40! at size 40
    def refuse(*args):
        raise AssertionError("relabeling table built")

    monkeypatch.setattr(models, "_relabeling_table", refuse)
    for fmt in (("--count",), ("--format", "records"), ("--format", "text")):
        assert run(capsys, "enumerate", "--system", "C0", "--size", "2", *fmt)[0] == 0
    with pytest.raises(AssertionError, match="relabeling table built"):
        cli.main(["enumerate", "--system", "C0", "--size", "2", "--up-to-iso", "--count"])


def test_enumerate_max_results_cap_with_cache(tmp_path, capsys):
    args = ["enumerate", "--system", "none", "--ops", "prod", "--size", "2",
            "--max-results", "5", "--count", "--cache-dir", str(tmp_path)]
    code, _, err = run(capsys, *args)
    assert code == cli.EXIT_RESOURCE
    # nothing was cached, so the second run breaches the same way
    code, _, err = run(capsys, *args)
    assert code == cli.EXIT_RESOURCE


def test_enumerate_max_results_on_cold_cache_stops_early(tmp_path, capsys, monkeypatch):
    # C1 has 14,348,907 models of size 3; the cap must stop the search, and
    # an enumeration cut short by it must not be cached
    started = time.monotonic()
    code, _, err = run(capsys, "enumerate", "--system", "C1", "--size", "3",
                       "--max-results", "5", "--count", "--cache-dir", str(tmp_path))
    assert code == cli.EXIT_RESOURCE and "max_results=5" in err
    assert time.monotonic() - started < 30
    assert list(tmp_path.iterdir()) == []
    # a run under the cap is cached, and a smaller cap breaches from the cache
    args = ["enumerate", "--system", "C1", "--size", "2", "--count",
            "--cache-dir", str(tmp_path)]
    assert run(capsys, *args, "--max-results", "200")[:2] == (0, "128\n")
    assert len(list(tmp_path.glob("*.jsonl"))) == 1
    code, _, _ = run(capsys, *args, "--max-results", "100")
    assert code == cli.EXIT_RESOURCE
    # a closed pipe stops a cold run quietly, and caches nothing either
    out = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            if self.tell():
                raise BrokenPipeError
            return super().write(text)

        def fileno(self):  # where main puts the null device
            return out

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    cache = tmp_path / "pipe"
    assert cli.main(["enumerate", "--system", "C0", "--size", "3", "--format", "records",
                     "--cache-dir", str(cache)]) == cli.EXIT_OK
    os.close(out)
    assert list(cache.glob("*.jsonl")) == list(cache.glob("*.tmp")) == []


def test_corrupt_cache_file_is_a_miss(tmp_path, capsys):
    args = ["enumerate", "--system", "C1", "--size", "2", "--format", "records",
            "--cache-dir", str(tmp_path)]
    code, cold, _ = run(capsys, *args)
    assert code == 0
    [path] = tmp_path.glob("*.jsonl")
    written = path.read_bytes()
    lines = written.splitlines(keepends=True)
    lines[-2] = lines[-2][:-10] + b"\n"  # cut inside the last record
    path.write_bytes(b"".join(lines))
    code, again, _ = run(capsys, *args)
    assert code == 0 and again == cold
    assert path.read_bytes() == written
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind


def test_truncated_cache_file_is_a_miss(tmp_path, capsys):
    args = ["enumerate", "--system", "C1", "--size", "2", "--count",
            "--cache-dir", str(tmp_path)]
    assert run(capsys, *args)[:2] == (0, "128\n")
    [path] = tmp_path.glob("*.jsonl")
    written = path.read_bytes()
    lines = written.splitlines(keepends=True)
    assert len(lines) == 129 and json.loads(lines[-1]) == {"records": 128}
    # cut at a line boundary, and a file without the end marker
    for kept in (lines[:100], lines[:-1]):
        path.write_bytes(b"".join(kept))
        assert run(capsys, *args)[:2] == (0, "128\n")
        assert path.read_bytes() == written


def test_undecodable_cache_file_is_a_miss(tmp_path, capsys):
    args = ["enumerate", "--system", "C1", "--size", "2", "--format", "records",
            "--cache-dir", str(tmp_path)]
    code, cold, _ = run(capsys, *args)
    assert code == 0
    [path] = tmp_path.glob("*.jsonl")
    written = path.read_bytes()
    path.write_bytes(b"\xff" + written[1:])
    code, again, _ = run(capsys, *args)
    assert code == 0 and again == cold
    assert path.read_bytes() == written


def test_cached_record_of_another_shape_is_a_miss(tmp_path, capsys):
    args = ["enumerate", "--system", "C1", "--size", "2", "--format", "records",
            "--cache-dir", str(tmp_path)]
    code, cold, _ = run(capsys, *args)
    assert code == 0
    [path] = tmp_path.glob("*.jsonl")
    written = path.read_bytes()
    lines = written.splitlines(keepends=True)
    # well-formed, and the count in the end marker still right
    lines[5] = b'{"size":1,"ops":{"prod":[[0]]},"constants":{}}\n'
    path.write_bytes(b"".join(lines))
    code, again, _ = run(capsys, *args)
    assert code == 0 and again == cold
    assert path.read_bytes() == written


def test_warm_hit_on_a_large_shape_compiles_no_pattern(tmp_path, capsys):
    # size 40 has 4,800 cells, past the shapes whose patterns are compiled
    axioms = tmp_path / "projections.eq"
    axioms.write_text("ab = a\na:b = a\na/b = a\n")
    base = ["enumerate", "--system", str(axioms), "--size", "40", "--allow-large"]
    formats = (("--format", "records"), ("--format", "text"), ("--count",))
    cold = {fmt: run(capsys, *base, *fmt) for fmt in formats}
    template = template_of(from_record(json.loads(cold["--format", "records"][1])))
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for _ in range(2):  # cold, then warm
        for fmt, want in cold.items():
            assert run(capsys, *base, *fmt, *cache) == want
    assert "lines" not in vars(template)
    # a line that json reads but that is not the record line as written is a miss
    [path] = (tmp_path / "cache").glob("*.jsonl")
    written = path.read_text(encoding="utf-8")
    path.write_text(written.replace('"size":40,', '"size": 40,', 1), encoding="utf-8")
    assert run(capsys, *base, "--count", *cache) == cold[("--count",)]
    assert path.read_text(encoding="utf-8") == written


def test_cache_hit_serves_every_format(tmp_path, capsys, monkeypatch):
    base = ["enumerate", "--system", "C0", "--system", "Mx_neutral", "--size", "2"]
    formats = (["--format", "records"], ["--format", "text"], ["--count"])
    cold = {fmt[-1]: run(capsys, *base, *fmt) for fmt in formats}
    assert {out[0] for out in cold.values()} == {0}
    assert run(capsys, *base, "--count", "--cache-dir", str(tmp_path)) == cold["--count"]
    # the file holds json.dumps of each record and the count marker
    [path] = tmp_path.glob("*.jsonl")
    algebras = list(enumerate_models(merge([builtin_system("C0"),
                                            builtin_system("Mx_neutral")]), 2))
    assert algebras and algebras[0].constants
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps(to_record(a), separators=(",", ":")) + "\n" for a in algebras
    ) + json.dumps({"records": len(algebras)}) + "\n"

    # without a cache, on a cold one and on a warm one, a run prints the same
    # bytes and exits the same, in every format, with the cap below, at and
    # past the count, in batches of 512 lines and of two; the shapes: one
    # with a constant, and two of more than 512 entries (checked line by line)
    (tmp_path / "projections.eq").write_text("ab = a\na:b = a\na/b = a\n")
    (tmp_path / "constant.eq").write_text("ab = cc\n")
    shapes = {(*base, "--format"): 4}
    for name, size, count in (("projections", 40, 1), ("constant", 23, 23)):
        shapes["enumerate", "--system", str(tmp_path / f"{name}.eq"), "--size", str(size),
               "--allow-large", "--format"] = count
    full = {shape: tmp_path / f"full{k}" for k, shape in enumerate(shapes)}
    cases = {}
    for batch in (cli._BATCH, 2):
        monkeypatch.setattr(cli, "_BATCH", batch)
        for shape, count in shapes.items():
            assert run(capsys, *shape, "text", "--cache-dir", str(full[shape]))[0] == 0
            for fmt in (["records"], ["text"], ["text", "--count"]):
                for cap in (None, count - 1, count, count + 1):
                    argv = [*shape, *fmt] + (["--max-results", str(cap)] if cap else [])
                    cache = tmp_path / f"cache{len(cases)}"
                    want = cases[batch, shape, cache, *argv] = run(capsys, *argv)
                    assert want[0] == (cli.EXIT_RESOURCE if cap and cap < count else 0)
                    assert run(capsys, *argv, "--cache-dir", str(cache)) == want
                    # a run the cap stops caches nothing
                    assert len(list(cache.glob("*"))) == (0 if want[0] else 1)

    def enumerate_again(*args):
        raise AssertionError("a cache hit enumerates nothing")

    monkeypatch.setattr(cli, "enumerate_models", enumerate_again)
    monkeypatch.setattr(cli, "record_blocks", enumerate_again)
    for fmt in formats:
        assert run(capsys, *base, *fmt, "--cache-dir", str(tmp_path)) == cold[fmt[-1]]
    for (batch, shape, cache, *argv), want in cases.items():
        monkeypatch.setattr(cli, "_BATCH", batch)
        assert run(capsys, *argv, "--cache-dir", str(full[shape])) == want
        if not want[0]:
            assert run(capsys, *argv, "--cache-dir", str(cache)) == want


@pytest.mark.parametrize("command", [["check", "--system", "C0"], ["classify"]],
                         ids=["check", "classify"])
def test_undecodable_records_are_input_errors(tmp_path, capsys, monkeypatch, command):
    # the error names the line and the offset within it, not a position
    # within whatever chunk the decoder had read
    f = tmp_path / "bad.jsonl"
    record = b'{"size":1,"ops":{"prod":[[0]],"ldiv":[[0]],"rdiv":[[0]]},"constants":{}}\n'
    f.write_bytes(record * 1000 + b'"\xff"\n')
    reason = "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 1"
    code, out, err = run(capsys, *command, "--algebra", str(f))
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"error: {f}:1001: {reason}")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(f.read_bytes()),
                                                      encoding="utf-8"))
    code, out, err = run(capsys, *command, "--algebra", "-")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"error: -:1001: {reason}")


def test_deeply_nested_record_is_input_error(tmp_path, capsys):
    f = tmp_path / "deep.jsonl"
    f.write_text("[" * 100000 + "]" * 100000 + "\n")
    code, out, err = run(capsys, "classify", "--algebra", str(f))
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"error: {f}:1: bad algebra record: ")


def test_check_reports_each_record_on_its_own_line(tmp_path, capsys):
    f = tmp_path / "two.jsonl"
    f.write_text(
        '{"size":1,"ops":{"prod":[[0]]},"constants":{}}\n'
        '{"size":2,"ops":{"prod":[[0,0],[1,0]]},"constants":{}}\n')
    code, out, _ = run(capsys, "check", "--system", "my", "--algebra", str(f),
                       "--format", "records")
    assert code == cli.EXIT_CONFIG  # unknown system comes first
    f2 = tmp_path / "sys.eq"
    f2.write_text("ab = ba\n")
    code, out, _ = run(capsys, "check", "--system", str(f2), "--algebra", str(f),
                       "--format", "records")
    assert code == cli.EXIT_NEGATIVE
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["satisfies"] is True
    assert json.loads(lines[1])["satisfies"] is False


def test_check_classify_and_enumerate_match_golden_digests(tmp_path, capsys):
    # regenerate with tests/golden/make_analysis_digests.py only when these
    # outputs should change; the first line's output, the C0 records, is the
    # input of the check and classify lines, the streams the script names
    # make the mixed file, and each command with a cache runs cold and then
    # warm in a directory of its own
    golden = Path(__file__).parent / "golden"
    spec = importlib.util.spec_from_file_location(
        "make_analysis_digests", golden / "make_analysis_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    records, mixed = tmp_path / "c0_size3.jsonl", tmp_path / "mixed.jsonl"
    caches = {}
    for line in (golden / "analysis_digests.jsonl").read_text(encoding="utf-8").splitlines():
        want = json.loads(line)
        cache = caches.setdefault(json.dumps(want["argv"]), tmp_path / f"cache{len(caches)}")
        if script.MIXED in want["argv"] and not mixed.exists():
            mixed.write_text("".join(run(capsys, *argv)[1] for argv in script.MIXED_PARTS),
                             encoding="utf-8")
        files = {script.RECORDS: str(records), script.MIXED: str(mixed),
                 script.CACHE: str(cache)}
        code, out, _ = run(capsys, *[files.get(a, a) for a in want["argv"]])
        if not records.exists():
            records.write_text(out, encoding="utf-8")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (want["exit"], want["stdout_sha256"]), want["argv"]


# ---------------------------------------------------------------------------
# output does not depend on the interpreter's hash seed

@pytest.mark.parametrize("argv", [
    ["rank", "C0", "C1", "--model-size", "2", "--format", "records"],
    ["enumerate", "--system", "C0", "--size", "2", "--up-to-iso", "--format", "records"],
    ["prove", "--system", "Mx_neutral", "a e = a", "--format", "records"],
], ids=["rank", "enumerate", "prove"])
def test_output_independent_of_hash_seed(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    results = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("EQBENCH_CACHE_DIR", None)
        proc = subprocess.run([sys.executable, "-m", "eqbench.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        results.append((proc.returncode, proc.stdout))
    assert results[0] == results[1]
    assert results[0][1]


# ---------------------------------------------------------------------------
# start-up: a command loads only the modules it runs

def _python(code, *args):
    """Run ``code`` in a fresh interpreter on this checkout's sources; its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("EQBENCH_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_load_only_the_modules_they_run(tmp_path):
    # each command in turn, in one process: what has been loaded after it;
    # only a cache file name needs hashlib, and none needs dataclasses
    algebras = tmp_path / "c0.jsonl"
    algebras.write_text("".join(record_line(alg) + "\n"
                                for alg in enumerate_models(builtin_system("C0"), 2)))
    out = _python(
        "import contextlib, io, json, sys\n"
        "import eqbench.cli\n"
        "def loaded(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert eqbench.cli.main(argv) == 0\n"
        "    return sorted(m for m in ('dataclasses', 'eqbench.consequence', 'eqbench.power',\n"
        "                              'eqbench.structure', 'hashlib') if m in sys.modules)\n"
        "print(json.dumps([loaded(['enumerate', '--system', 'C0', '--size', '2', '--count']),\n"
        "                  loaded(['classify', '--algebra', sys.argv[1]]),\n"
        "                  loaded(['rank', 'C0', 'C1', '--model-size', '2']),\n"
        "                  loaded(['compare', 'C0', 'C1']),\n"
        "                  loaded(['enumerate', '--system', 'C0', '--size', '2', '--count',\n"
        "                          '--cache-dir', sys.argv[2]])]))\n",
        str(algebras), str(tmp_path / "cache"))
    engine = ["eqbench.consequence", "eqbench.power", "eqbench.structure"]
    assert json.loads(out) == [[], ["eqbench.structure"], engine, engine, engine + ["hashlib"]]


#: every name the package exports, by the module that defines it
EXPORTS = {
    "axioms": ["AxiomSystem", "BUILTIN_NAMES", "builtin_system", "empty_system", "load_axioms",
               "make_system", "merge"],
    "consequence": ["CandidateSpace", "DerivationStep", "DeriveBudgets", "HoldsUpTo", "Proved",
                    "Refuted", "Unknown", "Verdict", "consequence_set", "derive",
                    "semantic_consequence", "validate_derivation"],
    "models": ["EnumOptions", "FiniteAlgebra", "canonical_form", "count_models",
               "enumerate_models", "eval_term", "from_record", "make_algebra", "satisfies",
               "satisfies_all", "to_record"],
    "power": ["PowerReport", "RankReport", "compare", "rank_all"],
    "structure": ["StructureReport", "classify_structure", "identity_elements",
                  "is_abelian_group", "is_associative", "is_commutative", "is_group",
                  "is_latin_square", "ops_coincide"],
    "terms": ["App", "Equation", "Op", "ParseError", "Term", "Var", "format_equation",
              "format_term", "parse_equation", "parse_term", "substitute", "variables_of"],
}


def test_package_names_resolve_to_what_their_modules_define():
    out = _python(
        "import importlib, json, sys\n"
        "import eqbench\n"
        "exports = json.loads(sys.argv[1])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('eqbench.'))\n"
        "# each submodule first, as a bare `import eqbench` reaches it\n"
        "subs = {m: getattr(eqbench, m) is importlib.import_module('eqbench.' + m)\n"
        "        for m in [*exports, 'cli']}\n"
        "names = {n: getattr(eqbench, n) is getattr(importlib.import_module('eqbench.' + m), n)\n"
        "         for m, ns in exports.items() for n in ns}\n"
        "try:\n"
        "    eqbench.no_such_name\n"
        "    missing = 'no error'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([loaded, sorted(eqbench.__all__), subs, names, missing]))\n",
        json.dumps(EXPORTS))
    loaded, all_, subs, names, missing = json.loads(out)
    assert loaded == []
    assert all_ == sorted(n for ns in EXPORTS.values() for n in ns)
    assert all(subs.values()) and len(subs) == 7
    assert all(names.values()) and len(names) == len(all_)
    assert missing == "module 'eqbench' has no attribute 'no_such_name'"
