"""Write the analysis golden, ``analysis_digests.jsonl``, to stdout.

Each line holds the argv of one eqbench command, its exit code and the
sha256 digest of its stdout.  The commands are the size-3 enumerations
whose streams feed ``check`` and ``classify`` (C0 raw, C0 up to
isomorphism, and C0 merged with Mx_neutral), then size-3 streams whose
search paths run through forced cells (the first 25,000 models of C1, C2
and C3, which exit 3 past that cap, and C0+Mx_neutral and G1 up to
isomorphism), then ``check --system C0``,
``C1`` and ``C3`` and ``classify``, each in text and records form, over the
19,683 C0 records.  C1 and C3 fail on most of them, so their lines pin the
failing equation and witness of every record.  Last come enumerations
through the cache, each run twice, cold and then warm, in one fresh cache
directory: C0 records, C0+Mx_neutral text (its records have a constant),
and the C0 count up to isomorphism.  Last of all come ``classify`` in text
and records form over a mixed file: the first 25,000 C1 models (whose
tables differ), the C0+Mx_neutral models (with a constant), G1 up to
isomorphism (the product alone) and the C0 models of size 2, one stream
after another.  The argument ``{records}`` stands for a file holding the C0
records, ``{mixed}`` for the mixed file, and ``{cache}`` for the cache
directory of that command.  Regenerate only when a change to these outputs
is intended:

    PYTHONPATH=src python tests/golden/make_analysis_digests.py \\
        > tests/golden/analysis_digests.jsonl
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from eqbench import cli

RECORDS = "{records}"
MIXED = "{mixed}"
CACHE = "{cache}"

ENUMERATIONS = (
    ["enumerate", "--system", "C0", "--size", "3", "--format", "records"],
    ["enumerate", "--system", "C0", "--size", "3", "--up-to-iso", "--format", "records"],
    ["enumerate", "--system", "C0", "--system", "Mx_neutral", "--size", "3",
     "--format", "records"],
) + tuple(
    ["enumerate", "--system", name, "--size", "3", "--max-results", "25000",
     "--format", "records"] for name in ("C1", "C2", "C3")
) + (
    ["enumerate", "--system", "C0", "--system", "Mx_neutral", "--size", "3",
     "--up-to-iso", "--format", "records"],
    ["enumerate", "--system", "G1", "--size", "3", "--up-to-iso", "--format", "records"],
)

ANALYSES = tuple(
    ["check", "--system", name, "--algebra", RECORDS, "--format", fmt]
    for name in ("C0", "C1", "C3") for fmt in ("text", "records")
) + tuple(
    ["classify", "--algebra", RECORDS, "--format", fmt] for fmt in ("text", "records")
)

CACHED = tuple(argv + ["--cache-dir", CACHE] for argv in (
    ["enumerate", "--system", "C0", "--size", "3", "--format", "records"],
    ["enumerate", "--system", "C0", "--system", "Mx_neutral", "--size", "3", "--format", "text"],
    ["enumerate", "--system", "C0", "--size", "3", "--up-to-iso", "--count"],
))


#: the enumerations whose streams, one after another, make the mixed file
MIXED_PARTS = (ENUMERATIONS[3], ENUMERATIONS[2], ENUMERATIONS[7],
               ["enumerate", "--system", "C0", "--size", "2", "--format", "records"])

MIXED_ANALYSES = tuple(
    ["classify", "--algebra", MIXED, "--format", fmt] for fmt in ("text", "records")
)


def run(argv):
    """(exit code, stdout) of one in-process eqbench command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def row(argv, code, stdout):
    return json.dumps({"argv": argv, "exit": code,
                       "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()},
                      separators=(",", ":"))


def rows(argvs, files, tmp):
    """One golden line per command, with ``{records}`` and ``{mixed}`` read
    as the paths ``files`` maps them to and ``{cache}`` as a directory under
    ``tmp`` of that command's own."""
    caches = {}
    for argv in argvs:
        cache = caches.setdefault(json.dumps(argv), str(Path(tmp) / f"cache{len(caches)}"))
        code, stdout = run([files.get(a, cache if a == CACHE else a) for a in argv])
        yield row(argv, code, stdout)


def c0_records():
    return run(ENUMERATIONS[0])[1]


def mixed_records():
    return "".join(run(argv)[1] for argv in MIXED_PARTS)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = {RECORDS: Path(tmp) / "c0_size3.jsonl", MIXED: Path(tmp) / "mixed.jsonl"}
        files[RECORDS].write_text(c0_records(), encoding="utf-8")
        files[MIXED].write_text(mixed_records(), encoding="utf-8")
        cold_and_warm = tuple(argv for argv in CACHED for _ in range(2))
        argvs = ENUMERATIONS + ANALYSES + cold_and_warm + MIXED_ANALYSES
        for line in rows(argvs, {k: str(v) for k, v in files.items()}, tmp):
            sys.stdout.write(line + "\n")


if __name__ == "__main__":
    main()
