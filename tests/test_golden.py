"""Golden CLI corpus: exit code and stdout SHA-256 of in-process invocations.

`golden/cli.json` holds the input files the invocations read (as JSON
objects, written to a temporary directory; `{name}` in an argument is
replaced by the path of input `name`) and, per invocation, the recorded exit
code and the SHA-256 of its stdout.  A change that alters any of these bytes
on purpose updates the entry and says which bytes and why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cremona_kit import cli

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, obj in CORPUS["inputs"].items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        out[name] = str(path)
    return out


@pytest.mark.parametrize(
    "case", CORPUS["cases"], ids=[" ".join(c["argv"]) for c in CORPUS["cases"]]
)
def test_golden(case, paths, capsys):
    argv = [a.format(**paths) for a in case["argv"]]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (case["exit"], case["stdout_sha256"])
