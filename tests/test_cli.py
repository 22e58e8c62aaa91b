import copy
import json
import random
import signal
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st
import pytest

from cremona_kit import cli
from cremona_kit.fields import ExtensionField, PrimeField, QQ
from cremona_kit.linsys import LinearSystemClass
from cremona_kit.orbits import explicit_orbit, orbit_from_json, orbit_to_json
from cremona_kit.catalog import link_from_json
from cremona_kit.rewrite import (
    make_center_pool,
    make_link_template,
    random_relator,
    word_from_json,
    word_to_json,
)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def relator(field, seed):
    """A seeded relator F0 -> F0 of at most 8 letters over field."""
    templates = [make_link_template(field, p) for p in make_center_pool(field, [1, 2, 3])]
    return random_relator(random.Random(seed), templates, max_len=8)


class TestParseInvocation:
    def test_orbit_census(self):
        args = cli.build_parser().parse_args(["orbit", "census", "--field", "F2", "--size", "4"])
        assert (args.command, args.subcommand) == ("orbit", "census")
        assert args.field == "F2" and args.size == 4
        assert args.func is cli.cmd_orbit_census

    def test_homo_eval(self):
        args = cli.build_parser().parse_args(["homo", "eval", "--in", "w.json"])
        assert (args.command, args.subcommand) == ("homo", "eval")
        assert args.infile == "w.json"
        assert (args.refined, args.field, args.delta) == (False, None, 16)
        assert args.func is cli.cmd_homo_eval

    def usage_exit(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        return exc.value.code, capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        assert self.usage_exit(["bogus"], capsys) == (2, "")

    def test_unknown_flag_exits_2(self, capsys):
        assert self.usage_exit(["audit", "sym4", "--bogus"], capsys) == (2, "")

    def test_missing_required_exits_2(self, capsys):
        assert self.usage_exit(["orbit", "census", "--field", "F2"], capsys) == (2, "")

    def test_help_exits_0(self, capsys):
        code, out = self.usage_exit(["orbit", "--help"], capsys)
        assert code == 0 and "census" in out


class TestParseField:
    def test_q(self):
        assert cli.parse_field("Q") is QQ

    def test_prime(self):
        assert cli.parse_field("F101") == PrimeField(101)

    def test_prime_power(self):
        F4 = cli.parse_field("F4")
        assert isinstance(F4, ExtensionField) and F4.size() == 4

    def test_rejects_non_prime_power(self):
        from cremona_kit.errors import BadInput

        with pytest.raises(BadInput):
            cli.parse_field("F6")

    @pytest.mark.parametrize("name", ["F\u00b2", "F" + "1" * 5000])
    def test_rejects_malformed_size(self, name):
        from cremona_kit.errors import BadInput

        with pytest.raises(BadInput):
            cli.parse_field(name)

    def test_machine_word_prime(self):
        # 2^61 - 1: trial division up to its square root does not finish
        assert cli.parse_field("F2305843009213693951") == PrimeField(2**61 - 1)

    def test_rejects_semiprime_near_2_62(self):
        from cremona_kit.errors import BadInput

        # (2^31 - 1)(2^31 + 11): both factors prime, no small divisor
        with pytest.raises(BadInput):
            cli.parse_field(f"F{(2**31 - 1) * (2**31 + 11)}")


class TestRoundTrips:
    def test_orbit_make_parses_back(self, capsys):
        code, out, _ = run(
            ["orbit", "make", "--field", "F2", "--poly", "t^4+t+1", "--template", "conic"],
            capsys,
        )
        assert code == 0
        orbit = orbit_from_json(json.loads(out))
        assert orbit.size == 4

    def test_dejonquieres_word_parses_back(self, capsys):
        code, out, _ = run(
            ["dejonquieres", "decompose", "--field", "Q", "--poly", "x^17-2"], capsys
        )
        assert code == 0
        data = json.loads(out)
        w = word_from_json(data["word"])
        assert len(w) == 18
        assert data["audit"]["base_point_total"] == 34

    def test_linsys_push_parses_back(self, capsys):
        code, out, _ = run(
            [
                "linsys", "push",
                "--two-lambda", "2", "--two-nu", "0",
                "--orbit-size", "17", "--two-mult", "0",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        pushed = LinearSystemClass.from_json(data["pushed"])
        assert pushed.two_nu == 34
        link_from_json(data["link"])

    def test_biglink_c5_parses_back(self, capsys):
        code, out, _ = run(
            [
                "biglink", "c5",
                "--field", "F2", "--orbit4", "t^4+t+1", "--rpoly", "t^3+t+1",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        link = link_from_json(data["link"])
        assert link.depth == 3

    def test_word_pipeline(self, tmp_path, capsys):
        code, out, _ = run(
            ["dejonquieres", "decompose", "--field", "Q", "--poly", "x^17-2"], capsys
        )
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(json.loads(out)["word"]))
        code, out, _ = run(["word", "validate", "--in", str(wfile)], capsys)
        assert code == 0 and json.loads(out)["ok"]
        code, out, _ = run(["homo", "eval", "--in", str(wfile)], capsys)
        assert code == 0
        assert json.loads(out)["word"][0]["bits"] == [17]


    def test_word_validate_mixed_fields(self, tmp_path, capsys):
        w2, w3 = relator(PrimeField(2), 1), relator(PrimeField(3), 2)
        wfile = tmp_path / "mixed.json"
        wfile.write_text(json.dumps(word_to_json(w2.concat(w3))))
        code, out, _ = run(["word", "validate", "--in", str(wfile)], capsys)
        assert code == 0
        assert json.loads(out) == {"ok": False, "position": len(w2), "reason": "field"}

    def test_word_reduce_refuses_mixed_fields(self, tmp_path, capsys):
        w2, w3 = relator(PrimeField(2), 1), relator(PrimeField(3), 2)
        wfile = tmp_path / "mixed.json"
        wfile.write_text(json.dumps(word_to_json(w2.concat(w3))))
        code, out, err = run(["word", "reduce", "--in", str(wfile)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["kind"] == "IncompatibleFields"


class TestCensusOutput:
    def test_tsv(self, capsys):
        code, out, _ = run(["orbit", "census", "--field", "F2", "--size", "2"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[0] == ["2", "2", "All", "7", "1"]
        assert rows[1] == ["2", "2", "GeneralPositionOnly", "7", "1"]

    @pytest.mark.parametrize("command", ["census", "classify"])
    def test_oversized_census_refused_at_once(self, command, capsys):
        # 1,441,188 degree-4 points over F7: refused before enumeration
        start = time.perf_counter()
        code, out, err = run(["orbit", command, "--field", "F7", "--size", "4"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "ScaleExceeded"


class TestErrors:
    def test_domain_error_exit_1(self, tmp_path, capsys):
        # a one-letter word with unequal endpoints is not a relator
        from cremona_kit.constructions import DeJonquieresMap, dejonquieres_decompose
        from cremona_kit.fields import poly_from_string
        from cremona_kit.rewrite import GroupoidWord

        w, _ = dejonquieres_decompose(DeJonquieresMap(poly_from_string(QQ, "x^3-2")))
        first = w.letters[0]
        nonrelator = GroupoidWord((first,), first.src, first.tgt)
        wfile = tmp_path / "nonrelator.json"
        wfile.write_text(json.dumps(word_to_json(nonrelator)))
        code, out, err = run(["word", "reduce", "--in", str(wfile)], capsys)
        assert code == 1
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "NotARelator"

    @pytest.mark.parametrize(
        "command,content",
        [
            (["word", "validate"], {"letters": []}),
            (["word", "reduce"], {"endpoints": [{"kind": "F", "n": 0}] * 2}),
            (["word", "reorder"], [1, 2]),
            (["homo", "eval"], "{not json"),
            (["homo", "eval"], None),
        ],
    )
    def test_bad_word_input_exit_1(self, command, content, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        if content is not None:
            wfile.write_text(content if isinstance(content, str) else json.dumps(content))
        code, out, err = run(command + ["--in", str(wfile)], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("k", [65, 128])
    def test_over_cap_extension_refused_at_once(self, k, capsys):
        # refused before find_irreducible searches for a degree-k modulus
        start = time.perf_counter()
        code, out, err = run(["field", "factor", "--field", f"F{2**k}", "--poly", "x+1"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize(
        "field,poly", [("F2", "1/2*x+1"), ("F4", "x^2+3/2"), ("Q", "1/0*x+1")]
    )
    def test_vanishing_denominator_exit_1(self, field, poly, capsys):
        code, out, err = run(["field", "factor", "--field", field, "--poly", poly], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize(
        "command,case",
        [
            (["catalog", "validate"], "word as link"),
            (["catalog", "validate"], "depth string"),
            (["catalog", "validate"], "index string"),
            (["catalog", "validate"], "center list"),
            (["word", "validate"], "letter string"),
            (["word", "validate"], "link number"),
            (["word", "reduce"], "depth string"),
        ],
    )
    def test_malformed_word_and_link_exit_1(self, command, case, tmp_path, capsys):
        # each of these escaped cli.main as KeyError or TypeError
        link = copy.deepcopy(LINK)
        letters = [{"link": link, "exp": 1}]
        if case == "word as link":
            link = RELATOR
        elif case == "depth string":
            link["depth"] = "1"
        elif case == "index string":
            link["source"]["n"] = "0"
        elif case == "center list":
            link["fiber_center"] = [1]
        elif case == "letter string":
            letters = ["conic"]
        elif case == "link number":
            letters = [{"link": 0, "exp": 1}]
        content = link if command[0] == "catalog" else {**RELATOR, "letters": letters}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        code, out, err = run(command + ["--in", str(path)], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "BadInput"

    def test_push_negative_orbit_size_exit_1(self, capsys):
        argv = ["linsys", "push", "--two-lambda", "2", "--two-nu", "2", "--orbit-size", "-1",
                "--two-mult", "0"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert "error" in json.loads(err.splitlines()[-1])

    def test_reducible_poly_error(self, capsys):
        code, _, err = run(
            ["orbit", "make", "--field", "F2", "--poly", "t^2+1", "--template", "conic"],
            capsys,
        )
        assert code == 1
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "NotIrreducible"


F7 = PrimeField(7)
F7_FRAME = orbit_to_json(explicit_orbit(F7, F7, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]))


DELETE = object()


def _container(obj, path):
    """The list or dict that holds the item at path inside obj."""
    for key in path[:-1]:
        obj = obj[key]
    return obj


def _edit(path, value):
    """A copy of F7_FRAME with the item at path replaced (DELETE: removed)."""
    obj = copy.deepcopy(F7_FRAME)
    if value is DELETE:
        del _container(obj, path)[path[-1]]
    else:
        _container(obj, path)[path[-1]] = value
    return obj


MALFORMED_ORBITS = {
    "no field": _edit(["field"], DELETE),
    "no template": _edit(["template"], DELETE),
    "list": [F7_FRAME],
    "2 coordinates": _edit(["points", 0], ["0", "1"]),
    "size string": _edit(["size"], "4"),
    "null coefficient": _edit(["min_poly", "coeffs", 0], None),
    "5 points, size 4": _edit(["points"], F7_FRAME["points"] + [["1", "2", "3"]]),
    "all-zero point": _edit(["points", 0], ["0", "0", "0"]),
    # over F_49 = F_7[t]/(t^2+1) the point [1 : t : 0] has no conjugate in the set
    "not Galois-stable": {
        **_edit(["min_poly", "coeffs"], ["1", "0", "1"]),
        "points": [["0", "0", "1"], ["0", "1", "0"], ["1", "7", "0"], ["1", "1", "1"]],
    },
    # F_7[t]/(t^2) is no field: normalizing [t : 1 : 0] there would never end
    "reducible min_poly": {
        **_edit(["min_poly", "coeffs"], ["0", "0", "1"]),
        "points": [["0", "0", "1"], ["0", "1", "0"], ["7", "1", "0"], ["1", "1", "1"]],
    },
}


def _match_frame(mutant, tmp_path, capsys):
    """orbit match of F7_FRAME against a JSON value: (exit, stdout, stderr)."""
    p, q = tmp_path / "frame.json", tmp_path / "mutant.json"
    p.write_text(json.dumps(F7_FRAME))
    q.write_text(json.dumps(mutant))
    return run(["orbit", "match", "--p", str(p), "--q", str(q)], capsys)


def _paths(obj, prefix=()):
    """Every path to an item inside a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 60)
    | st.sampled_from(["", "0", "1", "6", "7", "-1", "1/2", "1/0", "x", "Fp", "Fq", "Q"])
    | st.sampled_from(["conic", "split", "line", "explicit", "inf", "I", "II", "IV", "F", "CB5"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["p", "kind", "coeffs", "field", "n", "link", "exp", "iso", "type"]),
        inner,
        max_size=2,
    ),
    max_leaves=6,
)


@st.composite
def mutated(draw, base):
    """base with one to three items replaced, deleted or inserted."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _container(obj, path)
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON_VALUES)
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.insert(path[-1], draw(JSON_VALUES))
    return obj


class TestOrbitJsonBoundary:
    @pytest.mark.parametrize("name", list(MALFORMED_ORBITS))
    def test_malformed_exit_1(self, name, tmp_path, capsys):
        code, out, err = _match_frame(MALFORMED_ORBITS[name], tmp_path, capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "BadInput"

    def test_frame_matches_itself(self, tmp_path, capsys):
        code, out, _ = _match_frame(F7_FRAME, tmp_path, capsys)
        assert code == 0
        assert json.loads(out) == {"match": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(mutant=mutated(F7_FRAME))
    def test_mutations_exit_0_or_1(self, mutant, tmp_path, capsys):
        # any exception escaping cli.main fails the test: no traceback
        code, out, err = _match_frame(mutant, tmp_path, capsys)
        assert code in (0, 1)
        if code == 1:
            assert out == "" and "error" in json.loads(err.splitlines()[-1])


def _dejonquieres_json():
    from cremona_kit.constructions import DeJonquieresMap, dejonquieres_decompose
    from cremona_kit.fields import poly_from_string

    w, _ = dejonquieres_decompose(DeJonquieresMap(poly_from_string(QQ, "x^3-2")))
    return word_to_json(w)


RELATOR = word_to_json(relator(PrimeField(2), 1))
DEJONQUIERES = _dejonquieres_json()
LINK = RELATOR["letters"][0]["link"]
INPUT_FILES = {
    "relator": json.dumps(RELATOR),
    "dejonquieres": json.dumps(DEJONQUIERES),
    "link": json.dumps(LINK),
    "orbit": json.dumps(F7_FRAME),
    "not json": "{",
    "empty": "",
    "missing": None,
}
# values small enough that every accepted input finishes in well under a second
FIELD_ARGS = ["F2", "F3", "F4", "F5", "F7", "F9", "F101", "Q", "F1", "F6", "F", "Fx", "",
              "F2305843009213693951", "F\u0663", "F-7", "F4.0"]
CENSUS_FIELD_ARGS = ["F2", "F3", "F4", "F5", "Q", "F1", "F6", "Fx", ""]
POLY_ARGS = ["x^2+x+1", "t^4+t+1", "t^3+t+1", "x^3-2", "x^5-2", "x^17-2", "t^2+1", "1/2*x+1",
             "x^", "", "0", "1", "x", "x^2", "2*x^2+3", "(x+1)", "x^-1", "x^2+y", "x^9+x^4+x^2+x"]
INT_ARGS = ["-1", "0", "1", "2", "3", "5", "x", ""]
FILE = "file"
FLAG = "flag"
COMMANDS = {
    ("orbit", "make"): [("--field", FIELD_ARGS), ("--poly", POLY_ARGS),
                        ("--template", ["conic", "split", "line", "cubic"]),
                        ("--poly2", POLY_ARGS), ("--allow-unverified", FLAG)],
    ("orbit", "census"): [("--field", CENSUS_FIELD_ARGS), ("--size", ["-1", "0", "1", "2", "x"])],
    ("orbit", "classify"): [("--field", CENSUS_FIELD_ARGS), ("--size", ["-1", "0", "1", "2"]),
                            ("--filter", ["all", "gp", "x"])],
    ("orbit", "match"): [("--p", FILE), ("--q", FILE)],
    ("field", "factor"): [("--field", FIELD_ARGS), ("--poly", POLY_ARGS)],
    ("field", "irreducible"): [("--field", FIELD_ARGS), ("--poly", POLY_ARGS)],
    ("linsys", "push"): [("--two-lambda", INT_ARGS), ("--two-nu", INT_ARGS),
                         ("--orbit-size", INT_ARGS), ("--two-mult", INT_ARGS)],
    ("word", "validate"): [("--in", FILE)],
    ("word", "reduce"): [("--in", FILE)],
    ("word", "reorder"): [("--in", FILE), ("--delta", INT_ARGS)],
    ("homo", "eval"): [("--in", FILE), ("--refined", FLAG), ("--field", FIELD_ARGS),
                       ("--delta", INT_ARGS)],
    ("dejonquieres", "decompose"): [("--field", FIELD_ARGS), ("--poly", POLY_ARGS)],
    ("biglink", "c5"): [("--field", FIELD_ARGS), ("--orbit4", POLY_ARGS), ("--rpoly", POLY_ARGS)],
    ("biglink", "c6"): [("--field", FIELD_ARGS), ("--pair", POLY_ARGS), ("--pair2", POLY_ARGS),
                        ("--rpoly", POLY_ARGS)],
    ("catalog", "validate"): [("--in", FILE)],
    ("report", "refined"): [("--field", FIELD_ARGS), ("--bound", INT_ARGS)],
    ("audit", "sym4"): [],
}
CONTRACT_SECONDS = 10


class Overtime(Exception):
    pass


def contract(argv, capsys):
    """Run cli.main(argv) under a time bound and check the CLI contract:
    exit 0, 1 or 2, error JSON on stderr and nothing on stdout for exit 1,
    and no exception escaping.  Returns the exit code."""

    def overtime(signum, frame):
        raise Overtime(f"{argv} ran past {CONTRACT_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, CONTRACT_SECONDS)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: usage errors exit 2
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert out.out == "" and "error" in json.loads(out.err.splitlines()[-1]), argv
    return code


def _write_inputs(tmp_path, files):
    """Write {name: content} under tmp_path (None: leave it missing)."""
    paths = {}
    for i, (name, content) in enumerate(files.items()):
        path = tmp_path / f"input{i}.json"
        if content is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(content)
        paths[name] = str(path)
    return paths


@st.composite
def argvs(draw):
    """An argv for one subcommand: each option present or not, values drawn
    from valid and malformed examples, files from INPUT_FILES by name, and
    now and then a stray token."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for flag, values in COMMANDS[command]:
        if not draw(st.integers(0, 5)):
            continue
        if values is FLAG:
            argv.append(flag)
        elif values is FILE:
            argv += [flag, draw(st.sampled_from(sorted(INPUT_FILES)))]
        else:
            argv += [flag, draw(st.sampled_from(values))]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--x", "x", "-", "--"])))
    return argv


class TestCliContract:
    """Exit codes {0, 1, 2}, error JSON on exit 1, no traceback, bounded time,
    over argv and over mutated word and link JSON."""

    @settings(
        max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(argv=argvs())
    @example(argv=["biglink", "c6", "--field", "F2305843009213693951", "--pair", "t^2+1",
                   "--rpoly", "x^2+x+1"])
    def test_argv(self, argv, tmp_path, capsys):
        paths = _write_inputs(tmp_path, INPUT_FILES)
        contract([paths.get(a, a) for a in argv], capsys)

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        mutant=st.one_of(mutated(RELATOR), mutated(DEJONQUIERES)),
        command=st.sampled_from(
            [["word", "validate"], ["word", "reduce"], ["word", "reorder"], ["homo", "eval"],
             ["homo", "eval", "--refined"]]
        ),
    )
    def test_word_json(self, mutant, command, tmp_path, capsys):
        paths = _write_inputs(tmp_path, {"w": json.dumps(mutant)})
        contract(command + ["--in", paths["w"]], capsys)

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(mutant=mutated(LINK))
    def test_link_json(self, mutant, tmp_path, capsys):
        paths = _write_inputs(
            tmp_path,
            {"l": json.dumps(mutant), "w": json.dumps({**RELATOR, "letters": [{"link": mutant, "exp": 1}]})},
        )
        contract(["catalog", "validate", "--in", paths["l"]], capsys)
        contract(["word", "validate", "--in", paths["w"]], capsys)


P61 = 2**61 - 1


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "refined", "--field", f"F{P61}", "--bound", "17"],
        ["field", "factor", "--field", f"F{P61 ** 2}", "--poly", "x^2+1"],
        ["biglink", "c6", "--field", f"F{P61}", "--pair", "t^2+1", "--rpoly", "x^2+x+1"],
    ],
)
def test_machine_word_prime(argv, capsys):
    # the README accepts every machine-word prime: answer or refuse at once,
    # without listing the field's elements
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1)
    assert json.loads(out) if code == 0 else "error" in json.loads(err.splitlines()[-1])


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["orbit", "census", "--field", "F2", "--size", "4"],
            ["audit", "sym4"],
            ["field", "factor", "--field", "F2", "--poly", "x^9+x^4+x^2+x"],
            ["biglink", "c6", "--field", "F2", "--pair", "x^2+x+1", "--rpoly", "t^3+t+1"],
        ],
    )
    def test_byte_identical(self, argv, capsys):
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2
