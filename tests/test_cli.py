import json

import pytest

from cremona_kit import cli
from cremona_kit.fields import ExtensionField, PrimeField, QQ
from cremona_kit.linsys import LinearSystemClass
from cremona_kit.orbits import orbit_from_json
from cremona_kit.catalog import link_from_json
from cremona_kit.rewrite import word_from_json, word_to_json


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestCensusOutput:
    def test_tsv(self, capsys):
        code, out, _ = run(["orbit", "census", "--field", "F2", "--size", "2"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[0] == ["2", "2", "All", "7", "1"]
        assert rows[1] == ["2", "2", "GeneralPositionOnly", "7", "1"]


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

    @pytest.mark.parametrize(
        "field,poly", [("F2", "1/2*x+1"), ("F4", "x^2+3/2"), ("Q", "1/0*x+1")]
    )
    def test_vanishing_denominator_exit_1(self, field, poly, capsys):
        code, out, err = run(["field", "factor", "--field", field, "--poly", poly], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "BadInput"

    def test_reducible_poly_error(self, capsys):
        code, _, err = run(
            ["orbit", "make", "--field", "F2", "--poly", "t^2+1", "--template", "conic"],
            capsys,
        )
        assert code == 1
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == "NotIrreducible"


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
