import hashlib
import json
import random
import re

import pytest

from modasc import cli, words
from modasc.cli import main

GENERATE_MODASC_3 = "1 1 1\n1 1 2\n1 2 1\n1 2 2\n1 2 3\n"
COUNT_UPTO_6 = "0 1\n1 1\n2 2\n3 5\n4 15\n5 53\n6 217\n"
COUNT_PRIM_UPTO_6 = "0 1\n1 1\n2 1\n3 2\n4 5\n5 16\n6 61\n"
EXPORT_312_BFILE = "1 1\n2 2\n3 5\n4 14\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_modasc(capsys):
    code, out, _ = run(capsys, ["generate", "--class", "modasc", "--n", "3"])
    assert code == 0
    assert out == GENERATE_MODASC_3


@pytest.mark.parametrize("cls", ["modasc", "prim"])
def test_generate_prints_the_sorted_level(capsys, cls):
    # level 9 has more words than one write takes
    assert words.count_level(9, cls == "prim") > cli.WRITE_CHUNK
    for n in range(10):
        code, out, _ = run(capsys, ["generate", "--class", cls, "--n", str(n)])
        assert code == 0
        level = sorted(words._level(n, cls == "prim"))
        assert out == "".join(words.format_word(w) + "\n" for w in level), (cls, n)


def test_generate_prints_two_digit_letters(capsys):
    code, out, _ = run(capsys, ["generate", "--class", "prim", "--n", "10"])
    assert code == 0
    level = sorted(words._level(10, True))
    assert out == "".join(words.format_word(w) + "\n" for w in level)
    assert "1 2 3 4 5 6 7 8 9 10" in out.splitlines()


def test_write_words_matches_format_word(capsys):
    rng = random.Random(22)
    size = cli.WRITE_CHUNK

    def digits(count, n):
        return [bytes(rng.randrange(1, 10) for _ in range(n)) for _ in range(count)]

    def with_letter(out, at, letter):
        out = list(out)
        out[at] = out[at][:-1] + bytes((letter,))
        return out

    one_digit = digits(2 * size + 7, 5)
    cases = [
        (one_digit, 5),  # no letter >= 10 in any chunk
        (with_letter(one_digit, size, 10), 5),  # first word of a chunk
        (with_letter(one_digit, size - 1, 255), 5),  # last word of a chunk
        ([bytes(rng.randrange(1, 256) for _ in range(7)) for _ in range(300)], 7),
        ([bytes((a,)) for a in range(1, 256)], 1),
        (digits(size + 1, 1), 1),
        ([b""], 0),
        (sorted(map(bytes, words.iter_cayley(3))), 3),
        ([bytes((1, 12, 3)), bytes((9, 9, 9))], 3),
    ]
    for out, n in cases:
        expected = "".join(words.format_word(w) + "\n" for w in out)
        head = out[:2]
        cli._write_words(out, n)
        assert capsys.readouterr().out == expected, (n, head)
        assert out == [], (n, head)  # the written words are released


@pytest.mark.parametrize(
    "argv",
    [
        ["--class", "modasc"],
        ["--class", "prim"],
        ["--class", "cayley"],
        ["--avoid", "2321"],
    ],
)
def test_generate_empty_word(capsys, argv):
    assert run(capsys, ["generate", "--n", "0", *argv]) == (0, "\n", "")


def test_generate_rejects_letters_beyond_a_byte(capsys):
    # nothing is built: the bound is checked before any level
    for extra in ([], ["--avoid", "2321"]):
        code, out, err = run(capsys, ["--cap", "300", "generate", "--n", "256", *extra])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_generate_with_avoid(capsys):
    code, out, _ = run(
        capsys,
        ["generate", "--class", "prim", "--n", "4", "--avoid", "122,212"],
    )
    assert code == 0
    assert out == "1 2 1 3\n1 2 3 1\n1 2 3 4\n1 3 1 2\n"


def test_generate_cayley(capsys):
    code, out, _ = run(capsys, ["generate", "--class", "cayley", "--n", "3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert lines == sorted(lines)
    assert lines[0] == "1 1 1"


def test_generate_cayley_rejects_avoid(capsys):
    code, _, err = run(
        capsys, ["generate", "--class", "cayley", "--n", "3", "--avoid", "11"]
    )
    assert code == 2
    assert "error:" in err


def test_count_upto(capsys):
    code, out, _ = run(capsys, ["count", "--class", "modasc", "--upto", "6"])
    assert code == 0
    assert out == COUNT_UPTO_6


def test_count_upto_prim(capsys):
    code, out, _ = run(capsys, ["count", "--class", "prim", "--upto", "6"])
    assert code == 0
    assert out == COUNT_PRIM_UPTO_6


def test_count_single(capsys):
    code, out, _ = run(capsys, ["count", "--class", "prim", "--n", "6"])
    assert code == 0
    assert out == "61\n"


def test_count_with_avoid(capsys):
    code, out, _ = run(capsys, ["count", "--n", "5", "--avoid", "2321"])
    assert code == 0
    assert out == "52\n"


def test_count_upto_with_avoid(capsys):
    code, out, _ = run(capsys, ["count", "--upto", "5", "--avoid", "2321"])
    assert code == 0
    assert out == "0 1\n1 1\n2 2\n3 5\n4 15\n5 52\n"


def test_count_upto_prim_with_avoid(capsys):
    argv = ["count", "--class", "prim", "--upto", "6", "--avoid", "2321"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == "0 1\n1 1\n2 1\n3 2\n4 5\n5 15\n6 52\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--upto", "3", "--avoid", "13"], "pattern '13' is not a Cayley"),
        (["count", "--class", "cayley", "--upto", "3", "--avoid", "12"],
         "--avoid needs --class modasc or prim"),
        (["count", "--n", "5", "--avoid", ""], "a pattern must be nonempty"),
        (["count", "--upto", "5", "--avoid", ""], "a pattern must be nonempty"),
        (["count", "--class", "cayley", "--n", "3", "--avoid", ""],
         "--avoid needs --class modasc or prim"),
        (["generate", "--n", "3", "--avoid", ""], "a pattern must be nonempty"),
        (["--cap", "300", "count", "--n", "256", "--avoid", "11"], "length 256 exceeds 255"),
        (["--cap", "300", "count", "--class", "prim", "--upto", "256", "--avoid", "11"],
         "length 256 exceeds 255"),
    ],
)
def test_count_rejects_bad_avoid(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3", "--avoid", "1a2"],
        ["generate", "--n", "3", "--avoid", "12,1a2"],
        ["export", "--label", "1a2-modasc", "--n", "3"],
    ],
)
def test_letters_that_are_not_integers_are_named(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: word letters must be positive integers: '1a2'\n"


def test_count_cayley(capsys):
    code, out, _ = run(capsys, ["count", "--class", "cayley", "--n", "4"])
    assert code == 0
    assert out == "75\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--class", "cayley", "--upto", "9"],
        ["count", "--class", "cayley", "--n", "9"],
        ["generate", "--class", "cayley", "--n", "9"],
        ["--cap", "12", "count", "--class", "cayley", "--upto", "9"],
        ["count", "--class", "cayley", "--n", "11"],
        ["generate", "--class", "cayley", "--n", "11"],
    ],
)
def test_cayley_stops_at_its_fixed_limit_before_printing(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"fixed limit {words.ENDOFUNCTION_CAP}" in err
    assert "--cap" not in err


def test_count_needs_exactly_one_length(capsys):
    for argv in (["count"], ["count", "--n", "3", "--upto", "4"]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "exactly one" in err


def test_cap_blocks_large_runs(capsys):
    code, _, err = run(capsys, ["count", "--n", "11"])
    assert code == 2
    assert "exceeds the enumeration cap 10" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "12"],
        ["table", "--n", "15"],
        ["experiment", "--check", "modasc211-vs-1223", "--order", "20"],
    ],
)
def test_cap_blocks_verify_and_table(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "exceeds the enumeration cap 10" in err


def test_cap_flag_blocks_verify_and_table(capsys):
    for argv in (["--cap", "3", "verify", "--n", "4"], ["--cap", "3", "table", "--n", "4"]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "cap 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "-1"],
        ["count", "--class", "prim", "--upto", "-1"],
        ["count", "--class", "cayley", "--n", "-1"],
        ["generate", "--n", "-1"],
        ["export", "--label", "312-modasc", "--n", "-1"],
        ["export", "--label", "211-modasc", "--n", "-1", "--source", "oracle"],
        ["experiment", "--check", "modasc122-vs-211", "--order", "-1"],
        ["verify", "--n", "-1"],
        ["table", "--n", "-1"],
    ],
)
def test_negative_length_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "-1 is negative" in err


def test_cap_flag_raises_limit(capsys):
    code, out, _ = run(capsys, ["--cap", "11", "count", "--n", "11"])
    assert code == 0
    assert out == "1422074\n"


def test_cap_flag_lowers_limit_and_the_environment_does_not(capsys, monkeypatch):
    code, _, err = run(capsys, ["--cap", "4", "count", "--n", "5"])
    assert code == 2
    assert "cap 4" in err
    # the cap is set by --cap alone
    monkeypatch.setenv("FP_CAP", "4")
    code, out, _ = run(capsys, ["count", "--n", "5"])
    assert code == 0
    assert out == "53\n"


def test_cap_flag_must_be_positive(capsys):
    code, _, err = run(capsys, ["--cap", "0", "count", "--n", "0"])
    assert code == 2
    assert "--cap must be positive" in err


def test_no_subcommand_touches_the_global_random_state(capsys):
    state = random.getstate()
    for argv in (
        ["generate", "--n", "3"], ["count", "--n", "4", "--avoid", "2321"], ["table", "--n", "4"],
        ["verify", "--suite", "transport", "--n", "4"], ["export", "--label", "312-modasc", "--n", "4"],
        ["experiment", "--check", "modasc211-vs-1223", "--order", "4"],
    ):
        assert run(capsys, argv)[0] == 0, argv
        assert random.getstate() == state, argv


def test_export_bfile(capsys):
    code, out, _ = run(capsys, ["export", "--label", "312-modasc", "--n", "4"])
    assert code == 0
    assert out == EXPORT_312_BFILE


def test_export_json(capsys):
    code, out, _ = run(
        capsys, ["export", "--label", "312-modasc", "--n", "4", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {
        "label": "312-modasc",
        "offset": 1,
        "values": [1, 2, 5, 14],
    }


def test_export_csv(capsys):
    code, out, _ = run(
        capsys, ["export", "--label", "312-modasc", "--n", "4", "--format", "csv"]
    )
    assert code == 0
    assert out == "n,count\n1,1\n2,2\n3,5\n4,14\n"


def test_export_empty_table(capsys):
    code, out, _ = run(
        capsys, ["export", "--label", "312-modasc", "--n", "0", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {"label": "312-modasc", "offset": None, "values": []}
    code, out, _ = run(
        capsys, ["export", "--label", "312-modasc", "--n", "0", "--format", "csv"]
    )
    assert code == 0
    assert out == "n,count\n"


def test_export_to_file(capsys, tmp_path):
    target = tmp_path / "seq.txt"
    code, out, err = run(
        capsys,
        ["export", "--label", "312-modasc", "--n", "4", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert "wrote" in err
    assert target.read_text() == EXPORT_312_BFILE


def test_export_oracle_source(capsys):
    code, out, _ = run(
        capsys,
        ["export", "--label", "211-modasc", "--n", "5", "--source", "oracle"],
    )
    assert code == 0
    assert out == "1 1\n2 2\n3 5\n4 14\n5 43\n"


def test_export_keeps_multi_digit_labels(capsys):
    label = "1 2 3 4 5 6 7 8 9 10-modasc"
    code, out, _ = run(
        capsys,
        ["export", "--label", label, "--n", "3", "--source", "oracle", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"label": label, "offset": 1, "values": [1, 2, 5]}
    code, out, _ = run(capsys, ["export", "--label", "2 3 2 1-modasc", "--n", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["label"] == "2321-modasc"


def test_export_auto_falls_back_to_oracle(capsys):
    code, out, _ = run(capsys, ["export", "--label", "1123-prim", "--n", "3"])
    assert code == 0
    assert out == "1 1\n2 1\n3 2\n"


def test_export_formula_unavailable(capsys):
    code, _, err = run(
        capsys,
        ["export", "--label", "1123-prim", "--n", "3", "--source", "formula"],
    )
    assert code == 2
    assert "no closed form" in err


def test_export_bad_labels(capsys):
    code, _, err = run(capsys, ["export", "--label", "999-modasc", "--n", "3"])
    assert code == 2
    assert "not a Cayley permutation" in err
    code, _, err = run(capsys, ["export", "--label", "312-nonsense", "--n", "3"])
    assert code == 2
    assert "PATTERN-modasc or PATTERN-prim" in err


EXPORT_SHA256 = {
    ("312-modasc", "10", "auto", "bfile"):
        "fb19760be4d0e04e27bec1bc9f6caeb449dc64cdd2d90d27aca7e842bcfdd216",
    ("211-modasc", "8", "oracle", "json"):
        "812fd6573f903cc650e805304d0a99fd299bfe44c396c428e1cd9878a08b5367",
}


@pytest.mark.parametrize("label, n, source, fmt", sorted(EXPORT_SHA256))
def test_export_output_is_pinned(capsys, label, n, source, fmt):
    argv = ["export", "--label", label, "--n", n, "--source", source, "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_SHA256[(label, n, source, fmt)]


def test_table_small(capsys):
    code, out, _ = run(capsys, ["table", "--n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("table: ")
    assert lines[-1].endswith("0 failed")
    kinds = {line.split("]")[0] + "]" for line in lines[:-1]}
    assert kinds == {"[families]", "[golden]", "[quoted]"}
    assert "[families] 11 modasc ok 1,1,1,1" in lines
    assert not any(" FAIL " in line for line in lines)


TABLE_SHA256 = "1fac25b588fc1273a662b100305babe6c67becfd932d709e02d9e5ec11ba758d"
VERIFY_SHA256 = "175ca8a0df9fef8c6b88b487c82b37914526b14c68f581fbbc984b7c5442d43a"


def test_table_default_output(capsys):
    code, out, _ = run(capsys, ["table"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256
    assert out.splitlines()[-1] == "table: 52 comparisons, 0 failed"


def test_table_reports_each_failure(capsys, broken_tables):
    code, out, _ = run(capsys, ["table", "--n", "4"])
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if " FAIL " in line] == [
        "[families] 11 modasc FAIL oracle 1,1,1,1 formula 1,2,4,8",
        "[golden] 111 modasc FAIL oracle 1,2,4,10,29,97,367,1550 "
        "pinned 1,2,4,10,29,97,367,1551",
        "[quoted] 221 modasc FAIL formula differs at n=8; "
        "quoted 1,1,2,5,14,44,155,607,2618",
    ]
    assert lines[-1] == "table: 52 comparisons, 3 failed"


def test_verify_suite(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "bijections", "--n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("ok   ") for line in lines[:-1])
    assert lines[-1].startswith("verify bijections: 8/8 checks passed")
    assert "elapsed" in err


VERIFY_IDENTITIES_4 = """\
ok   series.F           the two forms of F agree
ok   series.prim122     primitive 122 counts: series, formula and oracle agree
ok   series.modasc122   122 counts: series, power sum and oracle agree
ok   series.G           G shifts the primitive 122 counts by one
ok   transform.eq       substitution t -> t/(1-t) equals the binomial transform
ok   series.D           D matches generated dudu-avoiding paths and the coefficient sum
ok   series.modasc312   312 counts: series, formula, oracle and quoted values agree
ok   series.motzkin     the Motzkin fixed point matches the recurrence
ok   stirling.identity  the Stirling-number identity holds with brute-forced coefficients
ok   ascents.2321       ascent histograms over 2321-avoiders match Stirling rows
ok   insertion.221      221 counts by insertion, formula and oracle agree
ok   printed.sequences  sequences quoted in full match formula and oracle
verify identities: 12/12 checks passed (words<=4, paths<=7, partitions<=7)
"""


def test_verify_default_output(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n", "8"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256
    assert out.splitlines()[-1].startswith("verify all: 28/28 checks passed")


VERIFY_ALL_SHA256 = {
    0: "8a64d5f79430e6b7546fc5b7c0b31997929312bf84f5bda1cca61b076787ef85",
    1: "a125421ee18386d7ac1a03ac72568617bc815b68c9346f0dc1b65e8b9c847e70",
    2: "4e707ec78662e2d66acb37ec2c4a644a115e93241fcb6b5c07622369661f6de4",
    3: "9b204ad2fcbf59c5d866a6c084bdc064f55f1283945fe6417df622c8c7615a6f",
    4: "82672056573df7f59a87e1065f30f15697595b7debe69fbf8b3cbeb50d1b00b5",
    5: "a1f307c83572015bde50eff7077fd331a4d1ecd760161c2de8fb13e042f8c3e9",
    6: "edd44b2bd9cf49b9fd15eb1fcffbe82f0a78cb3e3f1827ae73e011c1f5911ce8",
    7: "dc76353b323703ba2fb1ba4db0f0c2d9744691ef2969adb92bf6471c38233df3",
}


@pytest.mark.parametrize("n", sorted(VERIFY_ALL_SHA256))
def test_verify_output_is_pinned_at_each_depth(capsys, n):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n", str(n)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[n]


def test_verify_times_each_check_on_stderr(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "identities", "--n", "4"])
    assert code == 0
    assert out == VERIFY_IDENTITIES_4
    timings = [line.split() for line in err.splitlines() if line.startswith("time ")]
    assert [t[1] for t in timings] == [line.split()[1] for line in out.splitlines()[:-1]]
    assert all(re.fullmatch(r"\d+\.\d{3}s", t[2]) and len(t) == 3 for t in timings)


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "wishful"])


def test_experiment_122_vs_211(capsys):
    code, out, _ = run(
        capsys, ["experiment", "--check", "modasc122-vs-211", "--order", "6"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "0 1 1 1 1"
    assert "fails" in lines[-1] and "holds" in lines[-1]


def test_experiment_211_vs_1223(capsys):
    code, out, err = run(
        capsys, ["experiment", "--check", "modasc211-vs-1223", "--order", "10"]
    )
    assert code == 0
    assert out.splitlines()[-1].endswith("agree on n<=10")
    assert err == ""


EXPERIMENT_SHA256 = {
    ("modasc122-vs-211", "0"): "64ca9e96d7cd47ef6eb899ceb5d1c8acf7562ce351638972d821867fe3d4fa83",
    ("modasc122-vs-211", "1"): "ff0c1d72b94b754417dd6cfc31c439dd5c3753cbaa0ac8eb9039e240fb8772be",
    ("modasc122-vs-211", "9"): "c2877b552c7ecc6ab01b72c0268c8f0a4637d46cb202896524024739136ea5bf",
    ("modasc211-vs-1223", "0"): "190a77bbefb971327bffc0bb28955fac216e1efd975896ac0b6b34f9291f06c8",
    ("modasc211-vs-1223", "1"): "b59d0f383dfcde89c8705fdeaaa1dbcbb3aa3142d9ba79c7f29ae89529d71263",
    ("modasc211-vs-1223", "9"): "475a5b290033e83a190c69c5ca6006d45641c3a16fc05cff2d3a79e4f591f037",
}


@pytest.mark.parametrize("check, order", sorted(EXPERIMENT_SHA256))
def test_experiment_output_is_pinned(capsys, check, order):
    code, out, err = run(capsys, ["experiment", "--check", check, "--order", order])
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == EXPERIMENT_SHA256[(check, order)]
