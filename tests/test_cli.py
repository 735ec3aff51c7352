import json

import pytest

from modasc.cli import main

GENERATE_MODASC_3 = "1 1 1\n1 1 2\n1 2 1\n1 2 2\n1 2 3\n"
COUNT_UPTO_6 = "0 1\n1 1\n2 2\n3 5\n4 15\n5 53\n6 217\n"
EXPORT_312_BFILE = "1 1\n2 2\n3 5\n4 14\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_modasc(capsys):
    code, out, _ = run(capsys, ["generate", "--class", "modasc", "--n", "3"])
    assert code == 0
    assert out == GENERATE_MODASC_3


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


def test_count_single(capsys):
    code, out, _ = run(capsys, ["count", "--class", "prim", "--n", "6"])
    assert code == 0
    assert out == "61\n"


def test_count_with_avoid(capsys):
    code, out, _ = run(capsys, ["count", "--n", "5", "--avoid", "2321"])
    assert code == 0
    assert out == "52\n"


def test_count_cayley(capsys):
    code, out, _ = run(capsys, ["count", "--class", "cayley", "--n", "4"])
    assert code == 0
    assert out == "75\n"


def test_count_needs_exactly_one_length(capsys):
    for argv in (["count"], ["count", "--n", "3", "--upto", "4"]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "exactly one" in err


def test_cap_blocks_large_runs(capsys):
    code, _, err = run(capsys, ["count", "--n", "11"])
    assert code == 2
    assert "exceeds the enumeration cap 10" in err


@pytest.mark.parametrize("argv", [["verify", "--n", "12"], ["table", "--n", "15"]])
def test_cap_blocks_verify_and_table(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "exceeds the enumeration cap 10" in err


def test_cap_env_blocks_verify_and_table(capsys, monkeypatch):
    monkeypatch.setenv("FP_CAP", "3")
    for argv in (["verify", "--n", "4"], ["table", "--n", "4"]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "cap 3" in err


def test_cap_flag_raises_limit(capsys):
    code, out, _ = run(capsys, ["--cap", "11", "count", "--n", "11"])
    assert code == 0
    assert out == "1422074\n"


def test_fp_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("FP_CAP", "4")
    code, _, err = run(capsys, ["count", "--n", "5"])
    assert code == 2
    assert "cap 4" in err
    # an explicit --cap wins over the environment
    code, out, _ = run(capsys, ["--cap", "10", "count", "--n", "5"])
    assert code == 0
    assert out == "53\n"


def test_fp_cap_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("FP_CAP", "many")
    code, _, err = run(capsys, ["count", "--n", "2"])
    assert code == 2
    assert "not an integer" in err
    monkeypatch.setenv("FP_CAP", "0")
    code, _, err = run(capsys, ["count", "--n", "2"])
    assert code == 2
    assert "positive" in err


def test_jobs_validation(capsys):
    code, _, err = run(capsys, ["--jobs", "0", "count", "--n", "2"])
    assert code == 2
    assert "--jobs" in err
    code, out, _ = run(capsys, ["--jobs", "4", "count", "--n", "2"])
    assert code == 0
    assert out == "2\n"


def test_seedless(capsys):
    code, out, _ = run(capsys, ["--seedless", "count", "--n", "2"])
    assert code == 0
    assert out == "2\n"


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


def test_verify_suite(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "bijections", "--n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("ok   ") for line in lines[:-1])
    assert lines[-1].startswith("verify bijections: 8/8 checks passed")
    assert "elapsed" in err


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
        capsys, ["experiment", "--check", "modasc211-vs-1223", "--order", "20"]
    )
    assert code == 0
    assert out.splitlines()[-1].endswith("agree on n<=10")
    assert "clamped" in err
