import os
import re
import subprocess
import sys

import pytest

from fmlab import arithx, cli, sets
from fmlab.arithx import mu_step
from fmlab.cli import main
from fmlab.model import parse_model


@pytest.fixture
def plain_model(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("model\nn 5\nend\n")
    return str(p)


@pytest.fixture
def rel_model(tmp_path):
    p = tmp_path / "me.txt"
    p.write_text("model\nn 3\nrel E 2 : (0 1) (1 2)\nrel U 1 : 0 2\nend\n")
    return str(p)


def test_eval_true(plain_model, capsys):
    code = main(["eval", "--model", plain_model,
                 "--formula", "E z. @plus(x,z,y)", "--assign", "x=1,y=3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_false_exit_code(plain_model, capsys):
    code = main(["eval", "--model", plain_model,
                 "--formula", "E z. @plus(x,z,y)", "--assign", "x=3,y=1"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize("body, code, out", [("()", 0, "true"),
                                              ("", 1, "false")])
def test_eval_nullary_relation(tmp_path, capsys, body, code, out):
    p = tmp_path / "z.txt"
    p.write_text(f"model\nn 3\nrel Z 0 : {body}\nend\n")
    assert main(["eval", "--model", str(p), "--formula", "Z()"]) == code
    assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("n, formula, budget", [
    (8, "E x. E y. E z. (x <= y & y <= z)", ["--budget", "3"]),
    (20, "EX X. E x. X(x)", []),
])
def test_exhausted_budget_is_usage_error(tmp_path, capsys, n, formula,
                                         budget):
    p = tmp_path / "m.txt"
    p.write_text(f"model\nn {n}\nend\n")
    assert main(["eval", "--model", str(p), "--formula", formula,
                 *budget]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_budget_defaults_to_evaluator_budget(monkeypatch, plain_model,
                                                  capsys):
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", 3)
    assert main(["eval", "--model", plain_model, "--formula",
                 "E x. E y. E z. (x <= y & y <= z)"]) == 2
    assert "budget of 3" in capsys.readouterr().err


def test_analyze_set(capsys):
    assert main(["analyze-set", "--set", "fact", "--n", "23"]) == 0
    assert capsys.readouterr().out.strip() == "f=8 omega=1"


def test_analyze_set_with_eps(capsys):
    assert main(["analyze-set", "--set", "sq", "--n", "10000",
                 "--eps", "1/10"]) == 0
    out = capsys.readouterr().out
    assert "loose-at-n" in out


@pytest.mark.parametrize("spec, n", [("nat", 100), ("compl:nat", 10)])
def test_set_horizon_is_usage_error(monkeypatch, capsys, spec, n):
    # nat has more than 10 elements below 101; compl:nat is empty, so its
    # scan meets a run of more than 10 non-members
    monkeypatch.setattr(sets, "STEP_HORIZON", 10)
    assert main(["analyze-set", "--set", spec, "--n", str(n),
                 "--eps", "1/3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_empty_scan_stops_at_the_horizon(capsys):
    # compl:nat has no member; the scan gives up after STEP_HORIZON naturals
    assert main(["analyze-set", "--set", "compl:nat", "--n", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: no member in 10000000 consecutive naturals after -1\n")


def test_double_complement_is_the_inner_set(monkeypatch, capsys):
    # compl:compl:list:1,2 is {1, 2}; a scan for its members would meet
    # more than STEP_HORIZON non-members after 2
    monkeypatch.setattr(sets, "STEP_HORIZON", 10)
    args = ["--n", "10", "--eps", "1/3"]
    assert main(["analyze-set", "--set", "list:1,2", *args]) == 0
    want = capsys.readouterr().out
    assert main(["analyze-set", "--set", "compl:compl:list:1,2", *args]) == 0
    assert capsys.readouterr().out == want
    assert sets.parse_set_spec("compl:compl:list:1,2").finite


def test_complement_behind_a_shift_is_finite(monkeypatch, capsys):
    # compl:list:1,2 is {0, 3, 4, ...}, shifted by one {1, 4, 5, ...}, and
    # its complement {0, 2, 3}; a scan would run past 3 to the horizon
    monkeypatch.setattr(sets, "STEP_HORIZON", 10)
    args = ["--n", "10", "--eps", "1/3"]
    assert main(["analyze-set", "--set", "list:0,2,3", *args]) == 0
    want = capsys.readouterr().out
    spec = "compl:shift:+1:compl:list:1,2"
    assert main(["analyze-set", "--set", spec, *args]) == 0
    assert capsys.readouterr().out == want
    assert sets.parse_set_spec(spec).finite


def test_parse_command(capsys):
    assert main(["parse", "--formula", "E x. (P(x) & x < y)"]) == 0
    assert capsys.readouterr().out.strip() == "E x. (P(x) & @lt(x, y))"


def test_parse_error_is_usage_error(capsys):
    assert main(["parse", "--formula", "E x. ("]) == 2
    assert "error:" in capsys.readouterr().err


def test_formula_from_file(tmp_path, plain_model, capsys):
    f = tmp_path / "phi.txt"
    f.write_text("E x. x = x\n")
    assert main(["eval", "--model", plain_model,
                 "--formula", f"@{f}"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_ef_command(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("model\nn 7\nend\n")
    b.write_text("model\nn 9\nend\n")
    assert main(["ef", "--model", str(a), "--model", str(b),
                 "--rank", "3"]) == 0
    assert main(["ef", "--model", str(a), "--model", str(b),
                 "--rank", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["equivalent", "distinguishable"]


def test_calls_in_one_process_share_no_arguments(tmp_path, monkeypatch,
                                                 capsys):
    # the parser is built once a process, and no call sees another's
    # arguments: each `ef` reads its own two files and no others
    paths = []
    for n in (7, 9, 2, 3):
        paths.append(tmp_path / f"m{n}.txt")
        paths[-1].write_text(f"model\nn {n}\nend\n")
    read = []
    real = cli._read_model
    monkeypatch.setattr(cli, "_read_model",
                        lambda path: read.append(path) or real(path))
    assert main(["ef", "--model", str(paths[0]), "--model", str(paths[1]),
                 "--rank", "3"]) == 0
    assert main(["ef", "--model", str(paths[2]), "--model", str(paths[3]),
                 "--rank", "2"]) == 1
    assert read == list(map(str, paths))
    assert main(["mulext", "--n", "64"]) == 0
    assert main(["parse", "--formula", "E x. x = x"]) == 0
    assert cli._build_parser() is cli._build_parser()


def test_ef_needs_two_models(plain_model, capsys):
    assert main(["ef", "--model", plain_model, "--rank", "2"]) == 2


def test_gen_word_round_trip(capsys):
    assert main(["gen", "word", "--word", "aab"]) == 0
    m = parse_model(capsys.readouterr().out)
    assert m.n == 3 and m.rels["P_a"] == frozenset({(0,), (1,)})


def test_gen_powerset(capsys):
    assert main(["gen", "powerset", "--k", "2"]) == 0
    m = parse_model(capsys.readouterr().out)
    assert m.n == 5 and len(m.rels["E"]) == 4


def test_transform_subst(rel_model, capsys):
    assert main(["transform", "subst", "--formula", "E x. U(x)",
                 "--model", rel_model, "--name", "U", "--params", "p",
                 "--body", "E y. E(p, y)"]) == 0
    assert capsys.readouterr().out.strip() == "E x. E y. E(x, y)"


@pytest.mark.parametrize("body, want", [
    ("E x. E s1'. T(p, x, s1')", "E s2'. E s1'. T(x, s2', s1')"),
    ("E x. (R(p, x) & U(s1'))", "E s2'. (R(x, s2') & U(s1'))"),
])
def test_transform_subst_fresh_names_avoid_written_ones(tmp_path, capsys,
                                                        body, want):
    # the renamed binder must not take a name the body already uses
    p = tmp_path / "rstu.txt"
    p.write_text("model\nn 2\nrel R 2 :\nrel S 1 :\nrel U 1 :\n"
                 "rel T 3 :\nend\n")
    assert main(["transform", "subst", "--formula", "S(x)", "--model",
                 str(p), "--name", "S", "--params", "p", "--body", body]) == 0
    assert capsys.readouterr().out.strip() == want


def test_transform_rel_rejects_unsound(rel_model, capsys):
    assert main(["transform", "rel", "--formula", "E z. x + y = z",
                 "--model", rel_model, "--guard", "U(v)", "--var", "v"]) == 2


@pytest.mark.parametrize("kind, formula", [
    ("rel", "# x = y. U(x)"),
    ("rel", "EX X. E x. X(x)"),
    ("mso", "# x = y. E(x, y)"),
    ("mso", "Maj(x: U(x))"),
    ("mso", "EX X. E x. X(x)"),
    ("subst", "E(x, y)"),  # a repeated parameter
])
def test_transform_of_uncovered_construct_is_usage_error(rel_model, capsys,
                                                         kind, formula):
    extra = {"rel": ["--guard", "U(v)"],
             "subst": ["--name", "E", "--params", "p,p", "--body", "U(p)"],
             }.get(kind, [])
    assert main(["transform", kind, "--formula", formula,
                 "--model", rel_model, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and "Traceback" not in err


def test_config_registers_sets_and_quantifiers(tmp_path, rel_model, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# extras\n"
                   "set odds compl:mult:2\n"
                   "quantifier C_odds card:compl:mult:2\n")
    assert main(["--config", str(cfg), "eval", "--model", rel_model,
                 "--formula", "E x. @set:odds(x)"]) == 0
    assert main(["--config", str(cfg), "eval", "--model", rel_model,
                 "--formula", "C_odds(x: U(x))"]) == 1
    cfg.write_text("set broken nosuchspec\n")
    assert main(["--config", str(cfg), "parse", "--formula", "x = x"]) == 2


@pytest.mark.parametrize("spec", ["neutral:ab:anbn", "neutral::anbn",
                                  "parity-z", "neutral:"])
def test_config_refuses_a_bad_language_spec(tmp_path, capsys, spec):
    # with neutral:ab:anbn, QX(x: U(x); y: V(y); z: !U(z) & !V(z)) held
    # where U and V spell a.b.a.b, as if abab were in a^nb^n
    model = tmp_path / "uv.txt"
    model.write_text("model\nn 4\nrel U 1 : 0 2\nrel V 1 : 1 3\nend\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"quantifier QX lang:{spec}\n")
    assert main(["--config", str(cfg), "eval", "--model", str(model),
                 "--formula", "QX(x: U(x); y: V(y); z: !U(z) & !V(z))"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err
    assert "Traceback" not in err


def test_check_command(capsys):
    assert main(["check", "neutral-letter"]) == 0
    out = capsys.readouterr().out
    assert "seed 271828" in out and "PASS" in out and "ALL PASS" in out


def test_check_seed_flag(capsys):
    assert main(["check", "neutral-letter", "--seed", "5"]) == 0
    assert "seed 5" in capsys.readouterr().out


def test_check_unknown_suite(capsys):
    assert main(["check", "nosuch"]) == 2


def test_transform_suites_ignore_the_hash_seed():
    # fresh names and every set walked while rewriting must not depend on
    # string hashing
    for suite in ("substitution", "relativization"):
        outs = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            done = subprocess.run(
                [sys.executable, "-m", "fmlab.cli", "check", suite], env=env,
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outs.add(re.sub(r" *\(\d+ cases, [\d.]+ s\)", "", done.stdout))
        assert len(outs) == 1, outs


def test_mulext_trace(capsys):
    assert main(["mulext", "--n", "64", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "round  triples  gamma(a*)" in out
    assert "full multiplication reached" in out


def test_pipeline(capsys):
    assert main(["pipeline", "--set", "sq", "--n", "100",
                 "--eps", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "k=4" in out and "full multiplication reached" in out


def _rows(out):
    """The table rows of an extension trace: lines led by a number."""
    return [r for r in map(str.split, out.splitlines()) if r and r[0].isdigit()]


def test_pipeline_extends_once(monkeypatch, capsys):
    calls = []

    def counted(pm):
        calls.append(pm)
        return mu_step(pm)

    monkeypatch.setattr(arithx, "mu_step", counted)
    assert main(["pipeline", "--set", "sq", "--n", "100",
                 "--eps", "1/3"]) == 0
    assert len(calls) <= arithx.default_rounds(4)
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == len(calls) + 1
    assert rows[-1][1] == "672"


def test_trace_reports_fixed_point(capsys):
    assert main(["mulext", "--n", "64"]) == 0
    out = capsys.readouterr().out
    assert "fixed point at round 3" in out.splitlines()
    rows = _rows(out)
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert rows[-1][1] == rows[-2][1] == "400"


@pytest.mark.parametrize("argv", [
    ["parse", "--formula", "!" * 5000 + "x=x"],
    ["analyze-set", "--set", "compl:" * 3000 + "sq", "--n", "10"],
])
def test_deep_input_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["n", "rel U", "rel"])
def test_model_line_with_too_few_fields_is_usage_error(tmp_path, capsys,
                                                       line):
    p = tmp_path / "bad.txt"
    p.write_text(f"model\nn 3\n{line}\nend\n")
    assert main(["eval", "--model", str(p), "--formula", "x = x",
                 "--assign", "x=0"]) == 2
    err = capsys.readouterr().err
    assert repr(line) in err and "Traceback" not in err


BIG = "99999999999999999999"
H = str(sets.VALUE_HORIZON)


@pytest.mark.parametrize("spec, shown", [
    ("floorpow:3", "floorpow:3"), ("shift:+2", "shift:+2"),
    ("mult:abc", "mult:abc"), ("poly:1,,2", "poly:1,,2"),
    ("list:1,a", "list:1,a"), ("shift:+x:sq", "shift:+x:sq"),
    ("compl:shift:+2:mult:x", "mult:x"),
    ("shift:+-1:sq", "shift:+-1:sq"),
    ("floorpow:129/128", "floorpow:129/128"),
    # one rule for generator and scanned sets: a modulus past the value
    # horizon, or shifts that carry a set's origin past it, are refused
    (f"compl:mult:{BIG}", f"mult:{BIG}"),
    (f"compl:mult:{2 ** 63}", f"mult:{2 ** 63}"),
    (f"mult:{BIG}", f"mult:{BIG}"),
    (f"shift:+{BIG}:primes", f"shift:+{BIG}:primes"),
    (f"shift:+{2 ** 63 - 1}:primes", f"shift:+{2 ** 63 - 1}:primes"),
    (f"shift:+{BIG}:sq", f"shift:+{BIG}:sq"),
    (f"shift:+{H}:shift:+1:primes", f"shift:+{H}:shift:+1:primes"),
    (f"shift:+{H}:shift:+1:sq", f"shift:+{H}:shift:+1:sq"),
])
def test_malformed_set_spec_is_named(spec, shown, capsys):
    assert main(["analyze-set", "--set", spec, "--n", "10"]) == 2
    err = capsys.readouterr().err
    assert f"error: bad set spec {shown!r}: " in err


@pytest.mark.parametrize("spec, want", [
    (f"compl:mult:{H}", "f=2 omega=1\n"),
    (f"shift:+{H}:primes", "f=1 omega=1\n"),
])
def test_set_spec_numbers_at_the_horizon_answer(spec, want, capsys):
    assert main(["analyze-set", "--set", spec, "--n", "5"]) == 0
    assert capsys.readouterr().out == want


def test_floorpow_with_a_large_exponent_is_bounded(capsys):
    # 2^(p/q) is past the value horizon, told from bit lengths before 2^p is
    # formed; the child's time and address space are capped all the same
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)

    args = ["--n", "5", "--eps", "1/3"]
    assert main(["analyze-set", "--set", "list:0,1", *args]) == 0
    want = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for spec in ("floorpow:200000000/2", f"floorpow:{BIG}/2"):
        done = subprocess.run(
            [sys.executable, "-m", "fmlab.cli", "analyze-set", "--set", spec,
             *args], env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=cap)
        assert (done.returncode, done.stdout) == (0, want), done.stderr


def test_out_of_memory_is_usage_error(capsys):
    # the membership table for n = 10^18 is larger than any address space
    assert main(["analyze-set", "--set", "pow2",
                 "--n", str(10 ** 18)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, conjuncts", [
    (["parse"], 2000),
    (["eval", "--model", "M", "--assign", "x=0"], 500),
])
def test_long_connective_chain_is_usage_error(tmp_path, capsys, command,
                                              conjuncts):
    # the parser accepts a flat chain of any length; the recursive walks
    # behind printing and evaluation cannot descend it
    p = tmp_path / "two.txt"
    p.write_text("model\nn 2\nend\n")
    argv = [str(p) if a == "M" else a for a in command]
    text = " & ".join(["x = x"] * conjuncts)
    assert main([*argv, "--formula", text]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_analyze_set_small_eps(capsys):
    assert main(["analyze-set", "--set", "sq", "--n", "200",
                 "--eps", "1/200"]) == 0
    assert "eps=1/200" in capsys.readouterr().out


def test_missing_model_file(capsys):
    assert main(["eval", "--model", "/no/such/file", "--formula",
                 "x = x"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "M", "--formula", "@foo(x)", "--assign", "x=0"],
    ["eval", "--model", "M", "--formula", "@le(x)", "--assign", "x=0"],
    ["eval", "--model", "M", "--formula", "x <= y", "--assign", "x=2,y=-1"],
    ["eval", "--model", "M", "--formula", "x <= y", "--assign", "x=2,y=5"],
    ["eval", "--model", "M", "--formula", "U(x)", "--assign", "x=7"],
    ["eval", "--model", "M", "--formula", "U(x, y)", "--assign", "x=0,y=0"],
    ["analyze-set", "--set", "sq", "--n", "100", "--eps", "1/0"],
    ["analyze-set", "--set", "sq", "--n", "100", "--eps", "0"],
    ["analyze-set", "--set", "sq", "--n", "100", "--eps", "3/2"],
    ["pipeline", "--set", "sq", "--n", "100", "--eps", "1/0"],
    ["pipeline", "--set", "sq", "--n", "100", "--eps", "0"],
    ["ef", "--model", "M", "--model", "M", "--rank", "-1"],
    ["mulext", "--n", "64", "--k", "0"],
    ["mulext", "--n", "64", "--k", "1"],
    ["pipeline", "--set", "sq", "--n", "0", "--eps", "1/3"],
    ["pipeline", "--set", "sq", "--n", "-5", "--eps", "1/3"],
    ["eval", "--model", "M", "--formula", "x = x", "--assign", "x=abc"],
    ["eval", "--model", "M", "--formula", "x = x", "--assign", "x=1,x=2"],
    ["eval", "--model", "M", "--formula", "x = x", "--assign", "x=0,=1"],
])
def test_bad_input_is_a_usage_error_before_any_work(tmp_path, capsys, argv):
    # refused where it enters: nothing on stdout, no verdict, no traceback
    p = tmp_path / "u.txt"
    p.write_text("model\nn 3\nrel U 1 : 0\nend\n")
    assert main([str(p) if a == "M" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, said", [
    (["mulext", "--n", "64", "--k", "0"], "k must be at least 2"),
    (["mulext", "--n", "64", "--k", "1"], "k must be at least 2"),
    (["pipeline", "--set", "sq", "--n", "0", "--eps", "1/3"], "need n >= 1"),
    (["eval", "--assign", "x=abc"], "'x=abc'"),
    (["eval", "--assign", "x=1,x=2"], "'x=2'"),
    (["eval", "--assign", "x=0,=1"], "'=1'"),
])
def test_entry_checks_say_what_they_refuse(plain_model, capsys, argv, said):
    if argv[0] == "eval":
        argv = [*argv, "--model", plain_model, "--formula", "x = x"]
    assert main(argv) == 2
    assert said in capsys.readouterr().err
