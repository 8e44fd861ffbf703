import pytest

from fmlab import suites
from fmlab.suites import Claim, SuiteReport, _first_failures, run_suite

EXPECTED = {
    "haertig-addition", "order-from-plus", "mulext-lemma", "mulext-prop",
    "set-criteria", "looseness-examples", "relativization", "substitution",
    "regularization-ui", "lift-hartig", "rc-unary", "divmod-interdef",
    "median-trick", "mso-counterexample", "neutral-letter", "ef-games",
}


def test_registry_names():
    assert set(suites.SUITES) == EXPECTED


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_default_seed_recorded():
    rep = run_suite("neutral-letter")
    assert rep.seed == suites.DEFAULT_SEED
    assert run_suite("neutral-letter", seed=7).seed == 7


# relativization skips draws whose guard is empty, so its stream draws a
# varying number of values per case
@pytest.mark.parametrize("name", ["substitution", "relativization"])
def test_deterministic_given_seed(name):
    a = run_suite(name, seed=99)
    b = run_suite(name, seed=99)
    assert a.claims == b.claims


def test_report_lines_on_success():
    rep = SuiteReport("demo", 5, [Claim("works", True)])
    lines = rep.lines()
    assert lines[0] == "suite demo (seed 5)"
    assert lines[1].startswith("  PASS")
    assert not any("reproduce" in ln for ln in lines)


def test_report_lines_on_failure():
    rep = SuiteReport("demo", 5, [Claim("works", True),
                                  Claim("breaks", False, "at n=3")])
    lines = rep.lines()
    assert any(ln.startswith("  FAIL  breaks") and "at n=3" in ln
               for ln in lines)
    assert lines[-1] == "  reproduce: fmlab check demo --seed 5"
    assert not rep.ok


def test_report_lines_count_and_time_searched_claims():
    searched = Claim("works", True, cases=3, seconds=0.5)
    lines = SuiteReport("demo", 5, [searched, Claim("plain", True)]).lines()
    assert lines[1] == "  PASS  works  (3 cases, 0.50 s)"
    assert lines[2] == "  PASS  plain"
    assert searched == Claim("works", True, cases=3, seconds=9.0)


def test_first_failure_names_the_first_bad_case():
    cases = ((f"w{i}", i) for i in range(1, 6))
    [claim] = _first_failures(cases, ("below 3", "case", lambda i: i < 3))
    assert not claim.ok
    assert claim.detail == "case=w3"
    assert claim.cases == 3


def test_shared_stream_counts_each_check():
    cases = ((i, i) for i in range(5))
    fails, holds = _first_failures(cases, ("a", "i", lambda i: i != 1),
                                   ("b", "i", lambda i: True))
    assert (fails.ok, fails.detail, fails.cases) == (False, "i=1", 2)
    assert (holds.ok, holds.detail, holds.cases) == (True, "", 5)


def test_stream_stops_once_every_check_failed():
    pulls = []

    def cases():
        for i in range(10):
            pulls.append(i)
            yield i, i

    claims = _first_failures(cases(), ("a", "i", lambda i: i < 2),
                             ("b", "i", lambda i: i < 4))
    assert pulls == [0, 1, 2, 3, 4]
    assert [c.cases for c in claims] == [3, 5]


def test_shared_work_runs_once_per_case():
    work = []
    calls = []

    def cases():
        for i in range(4):
            work.append(i)  # the costly part both checks read
            yield i, i * i

    def check(square):
        calls.append(square)
        return True

    _first_failures(cases(), ("a", "i", check), ("b", "i", check))
    assert work == [0, 1, 2, 3]
    assert calls == [0, 0, 1, 1, 4, 4, 9, 9]


def test_cheap_suites_pass():
    for name in ("neutral-letter", "mulext-prop"):
        rep = run_suite(name)
        assert rep.ok, "\n".join(rep.lines())


def test_substitution_alternate_seed():
    # the randomized contract holds for more than the shipped seed
    assert run_suite("substitution", seed=4242).ok
