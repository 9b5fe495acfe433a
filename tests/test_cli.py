"""Command-line interface: envelopes, formats, exit codes, verify wiring."""

import json
import sys
import time

import pytest

from permball import cli, models
from permball.core import parse_perm


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# --- basic commands -------------------------------------------------------------


def test_distance_command(capsys):
    code, payload, _ = run_json(capsys, "distance", "--model", "td", "1324")
    assert code == 0
    assert payload["command"] == "distance"
    assert payload["model"] == "td"
    assert payload["result"]["distance"] == 1

    code, payload, _ = run_json(capsys, "distance", "--model", "ptd", "213")
    assert payload["result"]["distance"] == 1

    code, payload, _ = run_json(capsys, "distance", "--model", "td", "123456789")
    assert payload["result"]["distance"] == 0


def test_distance_answers_long_input_with_a_short_reduction(capsys):
    # the rotation has 20 entries but reduces to 21, one operation from sorted
    rotation = ",".join(str(v) for v in (*range(11, 21), *range(1, 11)))
    for model in ("td", "ptd"):
        code, payload, _ = run_json(capsys, "distance", "--model", model, rotation)
        assert code == 0
        assert payload["result"]["distance"] == 1
        code, out, _ = run(capsys, "distance", "--model", model, rotation)
        assert code == 0
        assert "distance: 1" in out.splitlines()


def test_genset_command(capsys):
    code, payload, _ = run_json(capsys, "genset", "--model", "td", "-k", "2")
    assert code == 0
    result = payload["result"]
    assert result["count"] == 11
    assert result["elements"] == sorted(result["elements"])
    assert "1352647" in result["elements"]

    code, payload, _ = run_json(capsys, "genset", "--model", "ptd", "-k", "2")
    assert payload["result"]["count"] == 6

    code, payload, _ = run_json(
        capsys, "genset", "--model", "ptd", "-k", "3", "--method", "constructive"
    )
    assert payload["result"]["count"] == 90


def test_genset_reaches_past_the_published_radii(capsys):
    # the direct route needs no level table, so these fit the default budget
    for model, k, count in (("td", "4", 26251), ("ptd", "5", 113400)):
        code, payload, _ = run_json(capsys, "genset", "--model", model, "-k", k)
        assert code == 0
        assert payload["result"]["count"] == count

    # td k=5 would generate up to 344,844,955 children: refused before any work
    started = time.perf_counter()
    code, _, err = run(capsys, "genset", "--model", "td", "-k", "5")
    assert code == 3
    assert "refused" in err
    assert time.perf_counter() - started < 1


def test_basis_command(capsys):
    code, payload, _ = run_json(capsys, "basis", "--model", "td", "-k", "1")
    assert code == 0
    assert payload["result"]["elements"] == ["2143", "2413", "3142", "321"]

    code, payload, _ = run_json(capsys, "basis", "--model", "ptd", "-k", "2")
    assert payload["result"]["count"] == 17

    code, payload, _ = run_json(
        capsys, "basis", "--model", "ptd", "-k", "1", "--probe-extra-length"
    )
    assert payload["result"]["probe_length"] == 4
    assert payload["result"]["probe_found"] == []


def test_ball_neighbors_count_commands(capsys):
    code, payload, _ = run_json(
        capsys, "ball", "--model", "td", "-n", "4", "-k", "1", "--count-only"
    )
    assert code == 0
    assert payload["result"]["count"] == 11
    assert "elements" not in payload["result"]

    code, payload, _ = run_json(capsys, "count-irreducible", "-n", "7")
    assert payload["result"]["count"] == 2119

    code, payload, _ = run_json(capsys, "neighbors", "--model", "ptd", "21")
    assert payload["result"]["elements"] == ["12"]


def test_emitted_permutations_parse_back(capsys):
    _, payload, _ = run_json(capsys, "genset", "--model", "td", "-k", "2")
    for text in payload["result"]["elements"]:
        assert len(parse_perm(text)) == 7


# --- text/json agreement ----------------------------------------------------------


def test_text_and_json_carry_the_same_payload(capsys):
    for argv in (
        ["genset", "--model", "ptd", "-k", "2"],
        ["basis", "--model", "td", "-k", "1"],
        ["ball", "--model", "td", "-n", "4", "-k", "1"],
        ["distance", "--model", "td", "1324"],
    ):
        code_j, payload, _ = run_json(capsys, *argv)
        code_t, text, _ = run(capsys, *argv)
        assert code_j == code_t == 0
        for key, value in payload["result"].items():
            if isinstance(value, list):
                for item in value:
                    assert f"  {item}" in text
            else:
                assert f"{key}: {value}" in text


def test_text_envelope_prints_model_and_k_once(capsys):
    code, text, _ = run(capsys, "basis", "--model", "ptd", "-k", "1")
    assert code == 0
    lines = text.splitlines()
    assert lines.count("model: ptd") == 1
    assert lines.count("k: 1") == 1
    assert sum(line.startswith(("model:", "k:")) for line in lines) == 2


# --- exit codes ---------------------------------------------------------------------


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "distance", "--model", "td", "1429")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    for argv in (
        ["distance", "--model", "bogus", "1324"],
        ["distance", "--model", "td", "1324", "--max-states", "-1"],
        ["verify", "-k", "-1", "--max-n", "0"],
        ["verify", "-k", "2", "--max-n", "-3"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
    capsys.readouterr()
    # parsed, then refused by verify: some checks would check nothing
    for argv in (["verify", "-k", "0", "--max-n", "3"], ["verify", "-k", "1", "--max-n", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_refuses_a_reach_that_checks_nothing():
    from permball import verify
    from permball.models import Model

    for k, max_n in ((0, 3), (1, 1)):
        with pytest.raises(ValueError, match="k >= 1 and max_n >= 2"):
            verify.run_verification([Model.BLOCK], k, max_n, verify.load_golden(), None)
    assert verify._registry([Model.PREFIX], 1, 2)  # the least reach still runs


def test_budget_exit_codes(capsys):
    # inputs longer than the 16-entry packed code are refused on entry
    reversed17 = ",".join(str(v) for v in range(17, 0, -1))
    for command in ("distance", "neighbors"):
        code, _, err = run(capsys, command, "--model", "td", reversed17)
        assert code == 3
        assert "refused" in err

    code, _, err = run(capsys, "ball", "--model", "td", "-n", "17", "-k", "1")
    assert code == 3

    code, _, err = run(capsys, "genset", "--model", "td", "-k", "3", "--max-states", "1000")
    assert code == 3

    # a budget that skips every check has checked nothing: refused, not passed
    # (cold caches: an answer already cached is returned without a budget check)
    models._reset_caches()
    code, out, err = run(capsys, "verify", "-k", "1", "--max-n", "3", "--max-states", "0")
    assert code == 3
    assert out == "" and err.startswith("refused:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("basis", "--model", "td", "-k", "500"),
    ("basis", "--model", "td", "-k", "600"),
    ("genset", "--model", "td", "-k", "3000"),
])
def test_refusals_of_huge_sizes_are_one_short_line(capsys, argv):
    # (3k+1)! has 4,171 digits at k=500 and more than CPython's default limit
    # of 4,300 for an int-to-str conversion at k=600, like the genset child
    # bound at k=3000; each refusal is still a budget refusal on one short line
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("refused:") and err.count("\n") == 1 and len(err) < 200


def test_count_irreducible_budget_and_long_counts(capsys):
    # the recurrence costs about n^2, so a large -n is refused before any work
    started = time.perf_counter()
    code, _, err = run(capsys, "count-irreducible", "-n", "1000000")
    assert code == 3
    assert "refused" in err
    assert time.perf_counter() - started < 1

    code, payload, _ = run_json(capsys, "count-irreducible", "-n", "7")
    assert code == 0
    assert payload["result"]["count"] == 2119

    # a count of about 4,400 digits is past the default int-to-str limit of
    # CPython; printing it must end as a usage error, not a traceback
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for fmt in ("text", "json"):
            code, out, err = run(
                capsys, "count-irreducible", "-n", "1600", "--max-states", "10000000",
                "--format", fmt,
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
    finally:
        sys.set_int_max_str_digits(limit)


# --- verify ----------------------------------------------------------------------


def test_verify_passes_and_reports_lines(capsys):
    code, out, _ = run(capsys, "verify", "--model", "td", "-k", "1", "--max-n", "5")
    assert code == 0
    assert "all_passed: True" in out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL", "SKIPPED"))]
    assert len(lines) >= 5
    assert all(l.startswith("PASS") for l in lines)


def test_verify_detects_corrupted_expected_values(tmp_path, capsys):
    from permball.verify import load_golden

    golden = load_golden()
    golden["bases"]["td"]["1"] = ["321", "2143", "2413", "3241"]  # wrong value
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    code, out, _ = run(
        capsys, "verify", "--model", "td", "-k", "1", "--max-n", "4", "--golden", str(bad)
    )
    assert code == 1
    (failed,) = [line.split(maxsplit=2) for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL", "golden-basis-td-k1", "[both routes give 3142, which the golden list lacks]"
    ]

    # structurally broken file: unusable values must fail, not crash
    bad.write_text("{not json")
    code, _, err = run(
        capsys, "verify", "--model", "td", "-k", "1", "--max-n", "4", "--golden", str(bad)
    )
    assert code == 2


def verify_td_k1(tmp_path, capsys, golden):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code, payload, _ = run_json(
        capsys, "verify", "--model", "td", "-k", "1", "--max-n", "4", "--golden", str(path)
    )
    return code, {c["name"]: c for c in payload["result"]["checks"]}


def test_verify_labels_a_missing_expected_value(tmp_path, capsys):
    from permball.verify import load_golden

    golden = load_golden()
    del golden["bases"]["td"]["1"]
    code, checks = verify_td_k1(tmp_path, capsys, golden)
    assert code == 1
    assert checks["golden-basis-td-k1"]["status"] == "FAIL"
    assert "expected values unusable" in checks["golden-basis-td-k1"]["detail"]
    assert checks["basis-probe-td-k1"]["status"] == "PASS"


@pytest.mark.parametrize(
    "check, section, empty",
    [
        ("plus-irreducible-counts", ("plus_irreducible_counts_by_length",), {}),
        ("worked-examples", ("worked_examples", "distances"), []),
    ],
    ids=["counts", "distances"],
)
def test_verify_fails_on_an_emptied_expected_section(tmp_path, capsys, check, section, empty):
    # an empty section would pass its check without comparing anything
    from permball.verify import load_golden

    golden = load_golden()
    holder = golden
    for key in section[:-1]:
        holder = holder[key]
    holder[section[-1]] = empty
    code, checks = verify_td_k1(tmp_path, capsys, golden)
    assert code == 1
    assert checks[check]["status"] == "FAIL"
    assert "expected values unusable" in checks[check]["detail"]
    assert all(key in checks[check]["detail"] for key in section)


def test_verify_reports_the_count_lengths_it_read(tmp_path, capsys):
    from permball.verify import load_golden

    golden = load_golden()
    counts = golden["plus_irreducible_counts_by_length"]
    golden["plus_irreducible_counts_by_length"] = {n: counts[n] for n in "12345"}
    code, checks = verify_td_k1(tmp_path, capsys, golden)
    assert code == 0
    assert checks["plus-irreducible-counts"]["status"] == "PASS"
    assert "lengths 1..5 by recurrence" in checks["plus-irreducible-counts"]["detail"]


def test_verify_does_not_blame_engine_errors_on_expected_values(monkeypatch):
    from permball import genset, verify
    from permball.models import Model

    def broken(*args, **kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(genset, "generating_set_direct", broken)
    with pytest.raises(ValueError, match="engine bug"):
        verify.run_verification([Model.BLOCK], 1, 4, verify.load_golden(), max_states=None)


def test_verify_skips_when_budget_is_too_small(capsys):
    # the count check enumerates the 2119 plus-irreducible permutations of length 7
    code, payload, _ = run_json(
        capsys,
        "verify", "--model", "ptd", "-k", "2", "--max-n", "4", "--max-states", "1000",
    )
    assert code == 0  # skipped checks are not failures
    checks = {c["name"]: c["status"] for c in payload["result"]["checks"]}
    assert checks["plus-irreducible-counts"] == "SKIPPED"

    # cold caches: an answer already cached is returned without a budget check
    models._reset_caches()
    code, payload, _ = run_json(
        capsys,
        "verify", "--model", "td", "-k", "1", "--max-n", "7", "--max-states", "10",
    )
    assert code == 0
    checks = {c["name"]: c["status"] for c in payload["result"]["checks"]}
    for name in ("left-invariance-td", "breakpoint-bound-td", "reduction-invariance-td",
                 "transposition-inverse", "worked-examples"):
        assert checks[name] == "SKIPPED", name


def test_verify_check_names_and_order():
    from permball import verify
    from permball.models import Model

    # run_verification runs exactly the checks of _registry, in its order
    both = verify._registry([Model.BLOCK, Model.PREFIX], 3, 7)
    assert [name for name, _ in both] == [
        "golden-genset-td-k1", "golden-genset-td-k2", "golden-basis-td-k1",
        "basis-probe-td-k1", "left-invariance-td", "ball-closure-td",
        "ball-characterization-td", "basis-properties-td", "reduction-invariance-td",
        "golden-genset-ptd-k1", "golden-genset-ptd-k2", "genset-cardinality-ptd-k3",
        "golden-basis-ptd-k1", "golden-basis-ptd-k2", "basis-probe-ptd-k1",
        "basis-probe-ptd-k2", "left-invariance-ptd", "ball-closure-ptd",
        "ball-characterization-ptd", "basis-properties-ptd", "reduction-invariance-ptd",
        "breakpoint-bound-td", "one-step-inflation-closure", "transposition-inverse",
        "ptd-parent-uniqueness", "model-refinement", "plus-irreducible-counts",
        "worked-examples",
    ]
    td_only = verify._registry([Model.BLOCK], 1, 4)
    assert [name for name, _ in td_only] == [
        "golden-genset-td-k1", "golden-basis-td-k1", "basis-probe-td-k1",
        "left-invariance-td", "ball-closure-td", "ball-characterization-td",
        "basis-properties-td", "reduction-invariance-td", "breakpoint-bound-td",
        "one-step-inflation-closure", "transposition-inverse", "plus-irreducible-counts",
        "worked-examples",
    ]


@pytest.mark.parametrize("broken, failing", [
    ("td", ("breakpoint-bound-td", "reduction-invariance-td")),
    ("ptd", ("reduction-invariance-ptd", "model-refinement")),
])
def test_verify_sweeps_name_the_permutation_they_fail_on(monkeypatch, broken, failing):
    # a distance of 0 for 231 (true distance 1 in both models, reduction 21)
    # breaks the breakpoint bound and reduction invariance of its model, and
    # under ptd also the refinement td <= ptd
    from permball import verify
    from permball.models import Model

    real = models.distance

    def wrong(p, model, **kwargs):
        if p == (2, 3, 1) and Model.coerce(model) is Model(broken):
            return 0
        return real(p, model, **kwargs)

    monkeypatch.setattr(models, "distance", wrong)
    results = verify.run_verification(
        [Model.BLOCK, Model.PREFIX], 1, 4, verify.load_golden(), max_states=None
    )
    checks = {r.name: r for r in results}
    for name in failing:
        assert checks[name].status == "FAIL", name
        assert "231" in checks[name].detail, name


def test_verify_reduction_checks_catch_a_wrong_reduction(monkeypatch):
    # an idempotent but wrong reduction sends every permutation with a strip
    # to 1; distance then answers 0 for 231 (true distance 1 in both models),
    # which only an oracle that never reduces can see
    from permball import core, verify
    from permball.models import Model

    real = core.reduce
    monkeypatch.setattr(core, "reduce", lambda p: (1,) if real(p) != tuple(p) else tuple(p))
    results = verify.run_verification(
        [Model.BLOCK, Model.PREFIX], 1, 4, verify.load_golden(), max_states=None
    )
    checks = {r.name: r for r in results}
    for name in ("reduction-invariance-td", "reduction-invariance-ptd"):
        assert checks[name].status == "FAIL", name
        assert "231" in checks[name].detail, name


def test_verify_reports_a_missing_ptd_parent_as_a_failure(monkeypatch):
    # ptd_parent's "not obtainable" answer for a generator of G_2 must fail
    # its check, naming the child, and not abort the run
    from permball import genset, verify
    from permball.models import Model

    real = genset.ptd_parent

    def rejecting(child):
        if child == (4, 1, 3, 2, 5):
            raise ValueError("not obtainable")
        return real(child)

    monkeypatch.setattr(genset, "ptd_parent", rejecting)
    results = verify.run_verification([Model.PREFIX], 2, 4, verify.load_golden(), max_states=None)
    checks = {r.name: r for r in results}
    assert checks["ptd-parent-uniqueness"].status == "FAIL"
    assert "41325" in checks["ptd-parent-uniqueness"].detail
    assert checks["worked-examples"].status == "PASS"  # the checks after it still ran


@pytest.mark.parametrize("n, j, detail", [
    (3, 1, "deletion left the ball at k=1"),
    (3, 2, "nesting failed at n=3, k=1"),
])
def test_verify_closure_fails_on_a_ball_missing_a_member(monkeypatch, n, j, detail):
    # without 132 in B_1, deleting from 1324 leaves the ball; without it in
    # B_2, B_1 is no longer nested in B_2
    from permball import verify
    from permball.models import Model

    real = verify.ball

    def missing_132(length, k, model, **kwargs):
        found = real(length, k, model, **kwargs)
        return tuple(p for p in found if p != (1, 3, 2)) if (length, k) == (n, j) else found

    monkeypatch.setattr(verify, "ball", missing_132)
    ok, got = verify._check_closure(Model.BLOCK, 2, 6, None, None)
    assert not ok
    assert got == detail


def test_verify_json_payload(capsys):
    code, payload, _ = run_json(capsys, "verify", "--model", "ptd", "-k", "1", "--max-n", "4")
    assert code == 0
    statuses = {c["status"] for c in payload["result"]["checks"]}
    assert statuses <= {"PASS", "SKIPPED"}
    assert payload["result"]["all_passed"] is True
