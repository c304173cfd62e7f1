"""End-to-end command line checks with frozen text output."""

import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from clusterdeform import atlas, cli, gradings, properties
from clusterdeform.atlas import enumerate_atlas
from clusterdeform.cli import Pipeline, main
from clusterdeform.properties import check_t1
from clusterdeform.seeds import load_seed, seed_from_dict, seed_to_dict
from tests.conftest import AUGMENTED, augmented_seed, gradings_of, path_seed

_DATA = resources.files("clusterdeform.data")
A2 = str(_DATA / "a2.json")
A3_BAD = str(_DATA / "a3_bad.json")
G2 = str(_DATA / "g2.json")
A1F = str(_DATA / "a1f.json")
GOLDEN = Path(__file__).with_name("golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_text(capsys):
    code, out = run(capsys, "enumerate", A2)
    assert code == 0
    assert out == (
        "variables: 8 (5 mutable)\n"
        "  x13  g=(1, 0, 0, 0, 0)  x13 / 1\n"
        "  x14  g=(0, 1, 0, 0, 0)  x14 / 1\n"
        "  s1  g=(0, 0, 1, 0, 0)  s1 / 1\n"
        "  s2  g=(0, 0, 0, 1, 0)  s2 / 1\n"
        "  s3  g=(0, 0, 0, 0, 1)  s3 / 1\n"
        "  x(-1,1,0,1,0)  g=(-1, 1, 0, 1, 0)  x14*s2 + s1*s3 / x13\n"
        "  x(0,-1,0,1,1)  g=(0, -1, 0, 1, 1)  x13*s1 + s2*s3 / x14\n"
        "  x(-1,0,0,2,0)  g=(-1, 0, 0, 2, 0)"
        "  x13*s1^2 + x14*s2^2 + s1*s2*s3 / x13*x14\n"
        "clusters: 5\n"
        "  x13 x14 s1 s2 s3\n"
        "  x(-1,1,0,1,0) x14 s1 s2 s3\n"
        "  x(0,-1,0,1,1) x13 s1 s2 s3\n"
        "  x(-1,0,0,2,0) x(-1,1,0,1,0) s1 s2 s3\n"
        "  x(-1,0,0,2,0) x(0,-1,0,1,1) s1 s2 s3\n"
        "exchange pairs: 5\n"
        "  x(-1,0,0,2,0) * x13 = s1*x(0,-1,0,1,1) + s2^2\n"
        "  x(-1,0,0,2,0) * x14 = s1^2 + s2*x(-1,1,0,1,0)\n"
        "  x(-1,1,0,1,0) * x(0,-1,0,1,1) = s1*s2 + s3*x(-1,0,0,2,0)\n"
        "  x(-1,1,0,1,0) * x13 = s1*s3 + s2*x14\n"
        "  x(0,-1,0,1,1) * x14 = s1*x13 + s2*s3\n")


def test_complex_text(capsys):
    code, out = run(capsys, "complex", A2)
    assert code == 0
    assert out == (
        "vertices: x(-1,0,0,2,0) x(-1,1,0,1,0) x(0,-1,0,1,1) x13 x14\n"
        "facet: x(-1,0,0,2,0) x(-1,1,0,1,0)\n"
        "facet: x(-1,0,0,2,0) x(0,-1,0,1,1)\n"
        "facet: x(-1,1,0,1,0) x14\n"
        "facet: x(0,-1,0,1,1) x13\n"
        "facet: x13 x14\n")


def test_sr_ideal_text(capsys):
    code, out = run(capsys, "sr-ideal", A2)
    assert code == 0
    assert out == (
        "variables: x(-1,0,0,2,0) x(-1,1,0,1,0) x(0,-1,0,1,1) x13 x14"
        " s1 s2 s3\n"
        "gen: x(0,-1,0,1,1)*x14\n"
        "gen: x(-1,1,0,1,0)*x13\n"
        "gen: x(-1,1,0,1,0)*x(0,-1,0,1,1)\n"
        "gen: x(-1,0,0,2,0)*x14\n"
        "gen: x(-1,0,0,2,0)*x13\n")


def test_cone_text(capsys):
    code, out = run(capsys, "cone", A2)
    assert code == 0
    assert out == (
        "ambient order: x13 x14 x(-1,1,0,1,0) x(0,-1,0,1,1) x(-1,0,0,2,0)"
        " s1 s2 s3\n"
        "lineality: [1, 1, 0, 0, -1, 0, 0, 1]\n"
        "lineality: [0, 2, 0, -3, -4, -1, -2, 1]\n"
        "lineality: [0, 0, 1, 1, 2, 1, 1, 0]\n"
        "ray: [0, 0, 0, -1, -2, -1, -2, 1]\n"
        "ray: [0, 0, 0, -1, 0, -1, 0, -1]\n"
        "ray: [0, 0, 0, 0, 0, 0, 0, -1]\n"
        "ray: [0, 0, 0, 1, 0, -1, 0, 1]\n"
        "ray: [0, 0, 0, 1, 2, 1, 0, -1]\n"
        "simplicial mod lineality: True\n"
        "smooth mod lineality: True\n"
        "interior weight: [0, 2, 4, 1, 4, 1, 0, 0]\n")


def test_lift_verify_text(capsys):
    code, out = run(capsys, "lift", A2, "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generators: 5  (order 6)"
    assert lines[1:6] == [
        "  x(-1,1,0,1,0)*x(0,-1,0,1,1) - x(-1,0,0,2,0)*s3*t(1,-1)"
        " - s1*s2*t(-1,0)*t(0,1)",
        "  x14*x(-1,0,0,2,0) - x(-1,1,0,1,0)*s2*t(0,-1) - s1^2*t(0,1)*t(1,0)",
        "  x14*x(0,-1,0,1,1) - x13*s1*t(0,1) - s2*s3*t(0,-1)*t(1,-1)",
        "  x13*x(-1,0,0,2,0) - x(0,-1,0,1,1)*s1*t(1,0) - s2^2*t(-1,0)*t(0,-1)",
        "  x13*x(-1,1,0,1,0) - x14*s2*t(-1,0) - s1*s3*t(1,-1)*t(1,0)",
    ]
    assert lines[6:] == ["verify fiber_at_zero: True",
                         "verify laurent_vanishing: True",
                         "verify matches_universal_relations: True"]


def test_check_failure_exit_code(capsys):
    code, out = run(capsys, "check", A3_BAD, "--property", "t1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "T1 holds: False"
    assert lines[1] == \
        "  witness: {'seed': 0, 'path': (), 'j': 0, 'w': [0, 0, 0, 0, -1, 1]}"


def test_check_repair(capsys):
    code, out = run(capsys, "check", A3_BAD, "--property", "t1", "--repair")
    assert code == 0
    tail = out.splitlines()[-1]
    assert tail.startswith("repaired seed: ")
    repaired = json.loads(tail[len("repaired seed: "):])
    assert repaired["m"] == 9
    assert repaired["B"][6:] == [[0, 0, -1], [-1, 0, 0], [1, 0, 0]]


@pytest.mark.parametrize("name", ["b2", "g2"])
def test_check_repair_without_a_strict_grading(capsys, name):
    """With no strictly positive grading T1 is undecided, and the repair
    adds the frozen rows of one first: the printed seed satisfies T1."""
    code, out = run(capsys, "check", str(_DATA / (name + ".json")),
                    "--property", "t1", "--repair")
    assert code == 0
    head, tail = out.splitlines()
    assert head == "T1 holds: undecided (no strictly positive grading)"
    assert tail.startswith("repaired seed: ")
    repaired = seed_from_dict(json.loads(tail[len("repaired seed: "):]))
    repaired_atlas = enumerate_atlas(repaired)
    assert check_t1(repaired_atlas, *gradings_of(repaired_atlas)).holds


def test_check_repair_without_a_strict_grading_json(capsys):
    code, out = run(capsys, "check", str(_DATA / "b2.json"), "--property",
                    "t1", "--repair", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["holds"], payload["witnesses"]) == (None, [])
    assert payload["repaired_seed"]["labels"][2:] == ["aux1", "aux2", "bal"]


def test_check_repair_needs_a_full_rank_matrix(capsys):
    assert main(["check", str(_DATA / "a3.json"), "--property", "t1",
                 "--repair"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: repair requires a full-rank matrix\n")


def test_check_repair_rejected_for_t0_properties(capsys):
    # A2 satisfies both properties and A3_BAD fails T0, so the rejection
    # must come before the check, whatever its verdict.
    for seed in (A2, A3_BAD):
        for prop in ("t0", "t0star"):
            code, out = run(capsys, "check", seed, "--property", prop,
                            "--repair")
            assert code == 2
            assert out == ""


def test_check_success_exit_code(capsys):
    code, out = run(capsys, "check", A2, "--property", "t1")
    assert code == 0
    assert out.splitlines()[0] == "T1 holds: True"
    for prop in ("t0", "t0star"):
        code, _ = run(capsys, "check", A2, "--property", prop)
        assert code == 0


@pytest.mark.parametrize("name, prop", [
    (name, prop) for name in ["a2", "a3_bad", "gr26_pullback", "d4"]
    + sorted(AUGMENTED) for prop in ("t1", "t0", "t0star")])
def test_check_json_golden(capsys, tmp_path, name, prop):
    if name in AUGMENTED:
        seed_file = tmp_path / (name + ".json")
        seed_file.write_text(json.dumps(seed_to_dict(augmented_seed(name))))
    else:
        seed_file = _DATA / (name + ".json")
    code, out = run(capsys, "check", str(seed_file), "--property", prop,
                    "--json")
    expected = (GOLDEN / "check" / ("%s-%s.json" % (name, prop))).read_text()
    assert out == expected
    assert code == (0 if json.loads(expected)["holds"] else 1)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_check_t0star_d4_fits_in_1gib():
    """Without the cone prune, T0* on d4 walks 874,167 monomials and the
    semigroup search on their degrees grows past 4 GB."""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "clusterdeform.cli", "check", "--property",
         "t0star", "--json", str(_DATA / "d4.json")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=_cap_address_space)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "check" / "d4-t0star.json").read_text()


def test_cli_import_loads_no_fractions():
    """The package works over Z only: importing the CLI in a fresh
    interpreter loads no `fractions` module."""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, clusterdeform.cli; print('fractions' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("prop", ["t1", "t0star"])
def test_traced_check_spans_the_shared_kernel(tmp_path, prop):
    """perfbench/traced_cli.py hooks SemigroupData.contains by name and
    wraps every public function; a traced check names the T1 witness
    search and the lattice-point kernel it shares with T0*.  It runs in a
    child, so the rebinding stays out of this process."""
    root = Path(__file__).resolve().parents[1]
    spans_file = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_cli.py"),
         str(spans_file), "case", "--", "check", "--property", prop,
         "--json", A2],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "check" / ("a2-%s.json" % prop)
                             ).read_text()
    names = {span[0] for span in json.loads(spans_file.read_text())}
    assert "intlinalg.nonnegative_solutions" in names
    if prop == "t1":
        assert "cotangent.t1_witnesses" in names


def test_univ_text(capsys):
    code, out = run(capsys, "univ", A1F)
    assert code == 0
    assert out == (
        "coefficients: 2\n"
        "  t(-1)  row [-1]  deg_T (1, 1, 0)\n"
        "  t(1)  row [1]  deg_T (1, 1, -1)\n"
        "relations: 1\n"
        "  x(-1,0) * x1 = t(1)*f1 + t(-1)\n"
        "fiber at zero in the monomial ideal: True\n")


@pytest.mark.parametrize("name", ["a1f", "a2", "a3", "a3_bad", "b2", "c2",
                                  "d4", "g2", "gr26_pullback"])
def test_univ_golden(capsys, name):
    code, out = run(capsys, "univ", str(_DATA / (name + ".json")))
    assert code == 0
    assert out == (GOLDEN / "univ" / (name + ".txt")).read_text()


def _cone_seed_file(tmp_path, name):
    """A bundled seed, or a5: the path quiver A5 without frozen rows."""
    if name != "a5":
        return str(_DATA / (name + ".json"))
    seed_file = tmp_path / "a5.json"
    seed_file.write_text(json.dumps(seed_to_dict(path_seed([(1, -1)] * 4))))
    return str(seed_file)


@pytest.mark.parametrize("name", ["a1f", "a2", "a3", "a3_bad", "b2", "c2",
                                  "d4", "g2", "gr26_pullback", "a5"])
def test_cone_json_golden(capsys, tmp_path, name):
    code, out = run(capsys, "cone", _cone_seed_file(tmp_path, name), "--json")
    assert code == 0
    assert out == (GOLDEN / "cone" / (name + ".json")).read_text()


def test_grading_find_positive_json_golden_d4(capsys):
    code, out = run(capsys, "grading", str(_DATA / "d4.json"),
                    "--find-positive", "--json")
    assert code == 0
    assert out == (GOLDEN / "grading" / "d4-find-positive.json").read_text()


@pytest.mark.parametrize("name", ["a1f", "a2", "a3", "a3_bad", "b2", "c2",
                                  "d4", "g2", "gr26_pullback"]
                         + sorted(AUGMENTED))
def test_grading_add_frozen_json_golden(capsys, tmp_path, name):
    """`grading --add-frozen --json` prints the augmented seed, on every
    bundled seed and on the `AUGMENTED` seeds before their augmentation."""
    if name in AUGMENTED:
        seed_file = tmp_path / (name + ".json")
        seed_file.write_text(json.dumps(seed_to_dict(AUGMENTED[name]())))
    else:
        seed_file = _DATA / (name + ".json")
    code, out = run(capsys, "grading", str(seed_file), "--add-frozen",
                    "--json")
    assert code == 0
    assert out == (GOLDEN / "grading" / (name + "-add-frozen.json")
                   ).read_text()


def test_grading_text(capsys):
    code, out = run(capsys, "grading", A2, "--find-positive")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "free rank: 3  torsion: []"
    assert "  deg x13 = (-1, 1, 1)" in lines
    assert lines[-2] == "positive grading: [1, 1, 1, 1, 1]"
    assert lines[-1] == "strictly positive grading: [1, 1, 1, 1, 1]"


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", G2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"clusters", "exchange_pairs", "variables"}
    assert len(payload["variables"]) == 8
    assert len(payload["clusters"]) == 8
    assert len(payload["exchange_pairs"]) == 8


def test_t1_invariant_text(monkeypatch, capsys):
    """`t1` prints the pinned degrees, and builds no cluster complex."""
    monkeypatch.setattr(cli, "cluster_complex", None)
    code, out = run(capsys, "t1", A2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pinned degrees: 5"
    assert len(lines) == 6


@pytest.mark.parametrize("flag", ["--families", "--invariant"])
def test_t1_takes_no_listing_flag(capsys, flag):
    """`t1` prints the pinned degrees only; the flags that chose between
    them and the family listing are usage errors."""
    assert main(["t1", A2, flag]) == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a1f", "a3", "b2", "c2", "g2"])
def test_t1_without_strictly_positive_grading(capsys, name):
    """With no strictly positive grading there is no box for the witness
    search: `t1` exits 2 and prints nothing on stdout."""
    code = main(["t1", str(_DATA / (name + ".json"))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no strictly positive grading\n"


@pytest.mark.parametrize("argv", [["grading", "--add-frozen"],
                                  ["check", "--property", "t1", "--repair"]],
                         ids=["grading-add-frozen", "check-t1-repair"])
def test_rank_zero_seed_has_nothing_to_make_positive(capsys, tmp_path, argv):
    """A seed without mutable variables cannot be augmented towards a
    strictly positive grading: both commands that augment exit 2 with a
    message that names the cause."""
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"n": 0, "m": 0, "B": []}))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: rank 0: no mutable variable to make positive\n")


def test_failed_positivity_verification_is_a_pipeline_error(monkeypatch,
                                                            capsys):
    """With the n added rows zero (their depth |c| patched to 0), g2's
    augmentation leaves a variable of degree < 1 under (1,...,1): the
    verification fails as a pipeline error, exit 2 with a one-line message,
    not as a failed property check (exit 1)."""
    monkeypatch.setattr(gradings, "abs", lambda c: 0, raising=False)
    code = main(["grading", G2, "--add-frozen"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: positivity augmentation failed verification\n")


@pytest.mark.parametrize("prop, name", [("t0", "T0"), ("t0star", "T0*"),
                                        ("t1", "T1")])
def test_rank_zero_seed_checks(capsys, tmp_path, prop, name):
    """On a seed without mutable variables every property reads the grading
    first.  With no frozen variable there is no strictly positive grading
    (exit 2); with one, each property holds trivially."""
    results = []
    for data in ({"n": 0, "m": 0, "B": []}, {"n": 0, "m": 1, "B": [[]]}):
        path = tmp_path / "rank0.json"
        path.write_text(json.dumps(data))
        code = main(["check", str(path), "--property", prop])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results == [(2, "", "error: no strictly positive grading\n"),
                       (0, "%s holds: True\n" % name, "")]


def test_closed_stdout_is_no_input_error():
    """A reader that closes the pipe before the output ends, as `| head -1`
    does, gets exit 141, as from a writer killed by SIGPIPE, and nothing
    on stderr: no "input error" and no "Exception ignored" at shutdown."""
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "clusterdeform.cli", "t1", A2],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == ""


@pytest.mark.parametrize("name", ["a3_bad", "d4", "gr26_pullback", "aug_b3",
                                  "aug_c3"])
def test_t1_json_golden(capsys, tmp_path, name):
    """`t1 --json` prints the pinned degrees."""
    if name in AUGMENTED:
        seed_file = tmp_path / (name + ".json")
        seed_file.write_text(json.dumps(seed_to_dict(augmented_seed(name))))
    else:
        seed_file = _DATA / (name + ".json")
    code, out = run(capsys, "t1", str(seed_file), "--json")
    assert code == 0
    assert out == (GOLDEN / "t1" / (name + ".json")).read_text()


def test_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "enumerate", str(bad))[0] == 2
    assert run(capsys, "enumerate", str(tmp_path / "missing.json"))[0] == 2


def test_max_order_only_on_lift_and_demo(capsys):
    """--max-order caps the lifted family, so only lift and demo take it;
    elsewhere it is a usage error."""
    code, out = run(capsys, "lift", A2, "--max-order", "6")
    assert code == 0 and out.startswith("generators: 5  (order 6)\n")
    assert cli.build_parser().parse_args(
        ["demo", "--max-order", "6"]).max_order == 6
    for argv in (["check", A2, "--property", "t1"], ["t1", A2], ["cone", A2]):
        assert main(argv + ["--max-order", "6"]) == 2
    capsys.readouterr()


def test_budget_error(capsys):
    assert main(["enumerate", A3_BAD, "--max-seeds", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: exchange-graph search: more than 2 seeds (--max-seeds 2)\n")


@pytest.mark.parametrize("argv, flag", [
    (["enumerate", A2, "--max-seeds", "0"], "--max-seeds"),
    (["lift", A2, "--max-order", "-3"], "--max-order")])
def test_budget_below_one_is_a_usage_error(capsys, argv, flag):
    """A budget below 1 is refused as the flags are parsed: exit 2, a
    usage message that names the flag, and no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s: must be an integer >= 1" % flag in captured.err
    assert "Traceback" not in captured.err


def test_usage_error(capsys):
    assert run(capsys, "check", A3_BAD, "--property", "bogus")[0] == 2


def test_demo(capsys):
    code, out = run(capsys, "demo")
    assert code == 0
    assert out.rstrip().endswith("verified: True")


def test_demo_text(capsys):
    code, out = run(capsys, "demo")
    assert code == 0
    assert out == (GOLDEN / "demo.txt").read_text()


def test_pipeline_computes_each_stage_once(monkeypatch):
    calls = {"enumerate_atlas": 0, "groebner_cone": 0, "exact_divide": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    atlas_fn = counted("enumerate_atlas", cli.enumerate_atlas)
    monkeypatch.setattr(cli, "enumerate_atlas", atlas_fn)
    monkeypatch.setattr(cli, "groebner_cone",
                        counted("groebner_cone", cli.groebner_cone))
    monkeypatch.setattr(atlas, "exact_divide",
                        counted("exact_divide", atlas.exact_divide))
    pipe = Pipeline(load_seed(A2), max_seeds=1000)
    stages = ("atlas", "complex", "ideal", "universal", "cone",
              "strict_grading")
    first = [getattr(pipe, name) for name in stages]
    assert [getattr(pipe, name) for name in stages] == first
    assert pipe.universal.base_atlas is pipe.atlas
    # one search: the coefficient rows and the extended relations are read
    # off the base atlas; no stage builds a Laurent expansion
    assert calls == {"enumerate_atlas": 1, "groebner_cone": 1,
                     "exact_divide": 0}
    pipe.atlas.laurent_expansion(pipe.seed.var_ids[0])
    assert calls["exact_divide"] > 0


@pytest.mark.parametrize("argv, searches", [
    (("univ",), 1), (("cone",), 1), (("lift",), 1),
    (("check", "--property", "t1"), 1), (("check", "--property", "t0star"), 1),
    (("grading", "--add-frozen"), 1),
], ids=lambda a: "-".join(a) if isinstance(a, tuple) else str(a))
@pytest.mark.parametrize("name", ["a2", "d4"])
def test_each_command_searches_once(monkeypatch, capsys, argv, searches, name):
    """One exchange-graph search per command.  `grading --add-frozen`
    verifies the augmented seed along the base search, with no second
    one."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return atlas.enumerate_atlas(*args, **kwargs)

    for module in (cli, gradings, properties):
        monkeypatch.setattr(module, "enumerate_atlas", counted)
    code, _ = run(capsys, argv[0], str(_DATA / (name + ".json")), *argv[1:])
    assert code in (0, 1)
    assert len(calls) == searches


A2_PLAIN = {"n": 2, "m": 2, "B": [[0, 1], [-1, 0]]}


@pytest.mark.parametrize("data, argv, message", [
    ({"n": 2, "B": [[0, 1], [-1, 0]]}, ["enumerate"],
     'error: "m" must be a nonnegative integer'),
    ([A2_PLAIN], ["enumerate"], "error: a seed must be a JSON object"),
    (dict(A2_PLAIN, B=[[0, 1.5], [-1, 0]]), ["enumerate"],
     'error: "B" must be a list of rows of integers'),
    (dict(A2_PLAIN, labels=["a", "a"]), ["enumerate"],
     "error: variable ids must be distinct"),
    (dict(A2_PLAIN, labels=["x(-1,0)", "x2"]), ["complex"],
     "error: the new variable x(-1,0) is named like a label of the seed"),
    (dict(A2_PLAIN, labels=["x(-1,0)", "x2"]), ["sr-ideal"],
     "error: the new variable x(-1,0) is named like a label of the seed"),
], ids=["no-m", "list", "float-entry", "repeated-label", "label-complex",
        "label-sr-ideal"])
def test_malformed_seed_file_exits_2(tmp_path, data, argv, message):
    """A malformed seed file ends in exit code 2 and a one-line message on
    stderr, in a fresh interpreter and without a traceback."""
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(data))
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "clusterdeform.cli", *argv, str(path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (result.returncode, result.stdout, result.stderr) \
        == (2, "", message + "\n")
