import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from roothk import cli, lattice_tower
from roothk.cli import main
from roothk.errors import DiscriminantTooLargeError


def run_python(args, env_extra=None):
    env = {**os.environ, **(env_extra or {})}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(args, env_extra=None):
    return run_python(["-m", "roothk.cli", *args], env_extra)


def test_analyze_json_pass(capsys):
    code = main(["analyze", "A", "2", "--lattice", "dual", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["tool_version"]
    names = [c["name"] for c in doc["checks"]]
    assert "analyze/A2/irreducible" in names
    model = next(c for c in doc["checks"] if c["name"] == "analyze/A2/known-model")
    assert model["values"]["lattice"] == "A2*"
    assert "Kummer" in model["values"]["model"]


def test_analyze_invalid_rank_exit_2():
    proc = run_cli(["analyze", "A", "0"])
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_analyze_unknown_family_exit_2():
    proc = run_cli(["analyze", "X", "2"])
    assert proc.returncode == 2


def test_unknown_suite_exit_2():
    proc = run_cli(["report", "--suite", "exotic"])
    assert proc.returncode == 2


def test_bad_lattice_selector_exit_2():
    proc = run_cli(["analyze", "A", "2", "--lattice", "weights"])
    assert proc.returncode == 2


def test_sublattices_b2_needs_rank_3():
    proc = run_cli(["sublattices", "B", "2"])
    assert proc.returncode == 2
    assert "rank >= 3" in proc.stderr


def test_sublattices_over_the_discriminant_cap_fails_before_building_a_datum(capsys, monkeypatch):
    # A datum of rank 10^6 would hold about 10^12 entries.
    real = lattice_tower.build_root_datum

    def small_only(spec):
        if spec.rank > 100:
            raise AssertionError(f"asked for a datum of rank {spec.rank}")
        return real(spec)

    monkeypatch.setattr(lattice_tower, "build_root_datum", small_only)
    assert main(["sublattices", "A", "1000000", "--format", "tsv"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "sublattices/A1000000\tfail\treason=discriminant group of order 1000001 exceeds the cap of 1000000\t"
    ]


@pytest.mark.parametrize("family,rank", [("D", 1000000), ("B", 1000000), ("A", 239), ("C", 101)])
def test_sublattices_over_the_rank_ceiling_is_a_usage_error_before_building_a_datum(capsys, monkeypatch, family, rank):
    # D1000000's discriminant group has order 4 and A239's 240: no cap on
    # the group stops them, and a D_n datum of rank 10^6 would not fit.
    real = lattice_tower.build_root_datum

    def small_only(spec):
        if spec.rank > 100:
            raise AssertionError(f"asked for a datum of rank {spec.rank}")
        return real(spec)

    monkeypatch.setattr(lattice_tower, "build_root_datum", small_only)
    assert main(["sublattices", family, str(rank)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rank {rank} > TOWER_MAX_RANK = {lattice_tower.TOWER_MAX_RANK}" in captured.err


def test_lemma_check_exit_0_and_rows(capsys):
    code = main(["lemma-check", "--max-rank", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["lemma/A1", "lemma/A2", "lemma/B2", "lemma/C2", "lemma/G2"]
    for c in doc["checks"]:
        assert c["values"] == {
            "sym2_inv": 1,
            "wedge2_inv": 0,
            "wedge2_doubled_inv": 1,
            "irreducible": 1,
        }


def test_lemma_check_max_rank_one_is_only_a1(capsys):
    code = main(["lemma-check", "--max-rank", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == ["lemma/A1"]


def test_json_tsv_value_parity(capsys):
    code_j = main(["sublattices", "A", "3", "--format", "json"])
    out_j = capsys.readouterr().out
    code_t = main(["sublattices", "A", "3", "--format", "tsv"])
    out_t = capsys.readouterr().out
    assert code_j == code_t == 0
    doc = json.loads(out_j)
    lines = out_t.rstrip("\n").split("\n")[1:]
    assert len(lines) == len(doc["checks"])
    for check, line in zip(doc["checks"], lines):
        name, status, values, citation = line.split("\t")
        assert name == check["name"]
        assert status == check["status"]
        rendered = ";".join(f"{k}={v}" for k, v in check["values"].items())
        assert values == rendered


def test_stdout_depends_on_argv_alone():
    # A cap of 5 read from the environment would skip W(A3), of order 24.
    for argv in (["analyze", "A", "3"], ["report", "--group-cap", "30", "--format", "tsv"]):
        plain = run_cli(argv)
        with_env = run_cli(argv, env_extra={"ROOTHK_GROUP_CAP": "5"})
        assert plain.returncode == with_env.returncode == 0
        assert with_env.stdout == plain.stdout


@pytest.mark.parametrize("argv", [["--group-cap", "0"], ["--group-cap", "-5"]], ids=["flag-0", "flag-minus-5"])
def test_invalid_caps_are_usage_errors(capsys, argv):
    for command in (["report"], ["analyze", "A", "2"]):
        assert main([*command, *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "roothk: error: cap must be positive\n")


def test_small_command_determinism():
    a = run_cli(["lemma-check", "--max-rank", "3", "--format", "json"])
    b = run_cli(["lemma-check", "--max-rank", "3", "--format", "json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_reports_have_no_floats():
    proc = run_cli(["sublattices", "B", "3", "--format", "json"])
    doc = json.loads(proc.stdout)

    def walk(x):
        assert not isinstance(x, float), f"float leaked into report: {x}"
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(doc)
    # Rational values are rendered as exact p/q strings.
    dual_row = next(c for c in doc["checks"] if c["name"] == "sublattices/B3/D3*")
    assert dual_row["values"]["gram_det"] == "1/4"


def test_e8_analyze_skips_freeness_quickly():
    proc = run_cli(["analyze", "E", "8", "--lattice", "root", "--format", "json"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    freeness = next(c for c in doc["checks"] if c["name"].endswith("freeness-codim"))
    assert freeness["status"] == "skipped"
    form = next(c for c in doc["checks"] if c["name"].endswith("symplectic-form-dim"))
    assert form["values"]["dim"] == 1


def test_analyze_over_generator_only_ceiling_exit_2():
    from roothk.hk_analysis import GENERATOR_ONLY_MAX_RANK

    proc = run_cli(["analyze", "A", str(GENERATOR_ONLY_MAX_RANK + 1)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"GENERATOR_ONLY_MAX_RANK = {GENERATOR_ONLY_MAX_RANK}" in proc.stderr


def test_lemma_check_over_generator_only_ceiling_exit_2():
    from roothk.hk_analysis import GENERATOR_ONLY_MAX_RANK

    proc = run_cli(["lemma-check", "--max-rank", str(GENERATOR_ONLY_MAX_RANK + 1)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"GENERATOR_ONLY_MAX_RANK = {GENERATOR_ONLY_MAX_RANK}" in proc.stderr


def test_group_cap_only_on_enumerating_subcommands():
    for argv in (["sublattices", "A", "3"], ["lemma-check", "--max-rank", "1"]):
        proc = run_cli([*argv, "--group-cap", "5"])
        assert proc.returncode == 2
        assert "--group-cap" in proc.stderr


# sha256 of the JSON stdout of `sublattices`.  The benchmark gate compares only
# check names and statuses, so a changed Gram determinant or rescaling class
# list would pass it; these pin every byte.
SUBLATTICES_JSON_SHA256 = {
    ("A", "15"): "d4356ce57ec7e62d4b6d3afb53be5bcd6ba66af175f4f441f07acaff5ef39162",
    ("A", "23"): "3ad06eecee09d26977c75a1cda13f65269d8acca7d7340254f99a688a3eff342",
    ("B", "10"): "f0eb6b4554cfc1357caa32f264c16cc8b7b733dbd95dcd634e1ee522c2f45f9a",
    ("D", "8"): "0150b62a8a8b5d2188a018fff124fee2d23b0968c105f5bc2d5cf3ded8f3a779",
    ("F", "4"): "df948156ed5f0bd64b5d2140e728a748976508be038b575d6504db803a9e9293",
    ("G", "2"): "1ea2d193ab3e892eb628a562ef8a4f407e672ee8f40b34c3e8238e4a80f3d339",
    ("C", "5"): "3c5524f11e296c475788d909fcdb53e8a42add308448542409e8fbeb9844e576",
    # E6 and E7: simple roots with denominator 2.
    ("E", "6"): "496b0a48f41bd483241edd35f54453345102f83840378ffe51c052da1217fa17",
    ("E", "7"): "f2832f862b716c3c32248a38b6a831e31d28ebd7af616c97dbefaa86ef8e4500",
}


@pytest.mark.parametrize("family,rank", sorted(SUBLATTICES_JSON_SHA256))
def test_sublattices_stdout_pinned(capsys, family, rank):
    assert main(["sublattices", family, rank]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUBLATTICES_JSON_SHA256[family, rank]


# sha256 of the stdout of `report --suite default`, derived from the commit
# before the report streamed its freeness rows.
REPORT_SHA256 = {
    "json": "58b6c2bcefcf23d4fe4d61b03e5991da2ac9b8bd3507de6837e4aaf6c8b5dae8",
    "tsv": "bddfda8cabd153a8178915c15da0153513fa70dc7f5126db255c086ed393b078",
}


@pytest.mark.parametrize("fmt", sorted(REPORT_SHA256))
def test_report_stdout_pinned(capsys, fmt):
    assert main(["report", "--suite", "default", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[fmt]


# sha256 of the JSON stdout of the generator-only commands (invariant
# dimensions, commutant and form from the simple reflections alone), derived
# from the commit before their linear systems became sparse (A 24: before the
# generator images held their moved rows only).
GENERATOR_ONLY_SHA256 = {
    ("analyze", "A", "12", "--lattice", "dual"): "dae61270056c9af47e5027ba77f804e0bf5f4800fb3a9ad789108c6a128e111f",
    ("analyze", "A", "14", "--lattice", "dual"): "4639eeec268242850a70e452b8772b9e0268d7e71dd0da89412e77cd8fa4fa24",
    ("analyze", "A", "16", "--lattice", "dual"): "3f4cf84858a7ea4b2c2b87e2739bceee550bcb902f51b49e140c7069c3cef7ce",
    ("analyze", "A", "24", "--lattice", "dual"): "44dd5fd7aa53122c3518ea285f43def54d3fce7f4f52a2cbc527922a327ab664",
    # One label of the D24 tower; classifying that tower takes seconds of isometry search.
    ("analyze", "D", "24", "--lattice", "index:1"): "483caaff86a982e32de3b72cfffa046f2e8dc50af09281985f27a9086c0f06a8",
    ("lemma-check",): "30aebacf7219c4e19e09dae6f22f85f83e7f4dc3f9910bf087bb1fefbaae9d6d",
}


@pytest.mark.parametrize("argv", sorted(GENERATOR_ONLY_SHA256), ids=" ".join)
def test_generator_only_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATOR_ONLY_SHA256[argv]


# sha256 of the JSON stdout of `analyze` where it stores W, derived from the
# commit before the group was enumerated down the parabolic coset chain.
STORED_GROUP_SHA256 = {
    ("analyze", "E", "6"): "097e76c95a93311d9b5bfc707527d3ede0a2779870d7c9def653cdaa12792934",
    ("analyze", "F", "4"): "5893309362d3d99275df508d0f774fb464d52c753af0ec5b103115e6aa84872f",
    ("analyze", "E", "7"): "757076b0c21b95fd18df4597d9eca9ed4aa658ddf64972e9241ee5d853080442",
}


@pytest.mark.parametrize("argv", sorted(STORED_GROUP_SHA256), ids=" ".join)
def test_stored_group_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STORED_GROUP_SHA256[argv]


def test_report_under_a_small_cap_skips_the_large_groups(capsys):
    # W(A3) has 24 elements: over a cap of 10 its freeness and fixed-locus
    # rows are skipped, and W(B2), of 8, is still enumerated.
    assert main(["report", "--group-cap", "10"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    skipped = {"order": 24, "reason": "order exceeds cap 10"}
    assert checks["freeness/A3"]["status"] == checks["fixed-locus/A3"]["status"] == "skipped"
    assert checks["freeness/A3"]["values"] == checks["fixed-locus/A3"]["values"] == skipped
    assert checks["fixed-locus/B2"]["status"] == "pass"


def test_sublattices_a35_recognizes_unimodular_non_cube(capsys):
    # A35+[6] is unimodular but has no norm-1 vectors, so it is not Z^35;
    # the count-first isometry test settles this at norm bound 1.
    assert main(["sublattices", "A", "35"]) == 0
    checks = {c["name"]: c["values"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["sublattices/A35/count"]["lattices"] == 9
    assert checks["sublattices/A35/A35+[6]"]["gram_det"] == 1
    assert not any(name.startswith("sublattices/A35/Z^") for name in checks)
    assert checks["sublattices/A35/rescaling-classes"]["inconclusive_pairs"] == 0


# Runs main(argv) in a fresh interpreter, then prints whether numpy is loaded.
NUMPY_PROBE = """
import contextlib, io, sys
from roothk.cli import main

if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        ((), False),
        (("analyze", "A", "12", "--lattice", "dual"), False),
        (("sublattices", "B", "3"), False),
        (("sublattices", "D", "4"), False),
        (("lemma-check",), False),
        (("analyze", "A", "3"), True),  # enumerates W
        (("report", "--suite", "default"), True),  # enumerates W
    ],
    ids=lambda v: " ".join(v) or "import" if isinstance(v, tuple) else str(v),
)
def test_numpy_loaded_only_where_w_is_enumerated(argv, loads_numpy):
    proc = run_python(["-c", NUMPY_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loads_numpy}\n"


# Runs main(argv) in a fresh interpreter, then prints which of the modules
# that dataclasses or fractions would pull in are loaded.
IMPORT_PROBE = """
import contextlib, io, sys
from roothk.cli import main

if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(sorted({"dataclasses", "inspect", "fractions", "decimal", "numbers"} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("sublattices", "A", "23"),
        ("sublattices", "D", "8"),  # runs the greedy reduction of the isometry search
        ("analyze", "A", "12", "--lattice", "dual"),
    ],
    ids=lambda v: " ".join(v) or "import",
)
def test_no_dataclasses_in_the_import_graph(argv):
    proc = run_python(["-c", IMPORT_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [("sublattices", "B", "3"), ("report", "--group-cap", "30")])
def test_main_leaves_the_gc_freeze_count_as_it_found_it(argv, capsys):
    # The exit-time freeze belongs to ``python -m roothk.cli`` alone: a caller
    # of main(), such as the benchmark's traced pass, keeps a collectable heap.
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(list(argv)) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


ENTRY_PROBE = """
import atexit, gc, importlib, runpy, sys
atexit.register(lambda: print(f"freeze count {gc.get_freeze_count()}", file=sys.stderr))
target, sys.argv = sys.argv[1], ["roothk", *sys.argv[2:]]
if target == "-m":
    runpy.run_module("roothk.cli", run_name="__main__")
else:
    module, name = target.split(":")
    sys.exit(getattr(importlib.import_module(module), name)())
"""


def test_console_script_and_module_freeze_before_exit():
    # The installed ``roothk`` script calls its target as ``sys.exit(target())``.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    script = pyproject["project"]["scripts"]["roothk"]
    assert script == "roothk.cli:run"
    for target in (script, "-m"):
        proc = run_python(["-c", ENTRY_PROBE, target, "sublattices", "B", "3"])
        assert proc.returncode == 0, proc.stderr
        assert int(re.search(r"freeze count (\d+)", proc.stderr).group(1)) > 0


GC_PROBE = """
import gc, sys
import roothk.cli as cli
collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info["generation"]))
main = cli.main
def probed():
    print(f"collecting in main {gc.isenabled()}", file=sys.stderr)
    return main()
cli.main = probed
sys.argv = ["roothk", *sys.argv[1:]]
code = cli.run()
print(f"collections {len(collections)}", file=sys.stderr)
sys.exit(code)
"""


def test_run_turns_automatic_collection_off_for_main():
    # Under ``run`` the command allocates with the collector off: no
    # generational collection starts while it runs, where main() alone, in
    # this process, leaves the collector as it found it.
    assert gc.isenabled()
    proc = run_python(["-c", GC_PROBE, "sublattices", "B", "3"])
    assert proc.returncode == 0, proc.stderr
    assert "collecting in main False" in proc.stderr
    assert "collections 0" in proc.stderr


def test_report_never_builds_a_group_over_the_cap(monkeypatch):
    from roothk.root_data import standard_table
    from roothk.weyl import DEFAULT_GROUP_CAP, generate_group, group_order_formula

    built = []

    def record(datum):
        built.append(datum.spec)
        # Fail here rather than run a freeness pass over W(E8).
        assert group_order_formula(datum.spec) <= DEFAULT_GROUP_CAP, f"{datum.label} built over the cap"
        return generate_group(datum)

    monkeypatch.setattr(cli, "generate_group", record)
    cli.cmd_report("default", DEFAULT_GROUP_CAP)
    assert "E8" not in {spec.label for spec in built}
    assert set(built) == {spec for spec in standard_table() if group_order_formula(spec) <= DEFAULT_GROUP_CAP}


def test_root_count_is_asserted_where_the_roots_are_read(monkeypatch):
    from roothk import root_data
    from roothk.hk_analysis import freeness_codim_check
    from roothk.weyl import generate_group

    # The freeness pass compares its reflections with the closed-form count.
    monkeypatch.setitem(root_data._ROOT_COUNT, "A", lambda n: n * (n + 1) + 2)
    datum = root_data.build_root_datum(root_data.RootSystemSpec("A", 2))
    with pytest.raises(AssertionError, match="found 3 reflections, expected 4 positive roots"):
        freeness_codim_check(generate_group(datum))


def test_report_stderr_is_one_timing_line(capsys):
    assert main(["report", "--format", "tsv"]) == 0
    assert re.fullmatch(r"roothk: report finished in \d+ ms\n", capsys.readouterr().err)


def test_report_runs_in_the_calling_process(capsys, monkeypatch):
    def no_fork():
        raise AssertionError("report forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256["json"]


def test_only_sublattices_classifies_a_tower_up_to_rescaling(capsys, monkeypatch):
    # report and analyze --lattice index:k read a tower's labels and sizes;
    # only sublattices prints its rescaling classes, so only it searches.
    def no_classification(*args):
        raise AssertionError("a tower was classified up to rescaling")

    monkeypatch.setattr(lattice_tower, "_isometry_search", no_classification)
    monkeypatch.setattr(lattice_tower, "classify_up_to_rescaling", no_classification)
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256["json"]
    assert main(["analyze", "D", "6", "--lattice", "index:1"]) == 0
    # D6's half-spin lattices reach the search, so the patch is live.
    with pytest.raises(AssertionError, match="classified up to rescaling"):
        main(["sublattices", "D", "6"])


def test_report_raises_an_assertion_from_the_freeness_pass(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("boom")

    monkeypatch.setattr(cli, "freeness_codim_check", boom)
    with pytest.raises(AssertionError, match="boom"):
        main(["report"])


def test_report_error_in_the_freeness_pass_exits_1(capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise DiscriminantTooLargeError(4096, 2048)

    monkeypatch.setattr(cli, "freeness_codim_check", too_large)
    assert main(["report"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "discriminant group of order 4096 exceeds the cap of 2048" in captured.err
