"""Exit-code contract, file artifacts and determinism of the CLI."""

import io
import json
import os
import subprocess
import sys

import pytest

from liesym import cli, names
from liesym.cli import (
    CSV_HEADER,
    EXIT_CHECK,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_POLE,
    EXIT_USAGE,
    main,
)


def run_cli(*argv):
    buf = io.StringIO()
    try:
        code = main(list(argv), stdout=buf)
    except SystemExit as exc:
        code = exc.code
    return code, buf.getvalue()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


PERTURBED = {
    "vars": ["x"],
    "basis": [["1"], ["x"], ["x^2"]],
    "times": ["t1", "t2"],
    "coeffs": [["1", "2"], ["1/2", "1"], ["-1/3", "-1/6"]],
}


def test_list_covers_every_entry():
    code, out = run_cli("list")
    assert code == EXIT_OK
    for n in names():
        assert n in out
    assert " ode " in out and " pde " in out


def test_show_prints_basis_tensor_and_families():
    code, out = run_cli("show", "riccati")
    assert code == EXIT_OK
    assert "coeffs: @eta(t), 0, 1" in out
    assert "StructureTensor(r=3, c121=1, c132=2, c233=1)" in out
    assert "drift_rescaling" in out


def test_check_algebra_status_lines():
    code, out = run_cli("check-algebra", "--catalog", "riccati")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "closed, r=3, jacobi=0, center=0"
    code, out = run_cli("check-algebra", "--catalog", "painleve_ince")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "closed, r=8, jacobi=0, center=0"


def test_check_algebra_extracts_the_tensor_once(monkeypatch):
    import liesym.cli
    import liesym.liealg

    calls = []
    real = liesym.liealg.extract_structure_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(liesym.liealg, "extract_structure_constants", counting)
    monkeypatch.setattr(liesym.cli, "extract_structure_constants", counting,
                        raising=False)
    code, out = run_cli("check-algebra", "--catalog", "riccati")
    assert code == EXIT_OK and "extraction: exact" in out
    assert len(calls) == 1


def test_tuple_parameters_split_on_commas(tmp_path):
    code, out = run_cli("show", "dbh", "--param", "alpha=1,2,3")
    assert code == EXIT_OK and "name: dbh" in out
    code, _ = run_cli("pde", "--catalog", "partial_riccati",
                      "--param", "times=t1,t2,t3", "--x0", "0.2",
                      "--out", str(tmp_path / "p.csv"),
                      "--report", str(tmp_path / "p.json"))
    assert code == EXIT_OK


def test_check_algebra_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert run_cli("check-algebra", "--input", str(bad))[0] == EXIT_PARSE
    notclosed = write_json(tmp_path / "nc.json", {
        "vars": ["x"], "basis": [["1"], ["x^2"]], "coeffs": ["1", "1"]})
    assert run_cli("check-algebra", "--input", notclosed)[0] == EXIT_CHECK
    assert run_cli("check-algebra", "--catalog", "nope")[0] == EXIT_USAGE
    assert run_cli("check-algebra")[0] == EXIT_USAGE


def test_check_algebra_accepts_opaque_coefficients(tmp_path):
    doc = {"vars": ["x"], "basis": [["1"], ["x"]],
           "coeffs": ["@mu(t)", "1 - t"]}
    code, out = run_cli("check-algebra", "--input",
                        write_json(tmp_path / "sys.json", doc))
    assert code == EXIT_OK
    assert "closed, r=2" in out


def test_check_algebra_accepts_primed_opaque_profiles(tmp_path):
    doc = {"vars": ["x"], "basis": [["1"], ["x"], ["x^2"]],
           "coeffs": ["@eta'(t)", "0", "1"], "gauge_b0": "0"}
    code, out = run_cli("check-algebra", "--input",
                        write_json(tmp_path / "sys.json", doc))
    assert code == EXIT_OK
    assert "closed, r=3" in out


def test_symmetrize_checks_f_init_before_building(monkeypatch):
    import liesym.cli

    def refuse(sysobj):
        raise AssertionError("symmetry system built before the f-init check")

    monkeypatch.setattr(liesym.cli, "build_symmetry_system", refuse)
    assert run_cli("symmetrize", "--catalog", "painleve_ince",
                   "--f-init", "1,2")[0] == EXIT_USAGE


def test_symmetrize_triple_system(tmp_path):
    out_csv = tmp_path / "s.csv"
    code, out = run_cli("symmetrize", "--catalog", "dbh",
                        "--f-init", "0,1,0,0", "--out", str(out_csv))
    assert code == EXIT_OK
    assert "PASS" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "t,f0,f1,f2,f3,err_est"
    assert len(lines) == 2 + 1001
    gp = out_csv.with_suffix(".csv.gp")
    assert gp.exists() and "s.csv" in gp.read_text()


def test_symmetrize_linear_coefficient_regime(tmp_path):
    code, out = run_cli("symmetrize", "--catalog", "riccati",
                        "--param", "eta=t", "--f-init", "1,0,0,0",
                        "--out", str(tmp_path / "r.csv"))
    assert code == EXIT_OK and "PASS" in out


def test_symmetrize_usage_errors(tmp_path):
    assert run_cli("symmetrize", "--catalog", "riccati",
                   "--step", "0")[0] == EXIT_USAGE
    assert run_cli("symmetrize", "--catalog", "riccati",
                   "--f-init", "1,0")[0] == EXIT_USAGE
    pde_doc = write_json(tmp_path / "p.json", PERTURBED)
    assert run_cli("symmetrize", "--input", pde_doc)[0] == EXIT_USAGE


def test_opaque_profile_without_value_is_usage(tmp_path, capsys):
    for cmd in (("symmetrize", "--catalog", "riccati"),
                ("integrate", "--catalog", "sl2_generic")):
        capsys.readouterr()
        code, _ = run_cli(*cmd, "--out", str(tmp_path / "o.csv"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, cmd
        assert err.startswith("liesym: error: ") and err.count("\n") == 1, err


def test_symmetrize_gauge_override(tmp_path):
    code, out = run_cli("symmetrize", "--catalog", "dbh", "--b0", "2",
                        "--f-init", "1,1,1,1", "--out",
                        str(tmp_path / "g.csv"))
    assert code == EXIT_OK and "PASS" in out


def test_verify_family_and_file(tmp_path):
    assert run_cli("verify", "--catalog", "dbh",
                   "--family", "b0_zero")[0] == EXIT_OK
    cand = write_json(tmp_path / "c.json",
                      {"time": "t", "f": ["1", "t", "0", "1"]})
    code, out = run_cli("verify", "--catalog", "riccati",
                        "--param", "eta=t", "--candidate", cand)
    assert code == EXIT_OK and "exact=True" in out


def test_verify_flags_a_non_symmetry(tmp_path):
    cand = write_json(tmp_path / "c.json",
                      {"time": "t", "f": ["0", "1", "0", "0"]})
    code, out = run_cli("verify", "--catalog", "riccati",
                        "--param", "eta=t", "--candidate", cand)
    assert code == EXIT_CHECK and "FAIL" in out


def test_sampled_checks_do_not_load_numpy_random(tmp_path, seeded_cli_env):
    cand = write_json(tmp_path / "c.json",
                      {"time": "t", "f": ["0", "1", "0", "0"]})
    script = (
        "import io, sys\n"
        "from liesym import PDESymmetryCandidate as C, make, pde_symmetry_residual\n"
        "from liesym.cli import main\n"
        "out = io.StringIO()\n"
        "argv = ['verify', '--catalog', 'riccati', '--param', 'eta=t',\n"
        f"        '--candidate', {cand!r}]\n"
        "assert main(argv, stdout=out) == 1 and 'exact=False' in out.getvalue()\n"
        "rep = pde_symmetry_residual(C.closed([1, 0, 0]),\n"
        "                            make('partial_riccati').system)\n"
        "assert not rep.exact and rep.npoints > 0\n"
        "assert 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], env=seeded_cli_env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


@pytest.mark.parametrize("f", [["1", "t", "0"], ["1", "t", "0", "1", "0"]])
def test_verify_candidate_of_the_wrong_size_is_usage(tmp_path, capsys, f):
    cand = write_json(tmp_path / "c.json", {"time": "t", "f": f})
    code, out = run_cli("verify", "--catalog", "riccati",
                        "--param", "eta=t", "--candidate", cand)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, out
    assert err.startswith("liesym: error: ") and err.count("\n") == 1, err
    assert "coefficient functions, the algebra has 3" in err


def test_verify_candidate_in_another_time_symbol_is_usage(tmp_path, capsys):
    # its s read as a constant, so this non-symmetry passed exactly
    f = [0] * 6 + ["s", 0, 0]
    cand = write_json(tmp_path / "c.json", {"time": "s", "f": f})
    code, out = run_cli("verify", "--catalog", "painleve_ince",
                        "--candidate", cand)
    assert code == EXIT_USAGE, out
    assert capsys.readouterr().err == (
        "liesym: error: candidate over times ('s',), system has ('t',)\n")
    f[6] = "t"
    cand = write_json(tmp_path / "c.json", {"time": "t", "f": f})
    code, out = run_cli("verify", "--catalog", "painleve_ince",
                        "--candidate", cand)
    assert code == EXIT_CHECK and out.endswith(": FAIL\n"), out


def test_param_profile_reads_opaque_names_as_documents_do():
    code, out = run_cli("show", "riccati", "--param", "eta=@eta(t)")
    assert code == EXIT_OK
    assert out == run_cli("show", "riccati")[1]


def test_unknown_catalog_parameter_is_usage(capsys):
    code, _ = run_cli("check-algebra", "--catalog", "painleve_ince",
                      "--param", "foo=1")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "liesym: error: painleve_ince does not take 'foo'; "
        "it accepts none\n")


@pytest.mark.parametrize("coeffs", ["123", "1,2,3"])
def test_partial_riccati_string_coeffs_are_usage(capsys, coeffs):
    code, out = run_cli("show", "partial_riccati", "--param", f"coeffs={coeffs}",
                        "--param", "times=t1")
    assert (code, out) == (EXIT_USAGE, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("liesym: error: partial_riccati")


def test_verify_usage(tmp_path):
    assert run_cli("verify", "--catalog", "dbh")[0] == EXIT_USAGE
    assert run_cli("verify", "--catalog", "dbh",
                   "--family", "nope")[0] == EXIT_USAGE


def test_verify_pde_family():
    assert run_cli("verify", "--catalog", "partial_riccati",
                   "--family", "proportional_direction")[0] == EXIT_OK


def test_integrate_writes_trajectory(tmp_path):
    out_csv = tmp_path / "i.csv"
    code, out = run_cli("integrate", "--catalog", "riccati",
                        "--param", "eta=t", "--x0", "0",
                        "--out", str(out_csv))
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "t,x,err_est"


def test_integrate_pole_exit(tmp_path):
    code, _ = run_cli("integrate", "--catalog", "riccati",
                      "--param", "eta=1", "--x0", "0",
                      "--t-span", "0:2", "--out", str(tmp_path / "p.csv"))
    assert code == EXIT_POLE


def test_integrate_overflowing_power_is_pole(tmp_path, capsys):
    src = write_json(tmp_path / "pow.json", {
        "vars": ["x"], "basis": [["x^200"]], "coeffs": ["1"]})
    code, _ = run_cli("integrate", "--input", src, "--x0=100",
                      "--t-span", "0:1", "--out", str(tmp_path / "o.csv"))
    assert code == EXIT_POLE
    assert "right-hand side exceeded 1e+12 at t=0" in capsys.readouterr().err


@pytest.mark.parametrize("span", ["0:nan", "0:inf", "nan:1"])
def test_integrate_non_finite_t_span_is_usage(tmp_path, span):
    code, out = run_cli("integrate", "--catalog", "riccati",
                        "--param", "eta=1", "--x0=0.1", "--t-span", span,
                        "--out", str(tmp_path / "o.csv"))
    assert code == EXIT_USAGE
    assert not (tmp_path / "o.csv").exists()


def test_integrate_non_finite_x0_is_usage(tmp_path):
    code, _ = run_cli("integrate", "--catalog", "riccati",
                      "--param", "eta=1", "--x0=nan",
                      "--out", str(tmp_path / "o.csv"))
    assert code == EXIT_USAGE


NON_SYMMETRY = {"time": "t", "f": ["0", "1", "0", "0"]}


@pytest.mark.parametrize("argv", [
    # residual near 4: an infinite tolerance would pass it
    ["verify", "--catalog", "riccati", "--param", "eta=t",
     "--candidate", "CANDIDATE", "--tol", "inf"],
    # exact symmetry and flat system: a NaN tolerance would fail them
    ["verify", "--catalog", "dbh", "--family", "b0_zero", "--tol", "nan"],
    ["pde", "--catalog", "partial_riccati", "--x0", "0.2",
     "--agree-tol", "nan"],
    ["pde", "--catalog", "partial_riccati", "--x0", "0.2", "--tol", "nan"],
])
def test_tolerance_must_be_finite_and_positive(tmp_path, monkeypatch, capsys,
                                               argv):
    monkeypatch.chdir(tmp_path)
    cand = write_json(tmp_path / "c.json", NON_SYMMETRY)
    code, out = run_cli(*[cand if a == "CANDIDATE" else a for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, out
    assert err == (f"liesym {argv[0]}: error: argument {argv[-2]}: "
                   f"must be finite and positive, got {argv[-1]}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("bad", [["--step", "inf"], ["--t-span", "1:1"]])
def test_infinite_step_and_empty_span_are_usage(tmp_path, capsys, bad):
    code, _ = run_cli("integrate", "--catalog", "riccati", "--param", "eta=1",
                      "--out", str(tmp_path / "o.csv"), *bad)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "error: " in err and err.count("\n") == 1, err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [
    ["integrate", "--catalog", "riccati", "--param", "eta=1", "--tol", "1e-6"],
    ["integrate", "--catalog", "riccati", "--param", "eta=1", "--seed", "1"],
    ["pde", "--catalog", "partial_riccati", "--x0", "0.2", "--seed", "1"],
])
def test_options_a_subcommand_does_not_read_are_usage(tmp_path, monkeypatch,
                                                      capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(*argv)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"liesym: error: unrecognized arguments: {' '.join(argv[-2:])}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_pde_non_finite_waypoint_is_usage(tmp_path, bad):
    # Python's json reads NaN and Infinity
    path = tmp_path / "path.json"
    path.write_text('{"waypoints": [[0, 0], [1, %s]]}' % bad)
    code, _ = run_cli("pde", "--catalog", "partial_riccati", "--x0", "0.2",
                      "--path", str(path), "--out", str(tmp_path / "p.csv"))
    assert code == EXIT_USAGE


def test_pde_waypoint_past_the_float_range_is_parse_error(tmp_path, capsys):
    # a 401-digit JSON integer raised OverflowError in float()
    path = tmp_path / "path.json"
    path.write_text('{"waypoints": [[0, 0], [1, 1%s]]}' % ("0" * 400))
    code, _ = run_cli("pde", "--catalog", "partial_riccati", "--x0", "0.2",
                      "--path", str(path), "--out", str(tmp_path / "p.csv"))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith("liesym: error: bad path document: ") and \
        err.count("\n") == 1, err


def test_pde_flat_default(tmp_path):
    rep = tmp_path / "r.json"
    code, out = run_cli("pde", "--catalog", "partial_riccati",
                        "--x0", "0.2", "--out", str(tmp_path / "p.csv"),
                        "--report", str(rep))
    assert code == EXIT_OK
    doc = json.loads(rep.read_text())
    assert doc["integrable"] is True
    assert doc["endpoint_gap"] <= 1e-6
    assert doc["curvature"]["exact"] is True
    assert doc["built_curvature"]["max_abs"] == 0.0


def test_pde_computes_each_curvature_once(monkeypatch, tmp_path):
    import liesym.cli
    import liesym.pdesys

    calls = []
    real = liesym.pdesys.curvature_residual

    def counting(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(liesym.pdesys, "curvature_residual", counting)
    assert not hasattr(liesym.cli, "curvature_residual")
    code, _ = run_cli("pde", "--catalog", "partial_riccati",
                      "--out", str(tmp_path / "p.csv"),
                      "--report", str(tmp_path / "p.json"))
    assert code == EXIT_OK
    # the source and then the built system, both in the builder
    assert len(calls) == 2
    assert calls[1].name.startswith("symmetry-system")


def test_pde_perturbed_reports_and_fails(tmp_path):
    src = write_json(tmp_path / "pert.json", PERTURBED)
    rep = tmp_path / "r.json"
    code, out = run_cli("pde", "--input", src, "--x0", "0.2",
                        "--out", str(tmp_path / "p.csv"),
                        "--report", str(rep))
    assert code == EXIT_CHECK
    doc = json.loads(rep.read_text())  # report emitted despite failure
    assert doc["integrable"] is False
    assert doc["endpoint_gap"] >= 1e-3
    assert doc["built_curvature"] is None
    assert doc["exit"] == EXIT_CHECK


def test_pde_refuses_single_time(tmp_path):
    doc = {"vars": ["x"], "basis": [["1"], ["x"], ["x^2"]],
           "times": ["t1"], "coeffs": [["1"], ["0"], ["1"]]}
    src = write_json(tmp_path / "one.json", doc)
    code, _ = run_cli("pde", "--input", src)
    assert code == EXIT_USAGE


def test_pde_custom_path_versus_chord(tmp_path):
    path = write_json(tmp_path / "path.json",
                      {"waypoints": [[0, 0], [1, 0], [1, 1]], "steps": 100})
    rep = tmp_path / "r.json"
    code, _ = run_cli("pde", "--catalog", "partial_riccati", "--x0", "0.2",
                      "--path", path, "--out", str(tmp_path / "p.csv"),
                      "--report", str(rep))
    assert code == EXIT_OK
    assert json.loads(rep.read_text())["endpoint_gap"] <= 1e-6


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")])
def test_negative_seed_is_usage(tmp_path, monkeypatch, capsys, flag, env):
    # the seed is checked before any artifact is written
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LIESYM_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("LIESYM_SEED", env)
    code, _ = run_cli("symmetrize", "--catalog", "dbh", "--f-init", "0,1,0,0",
                      "--out", "s.csv", *flag)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "non-negative" in err and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_is_usage():
    assert run_cli("bogus")[0] == EXIT_USAGE


@pytest.mark.parametrize("cmd", [
    ("symmetrize", "--catalog", "dbh", "--b0", "t^\u00b2"),
    ("integrate", "--catalog", "riccati", "--param", "eta=t^\u00b2"),
])
def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys, cmd):
    # the superscript two satisfies str.isdigit() but is no ASCII digit:
    # one line on stderr and exit 2, no traceback
    code, _ = run_cli(*cmd, "--out", str(tmp_path / "o.csv"))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith("liesym: error: ") and err.count("\n") == 1, err


SYSTEM = {"vars": ["x"], "basis": [["1"], ["x"], ["x^2"]],
          "coeffs": ["t", "0", "1"]}
MULTI = {"vars": ["x"], "basis": [["1"], ["x"], ["x^2"]],
         "times": ["s", "t"], "coeffs": [["1", "2"], ["0", "0"], ["1", "2"]]}


# a string where an array belongs is refused, not split into characters
# ("x" would read as ["x"], "t01" as ["t", "0", "1"], "st" as ["s", "t"])
@pytest.mark.parametrize("key, doc", [
    ("vars", dict(SYSTEM, vars="x")),
    ("basis", dict(SYSTEM, basis="1")),
    ("each basis row", dict(SYSTEM, basis=[["1"], "x", ["x^2"]])),
    ("coeffs", dict(SYSTEM, coeffs="t01")),
    ("times", dict(MULTI, times="st")),
    ("each coeffs row", dict(MULTI, coeffs=[["1", "2"], "00", ["1", "2"]])),
])
def test_system_document_needs_arrays(tmp_path, capsys, key, doc):
    code, _ = run_cli("check-algebra", "--input",
                      write_json(tmp_path / "sys.json", doc))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith(f"liesym: error: {key} must be a JSON array"), err


@pytest.mark.parametrize("key, cmd, doc", [
    ("f", ("--catalog", "riccati", "--param", "eta=t"),
     {"time": "t", "f": "1000"}),
    ("times", ("--catalog", "partial_riccati"),
     {"times": "ab", "f": ["1", "0", "0"]}),
])
def test_candidate_document_needs_arrays(tmp_path, capsys, key, cmd, doc):
    code, _ = run_cli("verify", *cmd, "--candidate",
                      write_json(tmp_path / "c.json", doc))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith(f"liesym: error: {key} must be a JSON array"), err


# a number where a name belongs is refused, not made a coordinate name
# (a "time" of 5 wrote the CSV header 5,x,err_est)
@pytest.mark.parametrize("key, argv, doc", [
    ("time", ("integrate", "--x0", "0.5", "--input"), dict(SYSTEM, time=5)),
    ("name", ("check-algebra", "--input"), dict(SYSTEM, name=5)),
    ("time", ("verify", "--catalog", "riccati", "--param", "eta=t",
              "--candidate"), {"time": 7, "f": ["1", "0", "0", "0"]}),
    ("each vars entry", ("check-algebra", "--input"), dict(SYSTEM, vars=[7])),
    ("each times entry", ("pde", "--input"), dict(MULTI, times=[5, 6])),
    ("each times entry", ("verify", "--catalog", "partial_riccati",
                          "--candidate"), {"times": [5, 6], "f": [1, 0, 0]}),
])
def test_documents_need_string_names(tmp_path, monkeypatch, capsys, key, argv,
                                     doc):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(*argv, write_json(tmp_path / "doc.json", doc))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith(f"liesym: error: {key} must be a JSON string"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


# a name that is not one identifier is refused: a "time" of "t,u" wrote the
# CSV header t,u,x,err_est over 3-column rows
@pytest.mark.parametrize("key, argv, doc", [
    ("time", ("integrate", "--x0", "0.5", "--input"), dict(SYSTEM, time="t,u")),
    ("time", ("symmetrize", "--input"), dict(SYSTEM, time=" t")),
    ("each vars entry", ("check-algebra", "--input"), dict(SYSTEM, vars=["x y"])),
    ("each times entry", ("pde", "--input"), dict(MULTI, times=["s", "t,u"])),
    ("time", ("verify", "--catalog", "riccati", "--param", "eta=t",
              "--candidate"), {"time": "1t", "f": ["1", "0", "0", "0"]}),
    ("each times entry", ("verify", "--catalog", "partial_riccati",
                          "--candidate"), {"times": ["t1", ""], "f": [1, 0, 0]}),
])
def test_documents_need_identifier_names(tmp_path, monkeypatch, capsys, key,
                                         argv, doc):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(*argv, write_json(tmp_path / "doc.json", doc))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith(f"liesym: error: {key} must be one identifier"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


@pytest.mark.parametrize("times", ["1,2", "", "t1,t 2"])
def test_param_times_must_be_identifiers(capsys, times):
    code, out = run_cli("show", "partial_riccati", "--param", f"times={times}")
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("liesym: error: time and state names must be "
                          "identifiers") and err.count("\n") == 1, err


# a derivative past the end of a formal @name chain is a usage error, as a
# value of an opaque profile is, and not a traceback
@pytest.mark.parametrize("argv, doc", [
    (("verify", "--catalog", "dbh", "--candidate"),
     {"time": "t", "f": ["@g'''(t)", "0", "0", "0"]}),
    (("symmetrize", "--input"), dict(SYSTEM, coeffs=["@e'''(t)", "0", "1"])),
    (("pde", "--input"),
     dict(MULTI, times=["t1", "t2"],
          coeffs=[["@e'''(t2)", "1"], ["0", "0"], ["0", "0"]])),
], ids=["verify", "symmetrize", "pde"])
def test_missing_opaque_derivative_is_usage(tmp_path, monkeypatch, capsys,
                                            argv, doc):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(*argv, write_json(tmp_path / "doc.json", doc))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("liesym: error: ") and err.count("\n") == 1, err
    assert "has no derivative leaf" in err


def test_main_builds_its_parser_once(monkeypatch):
    cli._build_parser.cache_clear()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "show",
                        lambda args, out: seen.append(args.param) or EXIT_OK)
    for argv in (["show", "riccati", "--param", "eta=t"], ["show", "riccati"],
                 ["show", "dbh", "--param", "alpha=1,2,3"]):
        assert run_cli(*argv)[0] == EXIT_OK
    assert cli._build_parser.cache_info().misses == 1
    # a --param of one call is not left in the next call's default
    assert seen == [[("eta", "t")], [], [("alpha", "1,2,3")]]


@pytest.mark.parametrize("key, doc", [
    ("waypoints", {"waypoints": "01"}),
    ("each waypoint", {"waypoints": [[0, 0], "11"]}),
    ("steps", {"waypoints": [[0, 0], [1, 1]], "steps": 2.7}),
    ("steps", {"waypoints": [[0, 0], [1, 1]], "steps": True}),
    ("steps", {"waypoints": [[0, 0], [1, 1]], "steps": "200"}),
    # float() read "0" and true as numbers
    ("each waypoint entry", {"waypoints": [["0", "0"], [True, 1]]}),
    ("each waypoint entry", {"waypoints": [[0, 0], [True, 1]]}),
])
def test_path_document_needs_arrays_and_integer_steps(tmp_path, capsys, key,
                                                      doc):
    code, _ = run_cli("pde", "--catalog", "partial_riccati", "--x0", "0.2",
                      "--path", write_json(tmp_path / "path.json", doc),
                      "--out", str(tmp_path / "p.csv"),
                      "--report", str(tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith(f"liesym: error: {key} must be a JSON "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["path.json"]


GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.txt")


def test_list_show_and_check_algebra_match_the_golden_text():
    """The exact stdout of list, and of show and check-algebra for every
    entry: Fractions and normal-form strings, the same on every platform.
    Each command line in the file is preceded by "$ liesym"."""
    argvs = [["list"]]
    for n in names():
        argvs += [["show", n], ["check-algebra", "--catalog", n]]
    got = []
    for argv in argvs:
        code, out = run_cli(*argv)
        assert code == EXIT_OK, argv
        got += ["$ liesym " + " ".join(argv)] + out.splitlines()
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    for i, (a, b) in enumerate(zip(got, want), start=1):
        assert a == b, f"line {i} of {os.path.basename(GOLDEN)}"
    assert len(got) == len(want)


def _run_suite(cwd, env):
    outputs = []
    cmds = [
        ["list"],
        ["check-algebra", "--catalog", "kummer_schwarz"],
        ["symmetrize", "--catalog", "dbh", "--f-init", "0,1,0,0",
         "--out", "s.csv"],
        ["pde", "--catalog", "partial_riccati", "--x0", "0.2",
         "--out", "p.csv", "--report", "p.json"],
    ]
    for cmd in cmds:
        proc = subprocess.run([sys.executable, "-m", "liesym"] + cmd,
                              cwd=cwd, env=env, capture_output=True)
        assert proc.returncode == 0, (
            f"{' '.join(cmd)} exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace').strip()}")
        outputs.append(proc.stdout)
    for fname in ("s.csv", "s.csv.gp", "p.csv", "p.json"):
        outputs.append((cwd / fname).read_bytes())
    return outputs


def test_seeded_runs_are_byte_identical(tmp_path, seeded_cli_env):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    assert (_run_suite(run_a, seeded_cli_env)
            == _run_suite(run_b, seeded_cli_env))
