import json
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import checkout_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def run_cli(*args, cwd):
    """Run this checkout's CLI in ``cwd`` (see :func:`conftest.checkout_env`)."""
    return subprocess.run(
        [sys.executable, "-m", "algmech.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=checkout_env(),
    )


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def harmonic_config(tmp_path, steps=5000, **extra):
    cfg = {
        "scenario": {
            "scenario": "canonical",
            "n": 1,
            "hamiltonian": {
                "arity": 2,
                "terms": [{"coef": 0.5, "exp": [0, 2]}, {"coef": 0.5, "exp": [2, 0]}],
            },
        },
        "integration": {"h": 0.001, "steps": steps, "x0": {"q": [1.0], "p": [0.0]}},
        "verification": {
            "points": 10,
            "seed": 1,
            "checks": ["theorem43_equivalence", "omega_frame", "closedness"],
        },
        "output": {"trajectory": "out.csv", "report": "report.json"},
    }
    cfg.update(extra)
    return write_config(tmp_path, cfg)


def test_simulate_writes_contracted_csv(tmp_path):
    path = harmonic_config(tmp_path, steps=2000)
    r = run_cli("simulate", path, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "out.csv").read_text().strip().split("\n")
    assert lines[0] == "t,q1,p1,H,dHdt"
    assert len(lines) == 2002
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    H = data[:, 3]
    assert np.max(np.abs(H - H[0])) <= 1e-10


def test_simulate_rejects_negative_step(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["integration"]["h"] = -1
    path = write_config(tmp_path, cfg, "bad.json")
    r = run_cli("simulate", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "integration.h must be positive" in r.stderr


@pytest.mark.parametrize(
    "key,value",
    [
        ("h", float("nan")),
        ("h", float("inf")),
        ("h", True),
        ("steps", True),
    ],
)
def test_simulate_rejects_non_finite_or_boolean_step(tmp_path, key, value):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["integration"][key] = value
    path = write_config(tmp_path, cfg, "bad.json")
    r = run_cli("simulate", path, cwd=tmp_path)
    assert r.returncode == 1
    assert f"integration.{key}" in r.stderr
    if key == "h":
        assert "integration.h must be positive" in r.stderr
    assert not (tmp_path / "out.csv").exists()


def _harmonic_term(**term):
    return {"arity": 2, "terms": [{"coef": 0.5, "exp": [0, 2]}, term]}


def _shipped_scenario(name, **override):
    return {**json.loads((CONFIG_DIR / f"{name}.json").read_text())["scenario"], **override}


# (scenario, the key the error names); each was a traceback or a silent misread
MALFORMED_FIELDS = {
    "terms-not-objects": ({"hamiltonian": {"arity": 2, "terms": [1]}}, "'terms'"),
    "exp-missing": ({"hamiltonian": _harmonic_term(coef=0.5)}, "'exp'"),
    "arity-string": ({"hamiltonian": {"arity": "x", "terms": []}}, "'arity'"),
    "coef-string": ({"hamiltonian": _harmonic_term(coef="a", exp=[2, 0])}, "'coef'"),
    "exp-fraction": ({"hamiltonian": _harmonic_term(coef=0.5, exp=[0.5, 0])}, "'exp'"),
    "coef-bool": ({"hamiltonian": _harmonic_term(coef=True, exp=[2, 0])}, "'coef'"),
    "arity-fraction": ({"hamiltonian": {"arity": 2.7, "terms": []}}, "'arity'"),
    "monitors-list": ({"monitors": [{"arity": 2, "terms": []}]}, "scenario.monitors"),
    # a comma or a line break in a monitor name splits its CSV column or row
    "monitor-name-comma": ({"monitors": {"a,b": _harmonic_term(coef=1.0, exp=[2, 0])}},
                           "scenario.monitors"),
    "monitor-name-newline": ({"monitors": {"a\nb": _harmonic_term(coef=1.0, exp=[2, 0])}},
                             "scenario.monitors"),
    "metric-number": (_shipped_scenario("gradient_extension", metric=1.0), "scenario.metric"),
    "inertia-number": (_shipped_scenario("euler_top", inertia=2.0), "scenario.inertia"),
    # 1/(2 I) of a zero or subnormal inertia is not finite: a numpy warning, no key named
    "inertia-zero": (_shipped_scenario("euler_top", inertia=[0, 2, 3]), "scenario.inertia"),
    "inertia-subnormal": (
        _shipped_scenario("euler_top", inertia=[1e-320, 1, 2]), "scenario.inertia"
    ),
    "n-bool": ({"n": True}, "scenario.n"),  # read as 1
    "builtin-step-string": ({"monitors": {"s": {"arity": 1, "builtin": "sin", "h": "x"}}}, "'h'"),
    # sin's own arity is the expected 1; the declared 5 was dropped
    "builtin-arity": (
        {"scenario": "lie_poisson", "structure": [[[0.0]]], "inertia": [1.0],
         "monitors": {"s": {"arity": 5, "builtin": "sin"}}},
        "scenario.monitors.s",
    ),
    "structure-ragged": (
        {"scenario": "lie_poisson", "structure": [[[1.0]], [[1.0, 2.0]]], "inertia": [1.0, 1.0]},
        "scenario.structure",
    ),
    "basis-row-number": (
        _shipped_scenario("nonholonomic_classical", kinematic_basis=[1.0]),
        "scenario.kinematic_basis",
    ),
}


@pytest.mark.parametrize(
    "scenario,key", list(MALFORMED_FIELDS.values()), ids=list(MALFORMED_FIELDS)
)
def test_simulate_names_the_key_of_a_malformed_field(tmp_path, scenario, key):
    if "scenario" not in scenario:  # a canonical oscillator with one field replaced
        oscillator = _harmonic_term(coef=0.5, exp=[2, 0])
        scenario = {"scenario": "canonical", "n": 1, "hamiltonian": oscillator, **scenario}
    n = {"canonical": 1, "gradient_extension": 2, "constrained": 3}.get(scenario["scenario"], 0)
    m = {"canonical": 1, "gradient_extension": 2, "constrained": 2}.get(scenario["scenario"], 3)
    cfg = {
        "scenario": scenario,
        "integration": {"h": 0.001, "steps": 10, "x0": {"q": [0.1] * n, "p": [0.2] * m}},
        "output": {"trajectory": "out.csv"},
    }
    r = run_cli("simulate", write_config(tmp_path, cfg), cwd=tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: ") and key in r.stderr, r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command,section",
    [("simulate", "integration"), ("verify", "verification"), ("simulate", "output")],
)
def test_a_config_section_that_is_not_an_object_is_named(tmp_path, command, section):
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    cfg[section] = 5
    r = run_cli(command, write_config(tmp_path, cfg, "bad.json"), cwd=tmp_path)
    assert r.returncode == 1, r.stderr
    assert f"error: {section} must be an object" in r.stderr
    assert "Traceback" not in r.stderr


def test_simulate_rejects_non_finite_structure_constants(tmp_path):
    cfg = {
        "scenario": {"scenario": "lie_poisson", "structure": [[[float("nan")]]], "inertia": [1.0]},
        "integration": {"h": 0.001, "steps": 10, "x0": {"q": [], "p": [1.0]}},
        "output": {"trajectory": "out.csv", "report": "report.json"},
    }
    r = run_cli("simulate", write_config(tmp_path, cfg), cwd=tmp_path)
    assert r.returncode == 1
    assert "error: coefficients must be finite" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "structure,metric,key",
    [
        ([[[True]]], None, "scenario.structure"),  # was simulated as the constant 1.0
        ("so3", [[1.0, 0.0, 0.0], [0.0, True, 0.0], [0.0, 0.0, 1.0]], "scenario.metric"),
    ],
    ids=["structure", "metric"],
)
def test_simulate_rejects_booleans_in_numeric_arrays(tmp_path, structure, metric, key):
    m = 1 if isinstance(structure, list) else 3
    scenario = {"scenario": "lie_poisson", "structure": structure, "inertia": [1.0] * m}
    if metric is not None:
        scenario["metric"] = metric
    cfg = {
        "scenario": scenario,
        "integration": {"h": 0.001, "steps": 5, "x0": {"q": [], "p": [1.0] * m}},
        "output": {"trajectory": "out.csv"},
    }
    r = run_cli("simulate", write_config(tmp_path, cfg), cwd=tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: ") and key in r.stderr, r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out.csv").exists()


# (shipped config, the list under its scenario, entries appended, the key the error
# names); each exited 0, the extra entries silently dropped
OVERLONG_TENSORS = {
    "anchor-row": ("nonholonomic_classical", ("ambient", "anchor", 0), 1, "ambient.anchor[0]"),
    "curvature-block": ("closedness_negative", ("curvature",), 1, "curvature"),
    "metric-row": ("contorsion_skew", ("metric", 0), 1, "metric[0]"),
    "contorsion-row": ("contorsion_skew", ("contorsion", 0, 0), 2, "contorsion[0][0]"),
    "bracket-block": ("nonholonomic_classical", ("ambient", "bracket"), 1, "ambient.bracket"),
}


@pytest.mark.parametrize(
    "name,path,extra,key", list(OVERLONG_TENSORS.values()), ids=list(OVERLONG_TENSORS)
)
def test_a_tensor_list_longer_than_its_shape_is_named(tmp_path, capsys, name, path, extra, key):
    from algmech.cli import main

    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["integration"]["steps"] = 5
    node = cfg["scenario"]
    for k in path:
        node = node[k]
    node.extend(json.loads(json.dumps(node[-1:])) * extra)
    out = tmp_path / "long.csv"
    assert main(["simulate", write_config(tmp_path, cfg, "long.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tensor config does not match shape "), err
    assert err.rstrip().endswith(f" at scenario.{key}"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "terms,q0",
    [
        # H = 0.5 p^2 + 0.5 q^4 overflows at q = 1e100; its gradient does not
        ([{"coef": 0.5, "exp": [0, 2]}, {"coef": 0.5, "exp": [4, 0]}], 1e100),
        # the gradient 3 q^2 of H = q^3 overflows at q = 1e200
        ([{"coef": 1.0, "exp": [3, 0]}], 1e200),
    ],
    ids=["value", "gradient"],
)
def test_simulate_non_finite_initial_state_exits_2_with_header_only_csv(tmp_path, terms, q0):
    cfg = {
        "scenario": {"scenario": "canonical", "n": 1, "hamiltonian": {"arity": 2, "terms": terms}},
        "integration": {"h": 0.001, "steps": 10, "x0": {"q": [q0], "p": [0.0]}},
        "output": {"trajectory": "out.csv"},
    }
    r = run_cli("simulate", write_config(tmp_path, cfg), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert (tmp_path / "out.csv").read_text() == "t,q1,p1,H,dHdt\n"


def test_simulate_divergence_exit_code(tmp_path):
    cases = [
        # dp/dt = p^2: the state after a step leaves float range
        ([[[-1.0]]], {"arity": 1, "terms": [{"coef": 0.5, "exp": [2]}]}, 0.5, 1000, 10.0),
        # dp/dt = 4 p^4: the state stays finite while H and its gradient at it overflow
        ([[[-1.0]]], {"arity": 1, "terms": [{"coef": 1.0, "exp": [4]}]}, 0.1, 1000, 2.0),
        # dp/dt = p e^p: the exp builtin overflows (math.exp raises) inside the FD gradient
        ([[[1.0]]], {"arity": 1, "builtin": "exp"}, 0.1, 200, 2.0),
    ]
    for k, (structure, hamiltonian, h, steps, p0) in enumerate(cases):
        cfg = {
            "scenario": {
                "scenario": "lie_poisson",
                "structure": structure,
                "hamiltonian": hamiltonian,
            },
            "integration": {"h": h, "steps": steps, "x0": {"q": [], "p": [p0]}},
            "output": {"trajectory": f"part{k}.csv"},
        }
        path = write_config(tmp_path, cfg, f"cfg{k}.json")
        r = run_cli("simulate", path, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "diverged" in r.stderr
        assert "Traceback" not in r.stderr
        lines = (tmp_path / f"part{k}.csv").read_text().strip().split("\n")
        assert len(lines) >= 2
        last_good = int(r.stderr.split("last good step ")[1].split(";")[0])
        assert len(lines) == last_good + 2  # header plus samples 0..last_good


@pytest.mark.parametrize(
    "command,flag,q0",
    [
        ("simulate", "--out", 1.0),
        ("simulate", "--out", 1e200),  # not finite at the initial state: the header-only CSV
        ("verify", "--report", 1.0),
    ],
    ids=["simulate", "simulate-header-only", "verify"],
)
def test_an_unwritable_output_path_exits_1_with_one_error_line(tmp_path, command, flag, q0):
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path, steps=50)).read_text())
    cfg["integration"]["x0"]["q"] = [q0]  # H = (p^2 + q^2) / 2 overflows at q = 1e200
    target = tmp_path / "missing" / "out"
    r = run_cli(command, write_config(tmp_path, cfg), flag, str(target), cwd=tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr == f"error: cannot write {target}: No such file or directory\n"
    assert "Traceback" not in r.stderr and not target.parent.exists()


@pytest.mark.parametrize("command,flag", [("simulate", "--out"), ("verify", "--report")])
@pytest.mark.parametrize(
    "parent,reason", [("missing", "No such file or directory"), ("a_file", "Not a directory")]
)
def test_an_output_path_without_a_parent_directory_exits_1_before_any_step_or_check(
    tmp_path, capsys, monkeypatch, command, flag, parent, reason
):
    from algmech import cli

    def never(*args, **kwargs):
        raise AssertionError("a step or a check ran")

    monkeypatch.setattr(cli, "integrate", never)
    monkeypatch.setattr(cli, "run_check", never)
    (tmp_path / "a_file").write_text("kept\n")
    target = tmp_path / parent / "out"
    assert cli.main([command, harmonic_config(tmp_path), flag, str(target)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {target}: {reason}\n"
    assert (tmp_path / "a_file").read_text() == "kept\n" and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command,flag", [("simulate", "--out"), ("verify", "--report")])
def test_a_config_error_leaves_an_existing_output_file_as_it_is(tmp_path, capsys, command, flag):
    from algmech.cli import main

    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["integration"]["h"] = -1.0
    cfg["verification"]["checks"] = ["bogus_check"]
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    assert main([command, write_config(tmp_path, cfg), flag, str(target)]) == 1
    assert capsys.readouterr().err.startswith("error: ") and target.read_text() == "kept\n"


@pytest.mark.parametrize("value", [5, True, ["out.csv"], {"path": "out.csv"}])
def test_an_output_path_that_is_no_string_exits_1_naming_its_key(tmp_path, capsys, value):
    from algmech.cli import main

    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path, steps=5)).read_text())
    cfg["output"]["trajectory"] = value
    assert main(["simulate", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "error: output.trajectory must be a string\n"


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    from algmech import cli

    built, init = [], cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # a subcommand's parser is "algmech simulate", say
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    for _ in range(3):
        assert cli.main(["report", str(tmp_path / "missing.csv")]) == 1
    assert built.count("algmech") == 1 and cli._parser() is cli._parser()
    capsys.readouterr()


def test_verify_report_and_exit_codes(tmp_path):
    path = harmonic_config(tmp_path)
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert isinstance(report, list) and len(report) == 3
    for entry in report:
        assert set(entry) == {"check", "points", "max_residual", "tolerance", "pass"}
        assert entry["pass"]


def test_verify_unknown_check(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["verification"]["checks"] = ["bogus_check"]
    path = write_config(tmp_path, cfg, "unknown.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "unknown check" in r.stderr


@pytest.mark.parametrize(
    "override,key",
    [
        ({"checks": ["structure_checks", "bogus_check"]}, "verification.checks[1].name"),
        ({"tolerances": {"analytc": 1e-12}}, "verification.tolerances.analytc"),
    ],
    ids=["check", "tolerance-class"],
)
def test_verify_refuses_an_unknown_name_before_any_check_runs(
    tmp_path, monkeypatch, capsys, override, key
):
    import algmech.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_check", lambda name, *args: calls.append(name))
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    cfg["verification"].update(override)
    report = tmp_path / "report.json"
    assert cli.cmd_verify(write_config(tmp_path, cfg), report_path=str(report)) == 1
    err = capsys.readouterr().err
    assert key in err and ("unknown check" in err or "is not one of" in err), err
    assert calls == [] and not report.exists()


def test_verify_failing_check_nonzero_exit(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    # a negative control on a structure whose defects all vanish must fail
    cfg["verification"]["checks"] = [{"name": "structure_checks", "expect_fail": True}]
    path = write_config(tmp_path, cfg, "failing.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_report_summary(tmp_path):
    path = harmonic_config(tmp_path, steps=2000)
    assert run_cli("simulate", path, cwd=tmp_path).returncode == 0
    r = run_cli("report", str(tmp_path / "out.csv"), cwd=tmp_path)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "rows: 2001"
    drift_line = [ln for ln in r.stdout.splitlines() if ln.startswith("H drift:")][0]
    assert float(drift_line.split(":")[1]) <= 1e-10


def test_report_reads_monitors_named_like_state_columns(tmp_path):
    """A monitor named p1, q2 or H follows dHdt, and report reads the state
    columns as those between t and the first H."""
    term = {"arity": 2, "terms": [{"coef": 1.0, "exp": [1, 0]}]}
    path = harmonic_config(tmp_path, steps=50)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["scenario"]["monitors"] = {"p1": term, "q2": term, "H": term}
    path = write_config(tmp_path, cfg)
    assert run_cli("simulate", path, cwd=tmp_path).returncode == 0
    assert (tmp_path / "out.csv").read_text().split("\n")[0] == "t,q1,p1,H,dHdt,p1,q2,H"
    r = run_cli("report", str(tmp_path / "out.csv"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert [ln.split(":")[0] for ln in r.stdout.splitlines()[4:]] == [
        "monitor p1", "monitor q2", "monitor H"
    ]


def test_report_rejects_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    r = run_cli("report", str(empty), cwd=tmp_path)
    assert r.returncode == 1
    assert "trajectory file is empty" in r.stderr
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    r = run_cli("report", str(bad), cwd=tmp_path)
    assert r.returncode == 1
    assert "malformed trajectory header" in r.stderr


def test_determinism_byte_identical(tmp_path):
    path = harmonic_config(tmp_path, steps=500)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        assert run_cli("simulate", path, "--out", "t.csv", cwd=d).returncode == 0
        assert run_cli("verify", path, "--report", "r.json", cwd=d).returncode == 0
    assert (a / "t.csv").read_bytes() == (b / "t.csv").read_bytes()
    assert (a / "r.json").read_bytes() == (b / "r.json").read_bytes()


def test_seed_flag_changes_probes(tmp_path):
    path = harmonic_config(tmp_path)
    r1 = run_cli("verify", path, "--seed", "1", "--report", "r1.json", cwd=tmp_path)
    r2 = run_cli("verify", path, "--seed", "2", "--report", "r2.json", cwd=tmp_path)
    r0 = run_cli("verify", path, "--report", "r0.json", cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0 and r0.returncode == 0
    report1 = (tmp_path / "r1.json").read_bytes()
    # another seed draws other probe points, so the residuals differ
    assert report1 != (tmp_path / "r2.json").read_bytes()
    # the config's verification.seed is 1, so --seed 1 changes nothing
    assert report1 == (tmp_path / "r0.json").read_bytes()


def test_explicit_split_override(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    zero = {"arity": 1, "terms": []}
    cfg["scenario"]["split"] = {"Dl": [[[zero]]], "Dr": [[[zero]]]}
    cfg["verification"]["checks"] = ["theorem43_equivalence", "split_consistency"]
    path = write_config(tmp_path, cfg, "split_ok.json")
    assert run_cli("verify", path, cwd=tmp_path).returncode == 0

    cfg["scenario"]["split"] = {
        "Dl": [[[{"arity": 1, "terms": [{"coef": 0.5, "exp": [0]}]}]]],
        "Dr": [[[zero]]],
    }
    path = write_config(tmp_path, cfg, "split_bad.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "does not split the bracket" in r.stderr


def _constant_curvature(m):
    """R[mu,a,b,nu] = d[mu,a] d[b,nu] - d[mu,b] d[a,nu]: skew in (a, b), Bianchi holds."""
    d = np.eye(m)
    return (np.einsum("ma,bn->mabn", d, d) - np.einsum("mb,an->mabn", d, d)).tolist()


@pytest.mark.parametrize("override", ["split", "curvature"])
@pytest.mark.parametrize("name", ["gradient_extension.json", "nonholonomic_classical.json"])
def test_overrides_on_array_valued_structures(tmp_path, name, override):
    """`split: "default"` and an explicit curvature where bracket and Christoffels are arrays."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["scenario"][override] = "default" if override == "split" else _constant_curvature(2)
    cfg["integration"]["steps"] = 50
    cfg["verification"]["points"] = 5
    path = write_config(tmp_path, cfg, "override.json")
    for command in ("simulate", "verify"):
        r = run_cli(command, path, cwd=tmp_path)
        assert r.returncode == 0, (command, r.stdout, r.stderr)


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in CONFIG_DIR.glob("*.json")),
)
def test_shipped_configs_round_trip(tmp_path, name):
    """Every example config in the repo validates and runs under both commands."""
    cfg_path = str(CONFIG_DIR / name)
    r = run_cli("simulate", cfg_path, cwd=tmp_path)
    assert r.returncode == 0, (name, r.stderr)
    r = run_cli("verify", cfg_path, cwd=tmp_path)
    assert r.returncode == 0, (name, r.stdout, r.stderr)
    traj = json.loads(pathlib.Path(cfg_path).read_text())["output"]["trajectory"]
    r = run_cli("report", str(tmp_path / traj), cwd=tmp_path)
    assert r.returncode == 0, (name, r.stderr)


def _closedness_entry(**override):
    return {"checks": [{"name": "closedness", **override}]}


def _entry(name, **override):
    return {"checks": [{"name": name, **override}]}


@pytest.mark.parametrize(
    "override,key",
    [
        (_closedness_entry(points=0), "verification.checks[0].points"),
        (_closedness_entry(points=-3), "verification.checks[0].points"),
        (_closedness_entry(points=2.5), "verification.checks[0].points"),
        (_closedness_entry(tolerance="nan", expect_fail=True), "verification.checks[0].tolerance"),
        (_closedness_entry(tolerance=-1.0), "verification.checks[0].tolerance"),
        (_closedness_entry(tolerance=0), "verification.checks[0].tolerance"),
        # a misspelt tolerance class would otherwise be ignored
        ({"tolerances": {"analytc": 1e-12}}, "verification.tolerances.analytc"),
        (_entry("energy_rate_fd", steps="ten"), "verification.checks[0].steps"),
        (_entry("theorem43_equivalence", random_instances=0), "verification.checks[0].random_instances"),
        (_entry("energy_rate_fd", h=0), "verification.checks[0].h"),
        (_entry("energy_rate_fd", x0={"q": [1.0]}), "verification.checks[0].x0"),
        (_entry("legendre_equivalence", q0="origin"), "verification.checks[0].q0"),
        (_entry("legendre_equivalence", v0=[0.1, "fast"]), "verification.checks[0].v0"),
    ],
)
def test_verify_rejects_bad_check_overrides(tmp_path, override, key):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["verification"].update(override)
    path = write_config(tmp_path, cfg, "bad_override.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert key in r.stderr
    assert not (tmp_path / "report.json").exists()


def test_verify_rejects_non_finite_tolerance_class(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["verification"]["tolerances"] = {"analytic": "nan"}
    path = write_config(tmp_path, cfg, "bad_class.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "verification.tolerances.analytic" in r.stderr


def test_tolerance_class_sets_its_checks_and_yields_to_an_entry(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["verification"].update(
        points=2,
        tolerances={"analytic": 1e-3, "fd": 2e-4},
        checks=[
            "theorem43_equivalence",
            "curvature_identities",
            "closedness",
            {"name": "theorem43_equivalence", "tolerance": 1e-7},
        ],
    )
    path = write_config(tmp_path, cfg, "classes.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["tolerance"] for e in report] == [1e-3, 2e-4, 1e-8, 1e-7]


def test_verify_accepts_check_x0_in_integration_form(tmp_path):
    cfg = json.loads((CONFIG_DIR / "euler_top.json").read_text())
    x0 = {"q": [], "p": [1, 0.5, 0.2]}
    cfg["verification"]["checks"] = [
        {"name": "casimir_drift", "steps": 20, "x0": x0},
        {"name": "energy_rate_fd", "steps": 20, "x0": x0},
    ]
    path = write_config(tmp_path, cfg, "x0.json")
    r = run_cli("verify", path, "--report", "r.json", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert [e["check"] for e in report] == ["casimir_drift", "energy_rate_fd"]


# -- seeds, check names and divergence inside a check ---------------------------


def _verify_in_process(tmp_path, cfg, *flags):
    """``algmech verify`` on ``cfg`` in this process: (exit code, report path)."""
    from algmech.cli import main

    path = write_config(tmp_path, cfg, "in_process.json")
    report = tmp_path / "in_process_report.json"
    return main(["verify", path, "--report", str(report), *flags]), report


@pytest.mark.parametrize("seed", ["abc", -1, 1.7, True, None, [3]])
def test_verify_rejects_a_seed_that_is_not_a_non_negative_integer(tmp_path, capsys, seed):
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    cfg["verification"]["seed"] = seed
    rc, report = _verify_in_process(tmp_path, cfg)
    assert rc == 1
    assert "verification.seed must be an integer >= 0" in capsys.readouterr().err
    assert not report.exists()


def test_verify_rejects_a_negative_seed_flag(tmp_path, capsys):
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    rc, report = _verify_in_process(tmp_path, cfg, "--seed", "-1")
    assert rc == 1
    assert "--seed must be an integer >= 0" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("name", [["closedness"], 3, None])
def test_verify_rejects_a_check_name_that_is_not_a_string(tmp_path, capsys, name):
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    cfg["verification"]["checks"] = ["closedness", {"name": name}]
    rc, report = _verify_in_process(tmp_path, cfg)
    assert rc == 1
    assert "verification.checks[1].name must be a string" in capsys.readouterr().err
    assert not report.exists()


def _reject_constant(token):
    raise ValueError(f"not RFC 8259 JSON: {token}")


@pytest.mark.parametrize("expect_fail", [False, True])
def test_a_diverging_check_fails_and_the_report_is_written(tmp_path, expect_fail):
    cfg = json.loads((CONFIG_DIR / "euler_top.json").read_text())
    cfg["verification"]["checks"] = [
        {"name": "casimir_drift", "h": 10, "steps": 50, "expect_fail": expect_fail},
        "closedness",
    ]
    rc, report = _verify_in_process(tmp_path, cfg)
    assert rc == 1
    entries = json.loads(report.read_text(), parse_constant=_reject_constant)  # strict JSON
    assert [set(e) for e in entries] == [{"check", "points", "max_residual", "tolerance", "pass"}] * 2
    assert entries[0]["max_residual"] is None and entries[0]["pass"] is False
    assert entries[1]["pass"] is True


def test_a_nan_residual_is_written_as_null(tmp_path, monkeypatch):
    import algmech.verify as verify

    nan_row = (lambda bundle, cfg, rng: float("nan"), *verify.CHECKS["closedness"][1:])
    monkeypatch.setitem(verify.CHECKS, "closedness", nan_row)
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    cfg["verification"]["checks"] = ["closedness", "omega_frame"]
    rc, report = _verify_in_process(tmp_path, cfg)
    assert rc == 1
    entries = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert entries[0]["max_residual"] is None and entries[0]["pass"] is False
    assert entries[1]["pass"] is True and isinstance(entries[1]["max_residual"], float)


# sizes >= 1e15 ask for petabytes: the allocation fails at once and touches no memory
def test_a_step_count_too_large_to_allocate_is_named(tmp_path, capsys):
    from algmech.cli import main

    out = tmp_path / "huge.csv"
    path = harmonic_config(tmp_path, steps=10**15)
    assert main(["simulate", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: integration.steps is too large: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "where,message",
    [
        ("verification", "error: check 'theorem43_equivalence': points is too large: "),
        ("check", "error: check 'energy_rate_fd': steps is too large: "),
    ],
)
def test_a_check_size_too_large_to_allocate_is_named(tmp_path, capsys, where, message):
    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    if where == "verification":
        cfg["verification"]["points"] = 10**15
    else:
        cfg["verification"]["checks"] = [{"name": "energy_rate_fd", "steps": 10**15}]
    rc, report = _verify_in_process(tmp_path, cfg)
    assert rc == 1
    assert capsys.readouterr().err.startswith(message)
    assert not report.exists()


# (shipped config, command, leaf, the key the error names): a JSON integer beyond
# float range, or beyond the length of any array axis, exits 1 with no traceback
HUGE = 10**400
TERM = ("scenario", "hamiltonian", "terms", 0)
BEYOND_RANGE = {
    "metric-entry": ("contorsion_skew", "simulate", ("scenario", "metric", 1, 1),
                     "scenario.metric[1][1]"),
    "term-coef": ("canonical_harmonic", "simulate", TERM + ("coef",), "'coef'"),
    "term-exp": ("canonical_harmonic", "simulate", TERM + ("exp", 0), "'exp'"),
    "step": ("canonical_harmonic", "simulate", ("integration", "h"), "integration.h"),
    "x0-q": ("canonical_harmonic", "simulate", ("integration", "x0", "q", 0), "integration.x0.q"),
    "check-tolerance": ("canonical_harmonic", "verify", ("verification", "checks", 0),
                        "verification.checks[0].tolerance"),
    "steps": ("canonical_harmonic", "simulate", ("integration", "steps"),
              "integration.steps is too large"),
    "points": ("canonical_harmonic", "verify", ("verification", "points"),
               "verification.points is too large"),
}


@pytest.mark.parametrize(
    "name,command,leaf,key", list(BEYOND_RANGE.values()), ids=list(BEYOND_RANGE)
)
def test_a_number_beyond_range_is_named(tmp_path, capsys, name, command, leaf, key):
    from algmech.cli import main

    value = {"name": "closedness", "tolerance": HUGE} if key.endswith("tolerance") else HUGE
    cfg = _with_leaf(json.loads((CONFIG_DIR / f"{name}.json").read_text()), leaf, value)
    out = tmp_path / "out"
    flag = "--out" if command == "simulate" else "--report"
    assert main([command, write_config(tmp_path, cfg), flag, str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err, err
    assert not out.exists()


def test_an_integer_of_too_many_digits_is_refused(tmp_path, capsys):
    from algmech.cli import main

    # Python refuses to parse integers of more than 4300 digits (3.11 on)
    path = pathlib.Path(harmonic_config(tmp_path))
    path.write_text(path.read_text().replace('"steps": 5000', '"steps": ' + "1" * 5000))
    out = tmp_path / "out.csv"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# (shipped config, leaf, value, the key the error names): a field given outside a
# tensor named no key, and a bad term echoed all 400 digits of its coefficient
BARE_FIELDS = {
    "potential": ("contorsion_skew", ("scenario", "potential"), HUGE, "scenario.potential"),
    "monitor": ("canonical_harmonic", ("scenario", "monitors"), {"m": float("nan")},
                "scenario.monitors.m"),
    "term": ("canonical_harmonic", TERM + ("coef",), HUGE, "scenario.hamiltonian.terms[0]"),
}


@pytest.mark.parametrize("name,leaf,value,key", list(BARE_FIELDS.values()), ids=list(BARE_FIELDS))
def test_a_bare_field_names_its_key(tmp_path, capsys, name, leaf, value, key):
    from algmech.cli import main

    cfg = _with_leaf(json.loads((CONFIG_DIR / f"{name}.json").read_text()), leaf, value)
    out = tmp_path / "out.csv"
    assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.rstrip()
    assert err.startswith("error: ") and err.endswith(f" at {key}"), err
    assert len(err) < 200, err
    assert not out.exists()


def test_base_checks_over_a_point_evaluate_its_one_point(tmp_path):
    # over a point all base probes are the same empty point; 10**15 of them never returned,
    # so the run is a child with a timeout
    cfg = json.loads((CONFIG_DIR / "euler_top.json").read_text())
    checks = ["structure_checks", "curvature_identities", "split_consistency"]
    cfg["verification"] = {"points": 10**15, "seed": 0, "checks": checks}
    report = tmp_path / "point.json"
    r = subprocess.run(
        [sys.executable, "-m", "algmech.cli", "verify", write_config(tmp_path, cfg),
         "--report", str(report)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=checkout_env(),
        timeout=30,
    )
    assert r.returncode == 0, r.stderr
    entries = json.loads(report.read_text())
    assert [(e["check"], e["points"], e["pass"]) for e in entries] == [
        (name, 10**15, True) for name in checks
    ]


def test_importing_the_package_loads_neither_scipy_nor_sympy(tmp_path):
    # both are installed for the tests; importing either would cost every run its start-up
    code = "import sys, algmech; print(sorted({'scipy', 'sympy'} & sys.modules.keys()))"
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=checkout_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", [{"x": 1}, ["canonical"]], ids=["object", "list"])
def test_a_scenario_kind_that_is_not_a_string_is_named(tmp_path, capsys, kind):
    from algmech.cli import main

    cfg = json.loads(pathlib.Path(harmonic_config(tmp_path)).read_text())
    cfg["scenario"]["scenario"] = kind
    out = tmp_path / "kind.csv"
    assert main(["simulate", write_config(tmp_path, cfg, "kind.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: scenario.scenario must be one of [")
    assert not out.exists()


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_a_non_finite_fd_step_is_named(tmp_path, capsys, monkeypatch, step):
    from algmech.cli import main

    # the potential is a builtin field: its gradient is a central difference
    cfg = {
        "scenario": {
            "scenario": "contorsion",
            "metric": [[1.0]],
            "torsion": [[[0.0]]],
            "potential": {"arity": 1, "builtin": "sin"},
        },
        "integration": {"h": 0.01, "steps": 5, "x0": {"q": [0.1], "p": [0.2]}},
    }
    monkeypatch.setenv("ALGMECH_FD_STEP", step)
    out = tmp_path / "fd.csv"
    assert main(["simulate", write_config(tmp_path, cfg, "fd.json"), "--out", str(out)]) == 1
    assert "error: ALGMECH_FD_STEP must be a finite number > 0" in capsys.readouterr().err


# -- shipped configs with one leaf replaced ---------------------------------------

FUZZ_VALUES = [None, True, False, 0, -1, 2, 0.5, -2.5, 1e308, -1e308, 1e-320, "", "so3",
               "zero", [], [1, 2], {}, {"x": 1}]
FUZZ_CASES = 60  # drawn cases, after the two fixed ones


def _leaves(node, path=()):
    """Paths of the non-container values of a JSON document, in document order."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _with_leaf(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _capped(name):
    """A shipped config whose integration and every check take at most 20 steps."""
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["integration"]["steps"] = min(cfg["integration"]["steps"], 20)
    checks = cfg["verification"]["checks"]
    checks[:] = [{**(c if isinstance(c, dict) else {"name": c}), "steps": 20} for c in checks]
    return cfg


def _fuzz_cases():
    names = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
    cases = [("canonical_harmonic", ("scenario", "scenario"), {"x": 1}),  # once a TypeError
             ("nonholonomic_classical", ("scenario", "scenario"), [1, 2])]
    rng = np.random.default_rng(2026)
    for _ in range(FUZZ_CASES):
        name = names[rng.integers(len(names))]
        leaves = list(_leaves(_capped(name)))
        leaf = leaves[rng.integers(len(leaves))]
        cases.append((name, leaf, FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]))
    return cases


def test_a_shipped_config_with_one_leaf_replaced_exits_with_a_documented_code(tmp_path, capsys):
    """No exception escapes the CLI: every invocation exits 0, 1 or 2, and none warns."""
    from algmech.cli import main

    cases = _fuzz_cases()
    assert len(cases) == 2 + FUZZ_CASES
    codes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, (name, path, value) in enumerate(cases):
            config = write_config(tmp_path, _with_leaf(_capped(name), path, value), f"fuzz{i}.json")
            for args in (["simulate", config, "--out", str(tmp_path / "fuzz.csv")],
                         ["verify", config, "--report", str(tmp_path / "fuzz.json")]):
                codes.append((name, path, value, args[0], main(args)))
                capsys.readouterr()
    assert [c for c in codes if c[-1] not in (0, 1, 2)] == []
    assert [str(w.message) for w in caught] == []  # numpy's overflow warnings are off in the CLI
    assert {c[-1] for c in codes} >= {0, 1}  # the sample reaches both accepted and rejected input


# a shipped config with one entry at 1e308 overflowed in numpy and printed a RuntimeWarning
# on stderr before its error line; the CLI runs its commands with numpy's warnings off
OVERFLOW_REPROS = [
    ("verify", "contorsion_dissipative", ("scenario", "torsion", 2, 0, 0)),
    ("verify", "nonjacobi_projected", ("scenario", "ambient", "bracket", 1, 3, 3)),
    ("simulate", "nonjacobi_projected", ("scenario", "kinematic_basis", 1, 1)),
    ("verify", "nonjacobi_projected", ("scenario", "kinematic_basis", 1, 1)),
]


@pytest.mark.parametrize(
    "command,name,path", OVERFLOW_REPROS,
    ids=[f"{c}-{n}-{'.'.join(map(str, p[1:]))}" for c, n, p in OVERFLOW_REPROS],
)
def test_an_overflowing_config_entry_exits_1_without_a_warning(tmp_path, capsys, command, name, path):
    from algmech.cli import main

    config = write_config(tmp_path, _with_leaf(_capped(name), path, 1e308))
    flag = "--out" if command == "simulate" else "--report"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, config, flag, str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 1 and [str(w.message) for w in caught] == []
    lines = err.splitlines() + out.splitlines()
    assert any(line.startswith(("error: ", "FAIL ")) for line in lines), (out, err)


# -- shipped configs with one tensor list one entry too long or too short ----------

TENSOR_KEYS = [("metric",), ("vector_field",), ("contorsion",), ("torsion",), ("structure",),
               ("curvature",), ("ambient", "bracket"), ("ambient", "anchor"),
               ("kinematic_basis",), ("variational_basis",)]
BASES = {("kinematic_basis",), ("variational_basis",)}  # their row count k is free
SHAPE_CASES = 40  # drawn cases


def _tensor_lists(node, path=()):
    """Paths of the lists in a tensor config, stopping at field objects."""
    if isinstance(node, list):
        yield path
        for i, child in enumerate(node):
            yield from _tensor_lists(child, path + (i,))


def _shape_cases():
    """(config, tensor key, list path, append or drop) drawn from every list whose length
    the tensor's shape fixes."""
    candidates = []
    for name in sorted(p.stem for p in CONFIG_DIR.glob("*.json")):
        scenario = _capped(name)["scenario"]
        for key in TENSOR_KEYS:
            node = scenario
            for k in key:
                node = node.get(k) if isinstance(node, dict) else None
            candidates += [
                (name, key, path) for path in _tensor_lists(node) if path or key not in BASES
            ]
    rng = np.random.default_rng(2027)
    picks = rng.integers(len(candidates), size=SHAPE_CASES)
    return [(*candidates[i], bool(rng.integers(2))) for i in picks]


def test_a_tensor_list_of_the_wrong_length_exits_1_naming_its_key(tmp_path, capsys):
    from algmech.cli import main

    cases = _shape_cases()
    assert len(cases) == SHAPE_CASES
    wrong = []
    for i, (name, key, path, append) in enumerate(cases):
        cfg = _capped(name)
        node = cfg["scenario"]
        for k in key + path:
            node = node[k]
        if append or not node:  # one more copy of the last entry (0 in an empty list)
            node.append(json.loads(json.dumps(node[-1])) if node else 0)
        else:
            node.pop()
        config = write_config(tmp_path, cfg, f"shape{i}.json")
        rc = main(["simulate", config, "--out", str(tmp_path / "shape.csv")])
        err = capsys.readouterr().err
        if rc != 1 or not err.startswith("error: ") or f"scenario.{'.'.join(key)}" not in err:
            wrong.append((name, key, path, append, rc, err))
    assert wrong == []
