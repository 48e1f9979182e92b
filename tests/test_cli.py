"""CLI contract: exact flags, byte-stable output, exit-status discipline."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from downup_hh import cli, resolution, yoneda
from downup_hh.cli import CHECKS, REPORTS, main, sweep_weights, verify_workers
from downup_hh.cohomology import basis_labels, hh1_cocycles, sample_instances
from downup_hh.core import Q
from downup_hh.resolution import HomComplex

GOLDEN = Path(__file__).parent / "golden"
REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference.json"
PINS_TOOL = Path(__file__).parent.parent / "tools" / "pins.py"


def perfbench_workloads():
    """perfbench/workloads.py, which defines the benchmark's gates."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REFERENCE.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "downup_hh.cli", *args],
                          capture_output=True, text=True, env=env)


class TestArgumentDiscipline:
    def test_rejects_float_parameters(self):
        r = run_cli("compute", "--n", "1", "--m", "2", "--alpha", "0.5",
                    "--beta", "1")
        assert r.returncode == 2
        assert "not an exact rational" in r.stderr

    def test_rejects_denominator_zero(self):
        r = run_cli("compute", "--n", "1", "--m", "2", "--alpha", "1/0",
                    "--beta", "1")
        assert r.returncode == 2

    def test_rejects_beta_zero(self):
        r = run_cli("compute", "--n", "1", "--m", "1", "--alpha", "0",
                    "--beta", "0")
        assert r.returncode == 2
        assert "beta = 0" in r.stderr

    def test_rejects_noncoprime_without_reduce(self):
        r = run_cli("compute", "--n", "4", "--m", "6", "--alpha", "1",
                    "--beta", "1")
        assert r.returncode == 2
        assert "--reduce" in r.stderr

    @pytest.mark.parametrize("n,m", [("0", "1"), ("1", "-1")])
    def test_rejects_weights_below_one(self, n, m, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", n, "--m", m, "--alpha", "1",
                  "--beta", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: weights must be positive\n"

    def test_reduce_scales_by_the_gcd(self):
        r = run_cli("compute", "--n", "4", "--m", "6", "--alpha", "1",
                    "--beta", "1", "--reduce")
        assert r.returncode == 0
        rep = json.loads(r.stdout)
        assert rep["closed_form"]["k"] == 2
        assert (rep["dims"]["h0"], rep["dims"]["h1"], rep["dims"]["h2"]) == (2, 2, 14)

    def test_rejects_swapped_weights_without_canonicalize(self):
        r = run_cli("compute", "--n", "2", "--m", "1", "--alpha", "1",
                    "--beta", "2")
        assert r.returncode == 2
        assert "--canonicalize" in r.stderr

    def test_canonicalize_transforms_the_parameters(self):
        r = run_cli("compute", "--n", "2", "--m", "1", "--alpha", "1",
                    "--beta", "2", "--canonicalize")
        assert r.returncode == 0
        rep = json.loads(r.stdout)
        # exchanging x and y sends (alpha, beta) to (-alpha/beta, 1/beta)
        assert rep["closed_form"]["canonical"] == "n=1 m=2 alpha=-1/2 beta=1/2"
        # negative rationals need the = form so argparse does not read a flag
        direct = run_cli("compute", "--n", "1", "--m", "2", "--alpha=-1/2",
                         "--beta", "1/2")
        assert json.loads(direct.stdout)["dims"] == rep["dims"]

    @pytest.mark.parametrize("command", [["verify"],
                                         ["table", "--which", "ring"]])
    @pytest.mark.parametrize("max_sum", ["1", "0", "-3"])
    def test_rejects_max_sum_below_two(self, command, max_sum, capsys):
        # below 2 no weight pair is sampled, so nothing would be checked
        with pytest.raises(SystemExit) as exc:
            main([*command, f"--max-sum={max_sum}"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"must be at least 2, the smallest n+m; got {max_sum}" in err

    def test_out_flag_writes_the_report(self, tmp_path):
        target = tmp_path / "report.json"
        r = run_cli("compute", "--n", "1", "--m", "1", "--alpha", "0",
                    "--beta", "1", "--out", str(target))
        assert r.returncode == 0 and r.stdout == ""
        assert json.loads(target.read_text())["dims"] == {"h0": 1, "h1": 6, "h2": 9}

    @pytest.mark.parametrize("command", [
        ["compute", "--n", "1", "--m", "1", "--alpha", "0", "--beta", "1"],
        ["verify", "--max-sum", "2"]])
    def test_unwritable_out_path_exits_2(self, command, tmp_path):
        # exit 1 means a failed check; a path that cannot be written is
        # bad input, and must not read as a failing sweep
        target = tmp_path / "missing" / "x.json"
        r = run_cli(*command, "--out", str(target))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == (f"error: cannot write {target}: "
                            "No such file or directory\n")
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", [["verify", "--max-sum", "16"],
                                         ["table", "--which", "ring"]])
    def test_unwritable_out_path_stops_before_the_work(self, command, tmp_path,
                                                       monkeypatch, capsys):
        def never(*args):
            raise AssertionError("the work ran before --out was checked")

        monkeypatch.setattr(cli, "_verify_worker", never)
        monkeypatch.setattr(cli, "sweep_weights", never)
        monkeypatch.delenv("HH_THREADS", raising=False)
        target = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(target)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err == (f"error: cannot write {target}: "
                       "No such file or directory\n")
        assert not target.parent.exists()

    @pytest.mark.parametrize("old", [None, "old report\n"])
    def test_out_check_leaves_the_target_as_it_was_when_the_work_fails(
            self, old, tmp_path, monkeypatch):
        def broken(item):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(cli, "_verify_worker", broken)
        monkeypatch.delenv("HH_THREADS", raising=False)
        target = tmp_path / "x.json"
        if old is not None:
            target.write_text(old)
        with pytest.raises(RuntimeError):
            main(["verify", "--max-sum", "2", "--out", str(target)])
        assert (target.read_text() if target.exists() else None) == old


class TestGoldenFiles:
    @pytest.mark.parametrize("name,args", [
        ("dims_table.csv", ["table", "--which", "dims", "--max-sum", "5",
                            "--format", "csv"]),
        ("ring_table.csv", ["table", "--which", "ring", "--max-sum", "5",
                            "--format", "csv"]),
        ("hh1_table.csv", ["table", "--which", "hh1", "--max-sum", "4",
                           "--format", "csv"]),
        ("hh2_table.tex", ["table", "--which", "hh2", "--max-sum", "3",
                           "--format", "tex"]),
        ("compute_2_3.json", ["compute", "--n", "2", "--m", "3", "--alpha", "0",
                              "--beta", "1", "--format", "json"]),
        ("invariants_1_2.json", ["invariants", "--n", "1", "--m", "2",
                                 "--format", "json"]),
    ])
    def test_byte_stable_against_golden(self, name, args):
        r = run_cli(*args)
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / name).read_text()

    def test_same_config_twice_is_identical(self):
        args = ("table", "--which", "dims", "--max-sum", "4", "--format", "csv")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_csv_header_contract(self):
        r = run_cli("table", "--which", "dims", "--max-sum", "3",
                    "--format", "csv")
        assert r.stdout.splitlines()[0] == \
            "instance,case1,case2,h0,h1,h2,chi,unipotent"

    def test_json_round_trips(self):
        r = run_cli("compute", "--n", "1", "--m", "3", "--alpha", "0",
                    "--beta", "1", "--format", "json")
        assert json.dumps(json.loads(r.stdout), indent=2) + "\n" == r.stdout


@pytest.fixture(scope="module")
def full_sweep_5():
    r = run_cli("verify", "--max-sum", "5", "--format", "json")
    assert r.returncode == 0
    return json.loads(r.stdout)


class TestVerify:
    def test_clean_sweep_exits_zero(self):
        r = run_cli("verify", "--max-sum", "3")
        assert r.returncode == 0
        assert "0 failed" in r.stdout

    def test_injected_fault_exits_nonzero(self):
        r = run_cli("verify", "--max-sum", "3", "--inject-fault", "lambda-sign")
        assert r.returncode == 1
        assert "FAIL" in r.stdout
        # the corrupted lambda shows up exactly in the closed-form blocks
        failing = [ln for ln in r.stdout.splitlines() if ln.startswith("FAIL")]
        assert failing
        assert all("block" in ln for ln in failing)

    def test_only_filter(self):
        r = run_cli("verify", "--max-sum", "3", "--only", "invariants")
        assert r.returncode == 0
        for line in r.stdout.splitlines():
            if line.startswith("PASS") and "stratum" not in line:
                assert "happel-trace" in line or "unipotency-verdict" in line

    def test_lambda_sign_fault_fails_exactly_the_corner_blocks(self):
        # The fault negates lambda_{m+2}, the bottom-right entry of the
        # closed-form x-power block, so exactly the block checks of the n = 1
        # instances with lambda_{m+2} != 0 fail, and nothing else does.
        r = run_cli("verify", "--max-sum", "5", "--only", "display",
                    "--inject-fault", "lambda-sign", "--format", "json")
        failing = {(c["instance"], c["name"])
                   for c in json.loads(r.stdout)["checks"] if not c["pass"]}
        expected = {(inst.key(), name)
                    for n, m in sweep_weights(5) if n == 1
                    for inst in sample_instances(n, m) if inst.lam(m + 2) != 0
                    for name in (("x-power-block", "mirror-block") if m == 1
                                 else ("x-power-block",))}
        assert expected and failing == expected
        assert r.returncode == 1

    def test_an_off_block_entry_fails_the_arrow_block_rank(self):
        # the rank is read per weight off the elimination of all of D2, so
        # the group first checks that no entry joins two weights
        inst = sample_instances(1, 2)[0]
        C = HomComplex(inst)
        assert cli._display_checks(inst, C, None)[0] == (
            "arrow-block-rank", True, "rank 3")
        rows = [dict(row) for row in C.nonzero[2]]
        rows[0][len(C.basis1) - 1] = 1  # a row of weight (0,0), column not
        C.nonzero = {**C.nonzero, 2: rows}
        name, ok, detail = cli._display_checks(inst, C, None)[0]
        assert (name, ok) == ("arrow-block-rank", False)
        assert detail == (f"off-block D2 entry (0, {len(C.basis1) - 1}): "
                          "row weight (0, 0), column weight (2, -1)")

    def test_ring_group_fails_under_a_broken_product_cochain(self, monkeypatch,
                                                             capsys):
        # dropping one nonzero entry of every product cochain breaks the
        # products that the ring group checks; the group lifts no chain map,
        # so the fault goes where its products are made
        product_cochain = yoneda._product_cochain

        def lossy(C, phi, psi):
            out = product_cochain(C, phi, psi)
            nonzero = [k for k, x in enumerate(out) if x]
            if nonzero:
                out[nonzero[0]] = 0
            return out

        monkeypatch.setattr(yoneda, "_product_cochain", lossy)
        monkeypatch.delenv("HH_THREADS", raising=False)
        status = main(["verify", "--max-sum", "5", "--only", "ring",
                       "--format", "json"])
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert status == 1
        assert (summary["total"], summary["failed"]) == (45, 8)

    def test_complex_group_fails_under_a_corrupted_differential(
            self, monkeypatch, capsys):
        # HomComplex refuses a matrix pair with D2 * D1 != 0; verify turns
        # that refusal into one FAIL line per instance, not a traceback.  The
        # corrupted D1 lands in a fresh weight-pair store, not the live one
        live = resolution._SPACES
        before = {key: (pair, pair.d1) for key, pair in live.items()}
        build = resolution._differential

        def corrupted(*args):
            D = build(*args)  # the nonzero rows, {column: value} each
            D[0][0] = D[0].get(0, 0) + 1
            return D

        monkeypatch.setattr(resolution, "_SPACES", {})
        monkeypatch.setattr(resolution, "_differential", corrupted)
        monkeypatch.delenv("HH_THREADS", raising=False)
        status = main(["verify", "--max-sum", "3", "--only", "complex"])
        out, err = capsys.readouterr()
        failing = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert status == 1
        assert failing and all("d-squared-zero (D2 * D1 != 0)" in ln
                               for ln in failing)
        assert not any(ln.startswith("PASS") and "stratum" not in ln
                       for ln in out.splitlines())
        assert {key: (pair, pair.d1) for key, pair in live.items()} == before
        assert f"{len(failing)} failed" in out.splitlines()[-1]
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("group", list(CHECKS))
    def test_only_reports_the_group_of_the_full_sweep(self, group,
                                                      full_sweep_5):
        # Which groups run decides the order in which a complex fills its
        # cached images; no check may depend on it.
        r = run_cli("verify", "--max-sum", "5", "--only", group,
                    "--format", "json")
        checks = json.loads(r.stdout)["checks"]
        assert any(c["group"] == group for c in checks)
        assert checks == [c for c in full_sweep_5["checks"]
                          if c["group"] in (group, "sweep")]

    @pytest.mark.parametrize("args,threads", [
        (["--max-sum", "4", "--format", "json"], "3"),
        (["--max-sum", "8"], "2"),
        (["--max-sum", "8", "--inject-fault", "lambda-sign"], "2")])
    def test_parallel_aggregation_is_deterministic(self, args, threads):
        serial, parallel = (run_cli("verify", *args,
                                    env_extra={"HH_THREADS": value})
                            for value in ("", threads))
        fault = "--inject-fault" in args
        assert serial.returncode == parallel.returncode == int(fault)
        assert ("FAIL" in serial.stdout) == fault
        assert serial.stdout == parallel.stdout

    def test_a_weight_pair_is_its_slice_of_the_serial_report(self, monkeypatch,
                                                             capsys):
        # the report lists every pair's checks in pair order, then every
        # pair's stratum notes in pair order
        monkeypatch.delenv("HH_THREADS", raising=False)
        assert main(["verify", "--max-sum", "6", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["checks"]
        per_pair = [(n, m, *cli._verify_pair((n, m, None, None)))
                    for n, m in sweep_weights(6)]
        rest = report
        for n, m, checks, _ in per_pair:
            assert checks and rest[:len(checks)] == checks, (n, m)
            assert all(c["instance"].startswith(f"n={n} m={m} ")
                       and c["group"] != "sweep" for c in checks)
            rest = rest[len(checks):]
        for n, m, _, notes in per_pair:
            assert rest[:len(notes)] == notes, (n, m)
            assert all(c["instance"].startswith(f"n={n} m={m} stratum")
                       and c["group"] == "sweep" for c in notes)
            rest = rest[len(notes):]
        assert rest == [] and any(notes for *_, notes in per_pair)

    def test_two_workers_build_each_weight_pair_once(self, monkeypatch,
                                                     tmp_path, capsys):
        # the pool forks, so the workers inherit the patched constructor and
        # append to one log
        log = tmp_path / "built"
        init = resolution._WeightPair.__init__

        def logged(self, res):
            with open(log, "a") as out:
                out.write(f"{res.B.n},{res.B.m}\n")
            init(self, res)
        monkeypatch.setattr(resolution._WeightPair, "__init__", logged)
        monkeypatch.setattr(resolution, "_SPACES", {})
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setenv("HH_THREADS", "2")
        assert main(["verify", "--max-sum", "8"]) == 0
        assert sorted(log.read_text().split()) == sorted(
            f"{n},{m}" for n, m in sweep_weights(8))

    def test_import_leaves_the_process_pool_unloaded(self):
        # Only `verify` with HH_THREADS > 1 uses the pool, so no command
        # should pay for importing it at start-up.  Nor for `dataclasses`
        # and the `inspect` it pulls in (Instance is a plain class), nor for
        # `typing`.  -S keeps `site` and the .pth files it runs from
        # loading modules of their own.
        probe = ("import sys, downup_hh.cli; print([m for m in "
                 "('concurrent.futures', 'dataclasses', 'inspect', "
                 "'multiprocessing', 'typing') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        r = subprocess.run([sys.executable, "-S", "-c", probe],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

    def test_unreachable_strata_are_listed(self):
        r = run_cli("verify", "--max-sum", "3", "--format", "json")
        rep = json.loads(r.stdout)
        notes = [c for c in rep["checks"] if c["name"] == "stratum-status"]
        assert notes and all(c["detail"] in ("vacuous", "no-rational-point")
                             for c in notes)


class TestBenchmarkReference:
    """The outputs the benchmark gates on, recorded in perfbench's
    reference.json, reproduced in-process so that drift fails the suite."""

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(REFERENCE.read_text())

    def test_verify_sweep_has_the_recorded_sha256(self, reference, capsys,
                                                 monkeypatch):
        ref = reference["verify-sweep"]
        assert ref["argv"] == ["verify", "--max-sum", "6", "--format", "json"]
        monkeypatch.delenv("HH_THREADS", raising=False)
        assert main(ref["argv"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["summary"]["total"] == ref["checks"]
        assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"]

    def test_ring_table_has_the_recorded_lines(self, reference, capsys):
        ref = reference["ring-table"]
        assert ref["argv"] == ["table", "--which", "ring", "--max-sum", "8",
                               "--format", "csv"]
        assert main(ref["argv"]) == 0
        assert capsys.readouterr().out.splitlines() == ref["lines"]

    def test_invariants_large_has_the_recorded_fields(self, reference,
                                                      capsys):
        wl = perfbench_workloads()
        fields = reference["invariants-large"]["fields"]
        results = []
        for n, m in wl.LARGE_WEIGHTS:
            argv = wl.invariants_argv(n, m, 1, 1)
            code = main(argv)
            out = capsys.readouterr().out
            rep = json.loads(out)
            assert code == 0
            assert [c["pass"] for c in rep["checks"]] == [True, True]
            assert {k: rep["invariants"][k] for k in wl.INVARIANT_FIELDS} \
                == fields[f"{n},{m}"]
            results.append((argv, code, out.encode()))
        assert wl.gate_invariants(results, reference["invariants-large"]) \
            == (len(wl.LARGE_WEIGHTS), 0, [])


class TestPins:
    """The output pins that are cheap enough for the suite; the others
    (verify --max-sum 24, 32, 48 and 64) run with `python tools/pins.py`."""

    CHEAP = ("verify-16", "ring-16", "invariants-31-32")

    @pytest.fixture(scope="class")
    def pins(self):
        """tools/pins.py, which checks the output pins of PINS.json."""
        spec = importlib.util.spec_from_file_location("pins", PINS_TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("name", CHEAP)
    def test_a_cheap_pin_holds(self, pins, name):
        pin = next(p for p in pins.load()["pins"] if p["name"] == name)
        ok, line = pins.check(pin)
        assert ok, line

    def test_the_pins_cover_the_recorded_outputs(self, pins):
        data = pins.load()
        assert data["recorded_at"]
        assert {p["name"] for p in data["pins"]} >= set(self.CHEAP) | {
            "verify-24", "verify-32", "verify-48", "verify-64"}
        for pin in data["pins"]:
            assert len(pin["sha256"]) == 64 and pin["exit"] == 0, pin["name"]

    def test_a_mismatch_exits_1(self, pins, monkeypatch, tmp_path, capsys):
        data = pins.load()
        pin = next(p for p in data["pins"] if p["name"] == "invariants-31-32")
        data["pins"] = [dict(pin, sha256="0" * 64)]
        path = tmp_path / "PINS.json"
        path.write_text(json.dumps(data))
        monkeypatch.setattr(pins, "PINS", path)
        assert pins.main([]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL invariants-31-32") and "sha256" in out
        assert out.splitlines()[-1] == "1 pins, 1 failed"


class TestReportCommands:
    def test_basis_text_smoke(self):
        r = run_cli("basis", "--n", "1", "--m", "1", "--alpha", "0",
                    "--beta", "1", "--format", "text")
        assert r.returncode == 0
        assert "hh1: h1 h2 h3 h4 h3p h4p" in r.stdout

    def test_ring_defect_row_still_exits_zero(self):
        # the stored row on this stratum is inconsistent; the report documents
        # that and the computed presentation passes its own degree counts
        r = run_cli("ring", "--n", "1", "--m", "2", "--alpha", "2",
                    "--beta", "-1", "--format", "json")
        assert r.returncode == 0
        rep = json.loads(r.stdout)
        assert rep["ring"]["stored_row_matches"] is False
        assert rep["ring"]["ideal"] == ["s1s2"]

    def test_stored_row_is_rendered_in_the_computed_numbering(self, capsys):
        # the row numbers h3p before h4; the computed ring and the rendered
        # stored row both number h4 before h3p
        assert main(["ring", "--n", "1", "--m", "1", "--alpha", "0",
                     "--beta", "1", "--format", "json"]) == 0
        ring = json.loads(capsys.readouterr().out)["ring"]
        assert ring["generators"] == ["h1", "h2", "h3", "h4", "h3p", "h4p"]
        assert ring["stored_row_ideal"] == [
            "s2s3", "s2s5", "s3s5", "s4s6", "s1s4 - s2s4", "s1s6 - s2s6"]

    def test_a_row_with_an_extra_generator_fails_without_a_traceback(
            self, monkeypatch, capsys):
        ring_table_row = yoneda.ring_table_row

        def wider(inst):
            row = ring_table_row(inst)
            return {**row, "a": row["a"] + 1, "order": row["order"] + ["h9"],
                    "ideal": row["ideal"] + [{(1, row["a"] + 1): Q(1)}]}

        monkeypatch.setattr(yoneda, "ring_table_row", wider)
        status = main(["ring", "--n", "1", "--m", "3", "--alpha", "0",
                       "--beta", "1", "--format", "json"])
        rep = json.loads(capsys.readouterr().out)
        assert status == 1
        assert rep["ring"]["stored_row_ideal"] == [
            "s1s4 - s2s4", "s2s3", "s1s5"]
        assert [(c["name"], c["pass"]) for c in rep["checks"]] == [
            ("table-row-agreement", False),
            ("presentation-degree-counts", True)]

    def test_an_undocumented_failing_row_is_not_called_a_defect(
            self, monkeypatch, capsys):
        # (1,3,0,1) is not a documented defect stratum, so a stored row
        # that fails there must not be reported as the documented defect.
        ring_table_row = yoneda.ring_table_row

        def fifth_generator(inst):
            row = ring_table_row(inst)
            return {**row, "a": row["a"] + 1, "order": row["order"] + ["h5"]}

        monkeypatch.setattr(yoneda, "ring_table_row", fifth_generator)
        status = main(["ring", "--n", "1", "--m", "3", "--alpha", "0",
                       "--beta", "1", "--format", "text"])
        lines = capsys.readouterr().out.splitlines()
        assert status == 1
        assert "check: table-row-agreement FAIL (row not reproduced)" in lines

    def test_a_defect_row_passes_only_with_its_documented_defect(
            self, monkeypatch, capsys):
        # the n = 1 (II, C2) row for m >= 3 is a documented defect row (its
        # printed ideal {0}); with b = m - 3 in place of m + 3 it also shows
        # a defect that is not documented, and the gate must fail it
        ring_table_row = yoneda.ring_table_row

        def wrong_b(inst):
            row = ring_table_row(inst)
            if yoneda.ring_row_defect_expected(inst) and inst.m >= 3:
                return {**row, "b": inst.m - 3}
            return row

        monkeypatch.setattr(yoneda, "ring_table_row", wrong_b)
        status = main(["verify", "--max-sum", "6", "--only", "ring"])
        lines = capsys.readouterr().out.splitlines()
        assert status == 1
        assert [line.split()[1:3] for line in lines
                if line.startswith("FAIL")] == [
            ["n=1", f"m={m}"] for m in (3, 4, 5)]
        assert all(line.endswith("(defect row not as documented)")
                   for line in lines if line.startswith("FAIL"))
        assert sum("(documented defect row)" in line for line in lines) == 1

    def test_ring_table_never_reads_the_stored_rows(self, monkeypatch,
                                                    capsys):
        argv = ["table", "--which", "ring", "--max-sum", "8"]
        assert main(argv) == 0
        want = capsys.readouterr().out

        def forbidden(inst):
            raise AssertionError("the ring table read a stored row")

        monkeypatch.setattr(yoneda, "ring_table_row", forbidden)
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("which", ["hh1", "hh2"])
    def test_label_tables_build_no_complex(self, monkeypatch, capsys, which):
        argv = ["table", "--which", which, "--max-sum", "8"]
        assert main(argv) == 0
        want = capsys.readouterr().out

        def forbidden(*args):
            raise AssertionError("a label table built a complex")

        monkeypatch.setattr(HomComplex, "__init__", forbidden)
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_ring_table_builds_a_complex_only_for_a_product(self, monkeypatch,
                                                            capsys):
        argv = ["table", "--which", "ring", "--max-sum", "8"]
        assert main(argv) == 0
        want = capsys.readouterr().out

        built, init = [], HomComplex.__init__

        def recording(self, inst):
            built.append(inst)
            init(self, inst)

        monkeypatch.setattr(HomComplex, "__init__", recording)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        several = [inst for n, m in sweep_weights(8)
                   for inst in sample_instances(n, m)
                   if len(basis_labels(inst)[0]) >= 2]
        assert built == several and len(built) == 16

    @pytest.mark.parametrize("n,m", sweep_weights(12))
    def test_single_class_ring_rows_match_the_complex(self, n, m):
        # the table reads these rows off the stratum; the complex must agree
        # with them and certify the one HH^1 class as a cocycle
        single = [inst for inst in sample_instances(n, m)
                  if len(basis_labels(inst)[0]) == 1]
        for inst in single:
            C = HomComplex(inst)
            assert cli._ring_row(inst) == ref_ring_row(inst, C)
            assert hh1_cocycles(C)

    def test_invariants_surface_obstruction(self):
        r = run_cli("invariants", "--n", "2", "--m", "3", "--format", "json")
        rep = json.loads(r.stdout)
        assert rep["invariants"]["serre_unipotent"] is False
        assert rep["invariants"]["surface_obstructed"] is True
        assert rep["invariants"]["chi_hh"] == "7"


def ref_ring_row(inst, C):
    """A ring-table row computed from the Hom complex C of inst, as every
    row once was."""
    pres = yoneda.ring_presentation(C)
    gens = cli._ideal_strings(pres["pairs"], pres["ideal"])
    return cli._stratum_cells(inst.key(), inst) + [
        str(pres["a"]), str(pres["b"]), "; ".join(gens) if gens else "0"]


def instance_argv(command, inst):
    return [command, "--n", str(inst.n), "--m", str(inst.m),
            f"--alpha={inst.alpha}", f"--beta={inst.beta}", "--format", "json"]


class TestCheckRegistry:
    """Each single-instance command reports the checks of its `verify`
    group, and the conditions folded into those groups can fail."""

    @pytest.mark.parametrize("command", list(REPORTS))
    def test_command_checks_equal_its_verify_group(self, command, capsys,
                                                   monkeypatch):
        monkeypatch.delenv("HH_THREADS", raising=False)
        group = REPORTS[command][0]
        assert main(["verify", "--max-sum", "5", "--only", group,
                     "--format", "json"]) == 0
        by_instance = {}
        for c in json.loads(capsys.readouterr().out)["checks"]:
            if c["group"] == group:
                by_instance.setdefault(c["instance"], []).append(
                    (c["name"], c["pass"], c["detail"]))
        insts = [inst for n, m in sweep_weights(5)
                 for inst in sample_instances(n, m)]
        assert sorted(by_instance) == sorted(inst.key() for inst in insts)
        for inst in insts:
            assert main(instance_argv(command, inst)) == 0
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [(c["name"], c["pass"], c["detail"]) for c in checks] \
                == by_instance[inst.key()], inst.key()

    def test_wrong_euler_characteristic_fails_compute_and_dims(
            self, monkeypatch, capsys):
        chi = cli.euler_characteristic_closed_form
        monkeypatch.setattr(cli, "euler_characteristic_closed_form",
                            lambda inst: chi(inst) + 1)
        monkeypatch.delenv("HH_THREADS", raising=False)
        assert main(["compute", "--n", "2", "--m", "3", "--alpha", "0",
                     "--beta", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["checks"][0]["pass"] is False
        assert main(["verify", "--max-sum", "3", "--only", "dims",
                     "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["name"] for c in checks if not c["pass"]} == {"dims-match"}

    def test_flipped_trace_verdict_fails_invariants(self, monkeypatch, capsys):
        derived = cli.derived_invariants

        def flipped(inst):
            inv = derived(inst)
            return {**inv, "trace_matches_rank": not inv["trace_matches_rank"]}

        monkeypatch.setattr(cli, "derived_invariants", flipped)
        monkeypatch.delenv("HH_THREADS", raising=False)
        assert main(["invariants", "--n", "1", "--m", "2"]) == 1
        failing = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]
                   if not c["pass"]]
        assert failing == ["unipotency-verdict"]
        assert main(["verify", "--max-sum", "3", "--only", "invariants",
                     "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["name"] for c in checks if not c["pass"]} \
            == {"unipotency-verdict"}


class TestVerifyWorkers:
    # verify_workers only computes the count; no pool is started here.
    @pytest.mark.parametrize("value,items,cpus,expected", [
        ("", 50, 4, 1), ("0", 50, 4, 1), ("-2", 50, 4, 1), ("abc", 50, 4, 1),
        (" 2 ", 50, 4, 2), ("1000000", 50, 4, 4), ("8", 3, 4, 3),
        ("8", 3, None, 1),
    ])
    def test_clamped_to_cpus_and_items(self, value, items, cpus, expected,
                                       monkeypatch, capsys):
        # where os has no affinity mask, os.cpu_count() counts the CPUs
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert verify_workers(value, items) == expected
        warned = capsys.readouterr().err
        assert warned.count("warning") == (1 if value == "abc" else 0)

    @pytest.mark.parametrize("mask,expected", [({0}, 1), ({0, 2, 3}, 3)])
    def test_clamped_to_the_affinity_mask(self, mask, expected, monkeypatch):
        # taskset -c 0 on a four-CPU host: one CPU to run on, not four
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask,
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert verify_workers("8", 20) == expected
