import json
import re
from fractions import Fraction as F

import numpy as np
import pytest

import holecert as hc
from holecert import cli
from holecert.cli import main


def strip_timings(text: str) -> str:
    doc = json.loads(text)
    doc["manifest"].pop("timings", None)
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def map_path():
    return hc.bundled_map_path()


@pytest.fixture(scope="module")
def shift_map_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "shift10.json"
    hc.maps.save_map(hc.full_branch_linear(10), path)
    return str(path)


@pytest.fixture(scope="module")
def cli_certified(tmp_path_factory, shift_map_path, cache_dir):
    """Three identical certify runs against the shared cache (1 cold at most)."""
    d = tmp_path_factory.mktemp("cli-certify")
    outs = [d / f"r{i}.json" for i in range(3)]
    args = ["certify", "--map", shift_map_path, "--ell", "1/25",
            "--bins-init", "100", "--cache-dir", cache_dir]
    codes = [main(args + ["--out", str(out)]) for out in outs]
    return {"codes": codes, "outs": outs, "cache_dir": cache_dir,
            "args": args, "dir": d}


class TestKLConstantsCommand:
    def test_prints_chain(self, capsys):
        rc = main(["kl-constants", "--alpha0", "1/9", "--B0", "2/9",
                   "--r", "24/25", "--H", "45.46070939"])
        assert rc == 0
        out = capsys.readouterr().out
        values = dict(re.findall(r"(\S+)\s+(\S+)", out))
        assert "delta" not in values
        # the Lasota-Yorke constants are exact rationals
        assert values["alpha"] == "1/3" and values["Gamma"] == "10/9"
        assert values["n1"] == "1"
        assert values["n2"] == "8"
        assert float(values["mesh_threshold"]) == pytest.approx(2.319492040e-4, rel=1e-6)

    def test_closed_only_flag(self, capsys):
        rc = main(["kl-constants", "--alpha0", "1/9", "--B0", "2/9",
                   "--r", "39/40", "--H", "63.73181657",
                   "--closed-only"])
        assert rc == 0
        values = dict(re.findall(r"(\S+)\s+(\S+)", capsys.readouterr().out))
        assert float(values["mesh_threshold"]) == pytest.approx(2.425063815e-4, rel=1e-6)

    def test_domain_error_exit_code(self, capsys):
        rc = main(["kl-constants", "--alpha0", "1/9", "--B0", "2/9",
                   "--r", "1/4", "--H", "10"])
        assert rc == 1

    def test_non_finite_H_exit_code(self, capsys):
        for H in ("nan", "1e400"):
            rc = main(["kl-constants", "--alpha0", "1/9", "--B0", "2/9",
                       "--r", "24/25", "--H", H])
            assert rc == 1
            assert "need a finite H > 0, got H = " in capsys.readouterr().err

    def test_n2_never_negative(self, capsys):
        # 8 B D C H < alpha/r puts the ceiling for n2 at -2; a negative power
        # of the transfer operator would inflate epsilon1 by r^-2
        rc = main(["kl-constants", "--alpha0", "1/9", "--B0", "2/9",
                   "--r", "24/25", "--H", "0.001"])
        assert rc == 0
        values = dict(re.findall(r"(\S+)\s+(\S+)", capsys.readouterr().out))
        assert values["n2"] == "0"
        r, B = 24 / 25, (1 - 1 / 9 + 2 / 9) / (1 - 3 / 9)
        n1 = int(values["n1"])
        assert float(values["epsilon1"]) == pytest.approx(
            r ** n1 / (8 * B * (0.001 * B + 1 / (1 - r))), rel=1e-9)

    @pytest.mark.parametrize("alpha0", ["3195/10000", "31941/100000"])
    def test_underflow_exit_code(self, capsys, alpha0):
        # r^(n1+n2) leaves epsilon1 at 0, then at a subnormal value whose
        # transfer bound 1/(2 epsilon1) is infinite
        rc = main(["kl-constants", "--alpha0", alpha0, "--B0", "8/3",
                   "--r", "24/25", "--H", "100"])
        assert rc == 1
        assert "underflows double precision" in capsys.readouterr().err

    def test_overflow_exit_code(self, capsys):
        # alpha = 3 alpha0 just below r takes n1 = 22181: r^-n1 is about e^905
        rc = main(["kl-constants", "--alpha0", "31999/100000", "--B0", "8/3",
                   "--r", "24/25", "--H", "100"])
        assert rc == 1
        assert "r^-n1 = 0.96^-22181 overflows double precision (n1 = 22181)" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("r, H, message", [
        ("24/25", "1e308",
         "8 B D C H = 8 B D r^-n1 H overflows double precision (n1 = 1, H = 1e+308)"),
        # r = 1 - 2^-53, the double next below 1: gamma rounds to 1
        ("9007199254740991/9007199254740992", "45", "rounds to 1.0, outside (0, 1)"),
    ], ids=["product-overflow", "gamma-rounds-to-1"])
    def test_double_precision_exit_code(self, capsys, r, H, message):
        rc = main(["kl-constants", "--alpha0", "1/9", "--B0", "2/9", "--r", r, "--H", H])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["kl-constants", "--alpha0", "not-a-number", "--B0", "0",
                  "--r", "1/2", "--H", "10"])
        assert exc.value.code == 2


class TestMatrixAndSpectralCommands:
    def test_spectral_from_map(self, tmp_path, map_path):
        report = tmp_path / "spectral.json"
        # the bundled map carries alpha0 = 1/9 and B0 = 2/9
        rc = main(["spectral", "--map", map_path, "--bins", "100", "--r", "24/25",
                   "--delta", "1/26", "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["report"]["n_bins"] == 100
        assert doc["report"]["h_star"] > 0
        assert len(doc["report"]["invariant_density"]) == 100
        assert doc["report"]["unit_eigenvalue"] == pytest.approx(1.0, abs=1e-12)
        assert doc["report"]["spectral_radius_bound"] <= 24 / 25 - 1 / 26

        # the report is the library pipeline on the in-memory matrix, bit for bit
        record = hc.compute_record(
            hc.build_closed(hc.load_map(map_path), 100))
        bound = hc.h_star(record, 24 / 25, 1 / 26, 1 / 9, 2 / 9)
        assert doc["report"]["q_power_norms"] == list(record.q_power_norms)
        assert doc["report"]["spectral_radius_bound"] == record.spectral_radius_bound
        assert doc["report"]["neumann_bound"] == hc.neumann_bound(
            record.q_power_norms_colsum, 24 / 25)
        assert doc["report"]["h_star"] == bound.h_star

    def test_misaligned_hole_fails(self, tmp_path, shift_map_path, capsys):
        rc = main(["escape", "--map", shift_map_path, "--bins", "10",
                   "--hole", "0,1/7", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        # a partition without bins fails the same way
        rc = main(["escape", "--map", shift_map_path, "--bins", "0",
                   "--hole", "0,1/10", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "at least one bin" in capsys.readouterr().err


class TestEscapeCommands:
    def test_escape_json(self, tmp_path, shift_map_path):
        report = tmp_path / "escape.json"
        rc = main(["escape", "--map", shift_map_path, "--bins", "10",
                   "--hole", "0,1/10", "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["report"]["e_H"] == pytest.approx(0.9, abs=1e-12)
        assert doc["manifest"]["subcommand"] == "escape"

    def test_stalled_power_iteration_fails(self, tmp_path, shift_map_path, cap_power_steps,
                                           capsys):
        cap_power_steps(1)
        rc = main(["escape", "--map", shift_map_path, "--bins", "10",
                   "--hole", "0,1/10", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "bracket did not narrow" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_hole_asymptotics(self, tmp_path, shift_map_path):
        report = tmp_path / "asym.json"
        rc = main(["hole-asymptotics", "--map", shift_map_path, "--point", "0",
                   "--widths", "1/10,1/100", "--bins-per-hole", "10",
                   "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["report"]["classification"]["kind"] == "periodic"
        assert doc["report"]["predicted_limit"] == pytest.approx(0.9)


class TestCertifyCommand:
    def test_exit_code_and_report(self, cli_certified):
        assert cli_certified["codes"] == [0, 0, 0]
        doc = json.loads(cli_certified["outs"][0].read_text())
        assert doc["report"]["status"] == "certified"
        assert doc["report"]["delta_com"] == "1/26"
        assert doc["manifest"]["subcommand"] == "certify"

    def test_determinism_with_warm_cache(self, cli_certified):
        # runs 2 and 3 share identical manifests and caches
        a = strip_timings(cli_certified["outs"][1].read_text())
        b = strip_timings(cli_certified["outs"][2].read_text())
        assert a == b
        # a warm run reads spectral records and builds no matrix
        stats = json.loads(b)["manifest"]["cache_stats"]
        assert stats["matrix_builds"] == 0
        assert stats["spectral_hits"] >= 1

    def test_human_table(self, cli_certified, capsys):
        rc = main(cli_certified["args"] + ["--out",
                                           str(cli_certified["dir"] / "r3.json")])
        assert rc == 0
        table = capsys.readouterr().out
        assert "Loop I" in table
        assert "Output I" in table
        assert "epsilon_com" in table

    def test_ladder_cap_writes_failed_report(self, tmp_path, map_path, monkeypatch,
                                             capsys):
        # the transferred threshold needs 100 000 bins, past the cap
        monkeypatch.setattr(hc.certify, "LADDER_CAP", 10**4)
        out = tmp_path / "capped.json"
        rc = main(["certify", "--map", map_path, "--ell", "1/40",
                   "--bins-init", "5000", "--cache-dir", str(tmp_path / "cache"),
                   "--out", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["report"]["status"] == "failed"
        assert "cap of 10000" in doc["report"]["reason"]
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("literal, text", [("NaN", "nan"), ("1e400", "inf")])
    def test_non_finite_config_number_exit_code(self, tmp_path, capsys, literal, text):
        # json.load accepts NaN and reads 1e400 as inf; both are config errors
        path = tmp_path / "map.json"
        cfg = hc.full_branch_linear(10).to_dict()
        path.write_text(json.dumps({**cfg, "alpha0": "@"}).replace('"@"', literal))
        rc = main(["certify", "--map", str(path), "--ell", "1/25"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cannot parse rational from {text}\n"

    def test_empty_branch_list_exit_code(self, tmp_path, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"branches": []}))
        assert main(["certify", "--map", str(path), "--ell", "1/25"]) == 1
        assert capsys.readouterr().err == "error: map needs at least one branch\n"


class TestCacheCommands:
    def test_list_inspect(self, cli_certified, capsys):
        # only spectral records reach the disk; matrices stay in memory
        assert main(["cache", "list", "--cache-dir", cli_certified["cache_dir"]]) == 0
        listing = capsys.readouterr().out
        assert ".spectral.bin" in listing and ".matrix.txt" not in listing
        assert main(["cache", "inspect", "--cache-dir", cli_certified["cache_dir"]]) == 0
        inspected = capsys.readouterr().out
        assert "spectral" in inspected and "matrix" not in inspected

    def test_purge_on_scratch_dir(self, tmp_path, shift_map_path, capsys, monkeypatch):
        scratch = tmp_path / "scratch-cache"
        # one pass at 10 bins writes a record; the next ladder mesh (10 000
        # bins) is past this cap, so the run stops uncertified
        monkeypatch.setattr(hc.certify, "LADDER_CAP", 10)
        main(["certify", "--map", shift_map_path, "--ell", "1/25",
              "--bins-init", "10", "--cache-dir", str(scratch),
              "--out", str(tmp_path / "c.json")])
        # cache directories of older versions also hold text matrices
        (scratch / "x.matrix.txt").write_text("n_bins 1\n")
        # a file the cache does not own is neither listed nor purged
        (scratch / "notes.txt").write_text("keep me\n")
        capsys.readouterr()
        assert main(["cache", "inspect", "--cache-dir", str(scratch)]) == 0
        inspected = capsys.readouterr().out
        assert "legacy matrix" in inspected and "notes.txt" not in inspected
        assert main(["cache", "purge", "--cache-dir", str(scratch)]) == 0
        assert "purged 2 cached files" in capsys.readouterr().out
        assert main(["cache", "list", "--cache-dir", str(scratch)]) == 0
        assert "empty" in capsys.readouterr().out
        assert (scratch / "notes.txt").exists()

    @pytest.mark.parametrize("action", ["list", "inspect", "purge"])
    def test_read_only_commands_create_no_directory(self, tmp_path, capsys, action):
        missing = tmp_path / "x" / "deep" / "dir"
        assert main(["cache", action, "--cache-dir", str(missing)]) == 0
        assert str(missing) in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestReproduceTablesCommand:
    def test_manifests_count_their_own_cache_lookups(self, tmp_path, shift_map_path,
                                                     cache_dir, monkeypatch):
        # the session cache keeps this cheap after the shift-map certifications
        caches = []
        make_cache = cli._make_cache

        def recording_make_cache(args):
            caches.append(make_cache(args))
            return caches[-1]

        monkeypatch.setattr(cli, "_make_cache", recording_make_cache)
        rc = main(["reproduce-tables", "--map", shift_map_path, "--bins", "100",
                   "--out-dir", str(tmp_path), "--cache-dir", cache_dir])
        assert rc == 1          # the bundled map's reference cells do not fit
        stats = [json.loads((tmp_path / f"{which}.json").read_text())["manifest"]["cache_stats"]
                 for which in ("table1", "table2")]
        assert len(caches) == 1
        assert {key: stats[0][key] + stats[1][key] for key in stats[0]} == caches[0].stats
        assert sum(stats[0].values()) >= 1 and sum(stats[1].values()) >= 1


class TestOneParserPerProcess:
    """``main`` builds its parser on the first call and reuses it."""

    def _sequence(self, d, shift_map_path, capsys):
        """Outputs of a run of commands through ``main``, in one cache
        directory: exit codes, stdout and stderr, and the JSON reports
        without their timings."""
        cache = str(d / "cache")
        commands = [
            ["certify", "--map", shift_map_path, "--ell", "1/25", "--bins-init", "1000",
             "--cache-dir", cache, "--out", str(d / "certify.json")],
            ["certify", "--map", shift_map_path, "--ell", "not-a-number"],
            ["kl-constants", "--alpha0", "1/9", "--B0", "2/9", "--r", "24/25",
             "--H", "45.46070939"],
            ["reproduce-tables", "--map", shift_map_path, "--bins", "1000",
             "--out-dir", str(d / "first"), "--cache-dir", cache],
            ["reproduce-tables", "--map", shift_map_path, "--bins", "1000",
             "--out-dir", str(d / "second"), "--cache-dir", cache],
            ["escape", "--map", shift_map_path, "--bins", "100", "--hole", "0,1/10",
             "--out", str(d / "escape.json")],
        ]
        outputs = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        reports = {path.relative_to(d).as_posix(): strip_timings(path.read_text())
                   for path in sorted(d.rglob("*.json"))}
        return outputs, reports

    def test_reused_parser_gives_fresh_parser_outputs(self, tmp_path, shift_map_path,
                                                      capsys, monkeypatch):
        (tmp_path / "reused").mkdir()
        (tmp_path / "fresh").mkdir()
        cli._build_parser.cache_clear()
        reused = self._sequence(tmp_path / "reused", shift_map_path, capsys)
        built = cli._build_parser.cache_info()
        assert (built.misses, built.hits) == (1, 5)
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = self._sequence(tmp_path / "fresh", shift_map_path, capsys)
        assert [code for code, *_ in reused[0]] == [0, 2, 0, 1, 1, 0]
        assert reused == fresh
        assert len(reused[1]) == 6

    def test_dispatch_reads_the_module_at_call_time(self, monkeypatch, capsys):
        argv = ["kl-constants", "--alpha0", "1/9", "--B0", "2/9", "--r", "24/25", "--H", "45"]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "_cmd_kl_constants", lambda args: calls.append(args) or 7)
        assert main(argv) == 7
        assert [(a.subcommand, a.H) for a in calls] == [("kl-constants", 45.0)]
        assert "func" not in vars(calls[0])


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


#: the report shapes: every key below is a field of a result dataclass
#: (or a derived value of the spectral record), so a renamed or dropped
#: field fails here instead of silently reshaping the JSON
MANIFEST_KEYS = {"subcommand", "parameters", "map_fingerprint", "version",
                 "timings", "cache_stats"}
SPECTRAL_KEYS = {"n_bins", "r", "delta", "unit_eigenvalue", "unit_residual",
                 "spectral_radius_bound", "projection_norm", "q_power_norms",
                 "q_power_norms_colsum", "truncation_N", "invariant_density",
                 "neumann_bound", "power_iterations"}
CERTIFY_KEYS = {"status", "reason", "map_label", "map_fingerprint", "ell", "r",
                "Gamma", "escape_coefficient", "escape_guarantee", "delta_com",
                "epsilon_com", "hole_bound", "iterations"}
ITERATION_KEYS = {"index", "n_bins", "mesh", "delta", "used_bootstrap", "h_star",
                  "transferred_H", "neumann", "neumann_rowsum", "n1", "n2",
                  "epsilon0", "threshold", "step7_pass", "closed_only_threshold",
                  "spectral_radius_bound"}
ESCAPE_KEYS = {"hole", "n_bins", "e_H", "e_H_lower", "e_H_upper", "escape_rate",
               "total_escape", "iterations", "accim_density"}
ASYMPTOTICS_KEYS = {"point", "widths", "holes", "n_bins", "e_values", "ratios",
                    "extrapolated_limit", "low_confidence", "classification",
                    "f_star_value", "f_star_source", "predicted_limit"}
CLASSIFICATION_KEYS = {"kind", "period", "derivative"}


class TestReportShapes:
    def _run(self, tmp_path, argv):
        out = tmp_path / f"{argv[0]}-{len(list(tmp_path.iterdir()))}.json"
        assert main(argv + ["--out", str(out)]) == 0
        doc = _strict_json(out.read_text())
        assert set(doc) == {"manifest", "report"}
        assert set(doc["manifest"]) == MANIFEST_KEYS
        return doc

    def test_spectral(self, tmp_path, shift_map_path):
        argv = ["spectral", "--map", shift_map_path, "--bins", "10", "--r", "24/25"]
        plain = self._run(tmp_path, argv)
        assert set(plain["report"]) == SPECTRAL_KEYS
        assert plain["report"]["delta"] is None
        assert plain["manifest"]["parameters"] == {
            "map": shift_map_path, "bins": 10, "r": "24/25", "delta": None}
        bounded = self._run(tmp_path, argv + ["--delta", "1/26"])
        assert set(bounded["report"]) == SPECTRAL_KEYS | {"resolvent_l1_bound", "h_star"}
        assert bounded["manifest"]["parameters"]["delta"] == "1/26"
        for flag in ("--alpha0", "--B0"):       # the map carries its constants
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--delta", "1/26", flag, "1/9"])
            assert exc.value.code == 2

    def test_spectral_manifest_names_the_constants(self, tmp_path):
        # h_star depends on the map's alpha0, so two maps that differ only
        # there must not share a manifest
        docs = {}
        for alpha0 in ("1/9", "1/10"):
            path = tmp_path / f"shift-{alpha0.replace('/', '_')}.json"
            config = {**hc.full_branch_linear(10).to_dict(), "alpha0": alpha0, "B0": "2/9"}
            path.write_text(json.dumps(config))
            docs[alpha0] = self._run(tmp_path, ["spectral", "--map", str(path), "--bins",
                                                "10", "--r", "24/25", "--delta", "1/26"])
        assert docs["1/9"]["manifest"]["map_fingerprint"] != \
            docs["1/10"]["manifest"]["map_fingerprint"]
        assert docs["1/9"]["report"]["h_star"] != docs["1/10"]["report"]["h_star"]

    def test_certify(self, cli_certified):
        doc = _strict_json(cli_certified["outs"][0].read_text())
        assert set(doc["manifest"]) == MANIFEST_KEYS
        assert set(doc["manifest"]["parameters"]) == {"map", "ell", "bins_init"}
        assert set(doc["report"]) == CERTIFY_KEYS
        assert all(set(it) == ITERATION_KEYS for it in doc["report"]["iterations"])

    def test_escape(self, tmp_path, shift_map_path):
        doc = self._run(tmp_path, ["escape", "--map", shift_map_path, "--bins", "10",
                                   "--hole", "0,1/10"])
        assert set(doc["report"]) == ESCAPE_KEYS
        assert doc["report"]["hole"] == ["0", "1/10"]
        assert doc["manifest"]["parameters"] == {
            "map": shift_map_path, "bins": 10, "hole": ["0", "1/10"]}

    def test_total_escape_stays_strict_json(self, tmp_path, shift_map_path):
        # e_H = 0 makes the escape rate infinite; it is written as "inf"
        doc = self._run(tmp_path, ["escape", "--map", shift_map_path, "--bins", "10",
                                   "--hole", "0,1"])
        assert doc["report"]["e_H"] == 0.0
        assert doc["report"]["escape_rate"] == "inf"
        assert doc["report"]["total_escape"] is True

    def test_numpy_values_stay_strict_json(self):
        # numpy values are duck-typed to Python values, so every float takes
        # the float rule: a finite one is a number, any other its repr
        doc = cli._jsonify({"a": np.array([1.0, np.inf]), "b": np.array([[0.5], [-np.inf]]),
                            "c": np.float64("nan"), "d": np.int64(3), "e": np.float32(0.25),
                            "f": np.bool_(True)})
        assert json.loads(json.dumps(doc, allow_nan=False)) == {
            "a": [1.0, "inf"], "b": [[0.5], ["-inf"]], "c": "nan", "d": 3, "e": 0.25,
            "f": True}
        # a finite float array is written as the list of its Python floats
        values = np.array([0.1, 2.0, 1e-300])
        assert json.dumps(cli._jsonify(values)) == json.dumps([float(v) for v in values])

    def test_hole_asymptotics(self, tmp_path, shift_map_path):
        doc = self._run(tmp_path, ["hole-asymptotics", "--map", shift_map_path,
                                   "--point", "0", "--widths", "1/10,1/100"])
        assert set(doc["report"]) == ASYMPTOTICS_KEYS
        assert set(doc["report"]["classification"]) == CLASSIFICATION_KEYS
        assert doc["report"]["holes"][0] == ["0", "1/10"]
        assert doc["manifest"]["parameters"] == {
            "map": shift_map_path, "point": "0", "widths": ["1/10", "1/100"],
            "bins_per_hole": 10}

    def test_reproduce_tables(self, tmp_path, shift_map_path, cache_dir):
        rc = main(["reproduce-tables", "--map", shift_map_path, "--bins", "100",
                   "--out-dir", str(tmp_path), "--cache-dir", cache_dir])
        assert rc == 1          # the bundled map's reference cells do not fit
        for which, ell in (("table1", "1/25"), ("table2", "1/40")):
            doc = _strict_json((tmp_path / f"{which}.json").read_text())
            assert set(doc["manifest"]) == MANIFEST_KEYS
            assert doc["manifest"]["parameters"] == {
                "map": shift_map_path, "bins": 100, "table": which, "ell": ell}
            payload = doc["report"]
            assert set(payload) == {"report", "cells", "all_pass"}
            assert set(payload["report"]) == CERTIFY_KEYS
            assert all(set(it) == ITERATION_KEYS for it in payload["report"]["iterations"])
            assert all(set(cell) == {"cell", "got", "expected", "rel", "tol", "pass"}
                       for cell in payload["cells"])
