"""CLI surface of the compiler: ``repro compile`` and its program cache."""

import json

import pytest

from repro.cli import main


class TestCompileCommand:
    def test_prints_program_summary(self, capsys):
        assert main(["compile", "model4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "pipeline: ingest -> packing -> stratify -> lower -> schedule" in out
        assert "stages 14" in out
        assert "dense_core" in out and "sparse_core" in out
        assert "est. makespan" in out and "scheduled" in out
        assert "bundle occupancy" in out
        assert "(bypassed)" in out

    def test_passes_spec_controls_pipeline(self, capsys):
        assert main([
            "compile", "model4", "--no-cache", "--passes", "packing",
        ]) == 0
        out = capsys.readouterr().out
        assert "pipeline: ingest -> packing -> lower" in out
        assert "scheduled" not in out

    def test_ecp_thresholds_enable_the_pass(self, capsys):
        assert main([
            "compile", "model4", "--no-cache",
            "--theta-q", "6", "--theta-k", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "-> ecp ->" in out
        assert "θq=6" in out

    def test_dump_writes_ir_json(self, tmp_path, capsys):
        target = tmp_path / "program.json"
        assert main([
            "compile", "model4", "--no-cache", "--dump", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["model"].startswith("model4")
        assert payload["passes"][0] == "ingest"
        assert len(payload["stages"]) == 14
        assert all("ops" in stage for stage in payload["stages"])

    def test_dump_dash_prints_json_only(self, capsys):
        assert main(["compile", "model4", "--no-cache", "--dump", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"].startswith("model4")

    def test_chip_kind_changes_program(self, capsys):
        assert main([
            "compile", "model2", "--no-cache", "--chip", "sparse_heavy",
        ]) == 0
        first = capsys.readouterr().out
        assert main(["compile", "model2", "--no-cache"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_unknown_model_is_usage_error(self, capsys):
        assert main(["compile", "model99", "--no-cache"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_unknown_chip_is_usage_error(self, capsys):
        assert main(["compile", "model4", "--no-cache", "--chip", "tpu"]) == 2
        assert "unknown chip kind" in capsys.readouterr().err

    def test_mismatched_thetas_are_usage_errors(self, capsys):
        assert main(["compile", "model4", "--no-cache", "--theta-q", "6"]) == 2
        assert "together" in capsys.readouterr().err

    def test_bad_bandwidth_is_usage_error(self, capsys):
        assert main([
            "compile", "model4", "--no-cache", "--dram-gbps", "-1",
        ]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--dram-gbps", "nan"], "--dram-gbps"),
        (["--dram-gbps", "inf"], "--dram-gbps"),
        (["--theta-q", "nan", "--theta-k", "6"], "--theta-q"),
        (["--theta-q", "6", "--theta-k=-inf"], "--theta-k"),
        (["--theta-q", "inf", "--theta-k", "inf"], "--theta-q"),
        (["--dram-gbps=-inf"], "--dram-gbps"),
        (["--dram-gbps", "1e309"], "--dram-gbps"),
        (["--theta-q", "6", "--theta-k", "nan"], "--theta-k"),
    ], ids=[
        "dram-nan", "dram-inf", "theta-q-nan", "theta-k-neg-inf", "both-inf",
        "dram-neg-inf", "dram-overflow", "theta-k-nan",
    ])
    def test_non_finite_float_exits_2_naming_the_flag(self, argv, flag, capsys):
        # `nan <= 0` is False: without the finite-float cast a NaN
        # bandwidth would compile with "DRAM traffic 0.00 MB"
        with pytest.raises(SystemExit) as exc:
            main(["compile", "model4", "--no-cache", *argv])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite float" in (
            capsys.readouterr().err
        )

    def test_bad_pass_spec_is_usage_error(self, capsys):
        assert main([
            "compile", "model4", "--no-cache", "--passes", "vectorize",
        ]) == 2
        assert "unknown compiler pass" in capsys.readouterr().err


class TestCacheCoversPrograms:
    """`repro cache ls|gc` also manages the program store."""

    def seed_programs(self, root, count=3):
        programs = root / "programs"
        for index in range(count):
            key = f"{index:02d}" + "cd" * 31
            path = programs / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}")

    def test_ls_reports_program_store(self, tmp_path, capsys):
        self.seed_programs(tmp_path)
        assert main(["cache", "ls", "--artifacts", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "program: 3 entries" in out

    def test_ls_reports_empty_program_store(self, tmp_path, capsys):
        assert main(["cache", "ls", "--artifacts", str(tmp_path)]) == 0
        assert "program: 0 entries" in capsys.readouterr().out

    def test_gc_prunes_program_store(self, tmp_path, capsys):
        self.seed_programs(tmp_path, count=4)
        assert main([
            "cache", "gc", "--keep-latest", "1", "--artifacts", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "program: kept 1, removed 3" in out
        assert len(list((tmp_path / "programs").glob("*/*.json"))) == 1
