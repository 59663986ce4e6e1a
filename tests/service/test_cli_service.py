"""CLI wiring: --version plus the serve/submit subcommands."""

import json
import socket
import uuid

import pytest

from repro import __version__
from repro.cli import main
from repro.inject import StoreCorruptor
from repro.service import SweepService


class TestVersionFlag:
    def test_version_exits_zero_with_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro-partial-faults {__version__}"

    def test_serve_and_submit_share_the_version(self, capsys):
        for argv in (["serve", "--version"], ["submit", "--version"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            out = capsys.readouterr().out
            assert out.strip() == f"repro-partial-faults {__version__}"


class TestSubmitCommand:
    @pytest.fixture
    def stub_name(self, register_experiment):
        # A unique name keeps parallel test runs from ever colliding on
        # a real experiment's content address.
        name = "zz-" + uuid.uuid4().hex[:6]
        register_experiment(name, block="cli stub output")
        return name

    def test_submit_wait_prints_the_report(
        self, stub_name, capsys, tmp_path
    ):
        json_path = str(tmp_path / "result.json")
        with SweepService(port=0) as service:
            rc = main([
                "submit", stub_name, "--url", service.url,
                "--wait", "--timeout", "30", "--poll", "0.05",
                "--json", json_path,
            ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "cli stub output" in captured.out
        # Report then a blank line — the classic CLI's print(report);
        # print() shape, so piped output is interchangeable.
        assert captured.out.endswith("claims hold --\n\n")
        assert "[submit] job " in captured.err
        assert "done" in captured.err
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["kind"] == "job-result"
        assert payload["experiment"] == stub_name

    def test_submit_without_wait_prints_the_job_id(self, stub_name, capsys):
        with SweepService(port=0) as service:
            rc = main(["submit", stub_name, "--url", service.url])
            assert rc == 0
            captured = capsys.readouterr()
            job_id = captured.out.strip()
            assert len(job_id) == 12 and int(job_id, 16) >= 0
            assert job_id in captured.err

    def test_submit_follow_streams_progress_then_report(
        self, stub_name, capsys
    ):
        with SweepService(port=0) as service:
            rc = main([
                "submit", stub_name, "--url", service.url,
                "--follow", "--timeout", "30", "--poll", "0.05",
            ])
        assert rc == 0
        captured = capsys.readouterr()
        # --follow implies --wait: the report still lands on stdout
        assert "cli stub output" in captured.out
        follow_lines = [
            line for line in captured.err.splitlines()
            if line.startswith("[follow]")
        ]
        assert follow_lines, "no live progress reached stderr"
        assert any("finished" in line for line in follow_lines)

    def test_resubmission_reports_the_dedup(self, stub_name, capsys):
        with SweepService(port=0) as service:
            args = [
                "submit", stub_name, "--url", service.url,
                "--wait", "--timeout", "30", "--poll", "0.05",
            ]
            assert main(args) == 0
            first = capsys.readouterr()
            assert main(args) == 0
            second = capsys.readouterr()
        assert "deduplicated into existing job" not in first.err
        assert "deduplicated into existing job" in second.err
        assert second.out == first.out  # byte-identical served report

    def test_submit_wait_recomputes_a_damaged_result(
        self, register_experiment, capsys, tmp_path
    ):
        name = "zz-" + uuid.uuid4().hex[:6]
        calls = register_experiment(name, block="cli stub output")
        store_dir = str(tmp_path / "store")
        with SweepService(port=0, store_dir=store_dir) as service:
            args = [
                "submit", name, "--url", service.url,
                "--wait", "--timeout", "30", "--poll", "0.05",
            ]
            assert main(args) == 0
            first = capsys.readouterr()
            StoreCorruptor(store_dir, seed=1).arm()
            assert main(args) == 0
            second = capsys.readouterr()
        assert second.out == first.out
        assert "cli stub output" in second.out
        assert calls.count == 2

    def test_invalid_spec_exits_2(self, capsys):
        # fp-space has no sweep grid, so --n-r is a spec error the
        # client catches before ever talking to a server.
        rc = main(["submit", "fp-space", "--url",
                   "http://127.0.0.1:9", "--n-r", "4"])
        assert rc == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_unreachable_service_exits_3(self, capsys):
        rc = main(["submit", "march", "--url", "http://127.0.0.1:9"])
        assert rc == 3
        assert "cannot reach sweep service" in capsys.readouterr().err


class TestServeCommand:
    def test_bad_arguments_exit_2(self):
        for argv in (
            ["serve", "--queue-limit", "0"],
            ["serve", "--workers", "0"],
            ["serve", "--store-max", "0"],
            ["serve", "--store-ttl", "0"],
            ["serve", "--port", "-1"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2

    def test_occupied_port_exits_3(self, capsys):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert rc == 3
        assert "cannot bind" in capsys.readouterr().err
