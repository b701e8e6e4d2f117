"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main
from repro.core import catalog


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["certify", "no-such-scheme"])

    def test_approx_names_are_plain_certify_choices(self):
        args = build_parser().parse_args(["certify", "approx-vertex-cover"])
        assert args.scheme == "approx-vertex-cover"


class TestListSchemes:
    def test_every_registered_name_listed(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        for name in catalog.names():
            assert name in out
        assert "spanning-tree-ptr" in out
        assert "mst" in out
        assert "Theta(log n)" in out
        assert "alpha=2" in out
        assert "eps=1" in out  # declared parameters are rendered

    def test_fields_are_separated(self, capsys):
        """Regression: approx rows used to concatenate ``alpha=...`` and
        ``bound=...`` with no separator between the two fields."""
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines
        for line in lines:
            assert re.search(r"alpha=\S+\s", line), line
            assert not re.search(r"alpha=\S*bound=", line), line
            assert " bound=" in line

    def test_kinds_rendered_uniformly(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "kind=exact" in out
        assert "kind=approx" in out
        assert "kind=universal" in out


    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_1_quietly(self, run_into_closed_pipe, unbuffered):
        done = run_into_closed_pipe("list-schemes", unbuffered=unbuffered)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


class TestCertify:
    def test_certify_accepts(self, capsys):
        code = main(["certify", "spanning-tree-ptr", "--n", "16", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all accept = True" in out

    def test_certify_sizes_each_certificate_once(self, capsys, monkeypatch):
        """The proof-size line reads both the maximum and the total;
        they share one sizing pass over the certificates."""
        from repro.core.scheme import ProofLabelingScheme

        sized = []
        original = ProofLabelingScheme.certificate_bits

        def counting(self, certificate):
            sized.append(certificate)
            return original(self, certificate)

        monkeypatch.setattr(ProofLabelingScheme, "certificate_bits", counting)
        n = 24
        assert main(["certify", "spanning-tree-ptr", "--n", str(n)]) == 0
        assert "proof size" in capsys.readouterr().out
        assert len(sized) == n

    @pytest.mark.parametrize("name", ["spanning-tree-ptr", "bfs-tree", "leader"])
    def test_tree_schemes_decide_on_the_prover_columns(self, name, capsys):
        """``certify`` hands the decider the prover's columns as they
        came: one batched decision that interns no value."""
        from repro.obs import metrics as obs

        with obs.collect("t") as metrics:
            assert main(["certify", name, "--family", "random_tree",
                         "--n", "64"]) == 0
        assert "all accept = True" in capsys.readouterr().out
        assert metrics.counter("decide.batch") == 1
        assert metrics.counter("decide.batch.interned") == 0

    def test_certify_weighted_scheme(self, capsys):
        assert main(["certify", "mst", "--n", "10", "--seed", "1"]) == 0
        assert "proof size" in capsys.readouterr().out

    def test_certify_unconstructible_exits(self):
        with pytest.raises(SystemExit):
            # bipartite on a family that is generally non-bipartite
            main(["certify", "bipartite", "--family", "gnp_dense", "--n", "13"])

    def test_certify_defaults_to_supported_family(self, capsys):
        # No --family: the spec's own sampler must pick a bipartite graph.
        assert main(["certify", "bipartite", "--n", "12"]) == 0
        assert "all accept = True" in capsys.readouterr().out

    @pytest.mark.parametrize("name", catalog.names())
    def test_certify_succeeds_for_every_registered_name(self, name, capsys):
        """The acceptance criterion: one uniform path for all kinds."""
        assert main(["certify", name, "--n", "14", "--seed", "5"]) == 0
        assert "all accept = True" in capsys.readouterr().out

    def test_certify_approx_reports_gap_saving(self, capsys):
        code = main(["certify", "approx-vertex-cover", "--n", "16", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all accept = True" in out
        assert "gap saving" in out
        assert "exact proof size" in out

    def test_certify_param_override_reaches_the_scheme(self, capsys):
        code = main(
            ["certify", "approx-tree-weight", "--n", "12", "--param", "eps=0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha=1.5" in out
        assert "params: eps=0.5" in out

    def test_certify_unknown_param_exits(self):
        with pytest.raises(SystemExit):
            main(["certify", "approx-tree-weight", "--n", "10",
                  "--param", "bogus=3"])

    def test_certify_malformed_param_exits(self):
        with pytest.raises(SystemExit):
            main(["certify", "approx-tree-weight", "--n", "10",
                  "--param", "eps"])

    def test_certify_attack_exact_never_fooled(self, capsys):
        code = main(
            ["certify", "leader", "--n", "12", "--attack", "--trials", "20",
             "--seed", "2"]
        )
        assert code == 0
        assert "fooled = False" in capsys.readouterr().out

    def test_certify_attack_approx_never_fooled(self, capsys):
        code = main(
            ["certify", "approx-matching", "--n", "12",
             "--attack", "--trials", "20", "--seed", "1"]
        )
        assert code == 0
        assert "fooled = False" in capsys.readouterr().out


class TestAttack:
    def test_attack_never_fooled(self, capsys):
        code = main(
            ["attack", "leader", "--n", "12", "--trials", "20", "--seed", "2"]
        )
        assert code == 0
        assert "fooled: False" in capsys.readouterr().out

    def test_attack_gap_scheme_uses_no_instance(self, capsys):
        code = main(
            ["attack", "approx-vertex-cover", "--n", "10", "--trials", "20",
             "--seed", "4"]
        )
        assert code == 0
        assert "fooled: False" in capsys.readouterr().out


class TestOtherCommands:
    def test_experiment_runs(self, capsys):
        assert main(["experiment", "f6"]) == 0
        out = capsys.readouterr().out
        assert "space-radius" in out

    def test_report_writes_file(self, tmp_path, monkeypatch):
        # Stub the (slow) full experiment suite; this test covers the
        # file-writing plumbing only.
        import repro.analysis.report as report_module

        monkeypatch.setattr(
            report_module, "generate_report", lambda: "# stub report\n"
        )
        target = tmp_path / "EXP.md"
        assert report_module.main([str(target)]) == 0
        assert target.read_text() == "# stub report\n"


class TestErrorProfile:
    def test_profiles_the_non_sensitive_pointer_scheme(self, capsys):
        code = main(
            ["error-profile", "spanning-tree-ptr", "--n", "16",
             "--distance", "4", "--samples", "1", "--trials", "8"]
        )
        # Classification (not-error-sensitive) matches the declaration.
        assert code == 0
        out = capsys.readouterr().out
        assert "classification: not-error-sensitive" in out
        assert "pattern" in out
        assert "beta^" in out

    def test_profiles_the_repair(self, capsys):
        code = main(
            ["error-profile", "es-spanning-tree", "--n", "16",
             "--distance", "2", "--distance", "4", "--samples", "2",
             "--trials", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "classification: error-sensitive" in out
        assert "declared error-sensitive: yes" in out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["error-profile", "bogus"])

    def test_es_metadata_rendered_in_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "es-spanning-tree" in out
        for line in out.splitlines():
            if line.startswith("spanning-tree-ptr"):
                assert "es=no" in line
            if line.startswith("es-spanning-tree"):
                assert "es=yes" in line


class TestSelfstabSweep:
    def test_sweep_runs_clean(self, capsys):
        code = main(
            ["selfstab-sweep", "--n", "12", "--faults", "1", "--runs", "2",
             "--detector", "st-pointer", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "F4b" in out
        assert "view ratio" in out
        assert "false negatives observed: 0" in out

    def test_sweep_accepts_approx_detectors(self, capsys):
        code = main(
            ["selfstab-sweep", "--n", "10", "--faults", "1", "--runs", "1",
             "--detector", "approx-dominating-set"]
        )
        assert code == 0
        assert "approx-dominating-set" in capsys.readouterr().out

    def test_unknown_detector_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["selfstab-sweep", "--detector", "bogus"])

    def test_sweep_param_override_forwarded(self, capsys):
        code = main(
            ["selfstab-sweep", "--n", "10", "--faults", "1", "--runs", "1",
             "--detector", "approx-dominating-set", "--param", "eps=0.5"]
        )
        assert code == 0
        assert "approx-dominating-set" in capsys.readouterr().out

    def test_sweep_unknown_param_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["selfstab-sweep", "--n", "10", "--faults", "1", "--runs", "1",
                  "--detector", "es-spanning-tree", "--param", "epsilon=0.5"])
        assert "epsilon" in str(excinfo.value)

    def test_sweep_trace_captures_cells_and_params(self, tmp_path, capsys):
        from repro.obs.trace import read_trace

        target = tmp_path / "sweep.jsonl"
        code = main(
            ["selfstab-sweep", "--n", "10", "--faults", "1", "--runs", "1",
             "--detector", "approx-dominating-set", "--param", "eps=0.5",
             "--trace", str(target)]
        )
        assert code == 0
        records = read_trace(target)
        assert records[0]["type"] == "begin"
        assert records[-1]["type"] == "metrics"
        cells = [r for r in records if r["type"] == "event"
                 and r["name"] == "campaign.cell"]
        assert cells
        assert all(c["fields"]["params"] == {"eps": "0.5"} for c in cells)
        counters = records[-1]["counters"]
        assert counters["views.built"] > 0
        assert counters["detector.sweeps"] > 0


class TestProfile:
    def test_profile_prints_counters_and_spans(self, capsys):
        code = main(["profile", "mst", "--n", "16", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "views.built" in out
        assert "messages.sent" in out
        assert "spans:" in out
        assert "decide" in out
        assert "distributed_verification" in out
        assert "all accept = True" in out
        # mst has no batched decider: the per-node oracle answered.
        assert "backend=views" in out

    def test_profile_reports_the_array_backend(self, capsys):
        code = main(["profile", "spanning-tree-ptr", "--n", "16", "--seed", "3"])
        assert code == 0
        line = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("verification:")
        )
        assert "backend=array" in line

    def test_profile_writes_trace(self, tmp_path, capsys):
        from repro.obs.trace import read_trace

        target = tmp_path / "profile.jsonl"
        code = main(
            ["profile", "leader", "--n", "12", "--trace", str(target)]
        )
        assert code == 0
        assert f"trace written: {target}" in capsys.readouterr().out
        records = read_trace(target)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "begin"
        assert kinds[-1] == "metrics"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"certify", "message-path"} <= span_names

    def test_profile_accepts_params(self, capsys):
        code = main(
            ["profile", "approx-tree-weight", "--n", "12", "--param", "eps=0.5"]
        )
        assert code == 0
        assert "eps=0.5" in capsys.readouterr().out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "bogus"])


class TestTraceFlag:
    def test_certify_trace_round_trips(self, tmp_path):
        from repro.obs.trace import read_trace

        target = tmp_path / "certify.jsonl"
        code = main(
            ["certify", "leader", "--n", "12", "--trace", str(target)]
        )
        assert code == 0
        records = read_trace(target)
        assert records[0]["type"] == "begin"
        assert records[0]["scope"] == "certify"
        assert records[-1]["type"] == "metrics"
        counters = records[-1]["counters"]
        # leader verifies on the batched array path (no views built).
        assert counters["decide.batch.nodes"] > 0

    def test_untraced_commands_leave_no_scope_open(self):
        from repro.obs import metrics as obs

        assert main(["certify", "leader", "--n", "10"]) == 0
        assert not obs.scoped()


class TestListSchemesJson:
    def test_machine_readable_catalog(self, capsys):
        import json

        assert main(["list-schemes", "--json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in specs] == catalog.names()
        by_name = {s["name"]: s for s in specs}
        st = by_name["spanning-tree-ptr"]
        assert st["kind"] == "exact" and st["visibility"] == "kkp"
        eps = [p for p in by_name["approx-tree-weight"]["params"]
               if p["name"] == "eps"]
        assert eps and eps[0]["exclusive"] is True
        # every entry carries the full stable key set
        keys = {"name", "kind", "summary", "size_bound", "visibility",
                "radius", "weighted", "alpha", "graph_fitted",
                "error_sensitive", "batch", "params"}
        assert all(keys <= set(s) for s in specs)


class TestServiceCommands:
    def test_make_envelope_writes_wire_form(self, tmp_path, capsys):
        from repro.service import ProofEnvelope

        out = tmp_path / "env.json"
        assert main(["make-envelope", "spanning-tree-ptr", "--n", "16",
                     "--seed", "3", "--out", str(out)]) == 0
        envelope = ProofEnvelope.from_bytes(out.read_bytes())
        assert envelope.scheme == "spanning-tree-ptr"
        assert envelope.graph.n == 16
        assert envelope.certificates is not None

    def test_make_envelope_to_stdout_round_trips(self, capsys):
        from repro.service import ProofEnvelope

        assert main(["make-envelope", "bipartite", "--n", "8",
                     "--no-certificates"]) == 0
        envelope = ProofEnvelope.from_bytes(capsys.readouterr().out)
        assert envelope.certificates is None

    def test_make_envelope_family_override(self, tmp_path, capsys):
        # --family random_tree sidesteps the scheme's own G(n, p)
        # sampler — the path the large-n service benchmark rides.
        from repro.service import CertificationService, ProofEnvelope

        out = tmp_path / "env.json"
        assert main(["make-envelope", "spanning-tree-ptr", "--n", "40",
                     "--seed", "6", "--family", "random_tree",
                     "--out", str(out)]) == 0
        envelope = ProofEnvelope.from_bytes(out.read_bytes())
        assert envelope.graph.n == 40
        assert len(envelope.graph.edges()) == 39  # a tree, not G(n, p)
        assert CertificationService().submit(envelope).accepted

    def test_make_envelope_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["make-envelope", "leader", "--n", "10",
                         "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_submit_round_trip_against_live_server(self, tmp_path, capsys):
        import json
        import threading

        from repro.service import CertificationService
        from repro.service.httpd import make_server

        out = tmp_path / "env.json"
        assert main(["make-envelope", "spanning-tree-ptr", "--n", "16",
                     "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()

        service = CertificationService()
        server = make_server(port=0, service=service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = "http://%s:%d" % server.server_address[:2]
        try:
            assert main(["submit", str(out), "--url", url]) == 0
            verdict = json.loads(capsys.readouterr().out)
            assert verdict["accepted"] and not verdict["cache_hit"]
            # verbatim replay is refused...
            assert main(["submit", str(out), "--url", url]) == 2
            assert json.loads(capsys.readouterr().out)["replay"]
            # ...but a fresh nonce is served from cache.
            assert main(["submit", str(out), "--url", url,
                         "--nonce", "fresh"]) == 0
            assert json.loads(capsys.readouterr().out)["cache_hit"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_submit_several_files_settles_each_in_order(self, tmp_path, capsys):
        import json
        import threading

        from repro.service import CertificationService
        from repro.service.httpd import make_server

        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        assert main(["make-envelope", "leader", "--n", "12", "--seed", "8",
                     "--out", str(good)]) == 0
        assert main(["make-envelope", "leader", "--n", "12", "--seed", "9",
                     "--corrupt", "2", "--out", str(bad)]) == 0
        capsys.readouterr()

        service = CertificationService()
        server = make_server(port=0, service=service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = "http://%s:%d" % server.server_address[:2]
        try:
            # one rejected verdict: exit 1, a JSON array in file order
            assert main(["submit", str(good), str(bad), "--url", url]) == 1
            first, second = json.loads(capsys.readouterr().out)
            assert first["accepted"] and not second["accepted"]
            # the same files again are replays, settled in place: exit 2
            assert main(["submit", str(good), str(bad), "--url", url]) == 2
            replays = json.loads(capsys.readouterr().out)
            assert [item["replay"] for item in replays] == [True, True]
            # under a fresh nonce both are cache hits
            assert main(["submit", str(good), str(bad), "--url", url,
                         "--nonce", "again"]) == 1
            hits = json.loads(capsys.readouterr().out)
            assert [verdict["cache_hit"] for verdict in hits] == [True, True]
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_submit_nonce_rewrites_the_json_without_a_decode(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--nonce`` sets the nonce on the loaded JSON object: a
        canonical file goes out as exactly ``with_nonce(...).to_bytes()``,
        and the server answers it from its wire-key index, with no
        envelope decoded on either side."""
        import json
        import threading

        from repro.cli import _load_submit_payloads
        from repro.obs import metrics as obs
        from repro.service import CertificationService, build_envelope
        from repro.service.envelope import WireBody
        from repro.service.httpd import make_server

        envelope = build_envelope("leader", n=12, seed=6)
        out = tmp_path / "env.json"
        out.write_bytes(envelope.to_bytes())
        args = build_parser().parse_args(["submit", str(out), "--nonce", "x"])
        assert _load_submit_payloads(args) == [
            envelope.with_nonce("x").to_bytes()
        ]

        service = CertificationService()
        server = make_server(port=0, service=service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = "http://%s:%d" % server.server_address[:2]
        try:
            assert main(["submit", str(out), "--url", url]) == 0
            capsys.readouterr()

            def no_decode(self):
                raise AssertionError("an envelope was decoded")

            monkeypatch.setattr(WireBody, "decode", no_decode)
            before = obs.counter_total("service.envelope.loaded")
            assert main(["submit", str(out), "--url", url,
                         "--nonce", "x"]) == 0
            assert json.loads(capsys.readouterr().out)["cache_hit"]
            assert obs.counter_total("service.envelope.loaded") == before
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "not JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"n": NaN}', "not canonically serializable"),
    ])
    def test_submit_nonce_refuses_a_non_envelope_before_sending(
        self, tmp_path, text, message
    ):
        out = tmp_path / "env.json"
        out.write_text(text)
        with pytest.raises(SystemExit, match=message):
            main(["submit", str(out), "--url", "http://127.0.0.1:1",
                  "--nonce", "x"])

    @pytest.mark.parametrize("setting", [
        ["--cache-size", "0"],
        ["--max-inflight", "0"],
        ["--request-timeout", "-1"],
        ["--request-timeout", "0"],
    ])
    def test_serve_refuses_bad_settings_before_binding(
        self, setting, capsys, monkeypatch
    ):
        from repro.service.httpd import CertifyHTTPServer

        def bind(server):
            raise AssertionError("serve bound a port")

        monkeypatch.setattr(CertifyHTTPServer, "server_bind", bind)
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--port", "0", *setting])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error: ")
        assert err.count("\n") == 1

    def test_submit_unreachable_server_exits(self, tmp_path):
        out = tmp_path / "env.json"
        assert main(["make-envelope", "bipartite", "--n", "6",
                     "--out", str(out)]) == 0
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["submit", str(out), "--url", "http://127.0.0.1:1"])
