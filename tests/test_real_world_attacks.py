"""Section 5.1.2: the four real-world application attacks."""

import pytest

from repro.apps.ghttpd import (
    attack_request,
    ghttpd_scenario,
    request_buffer_address,
)
from repro.apps.nullhttpd import (
    cgi_bin_address,
    nullhttpd_scenario,
    overflow_body,
)
from repro.apps.traceroute import traceroute_scenario
from repro.apps.wuftpd import (
    BACKDOOR_PASSWD_ENTRY,
    site_exec_payload,
    uid_address,
    wuftpd_scenario,
)
from repro.defenses.policy import (
    ControlDataPolicy,
    NullPolicy,
    PointerTaintPolicy,
)


class TestWuFtpd:
    def test_uid_word_at_papers_address(self):
        """Table 2 pins the target at 0x1002bc20."""
        assert uid_address() == 0x1002BC20

    def test_payload_is_papers_site_exec_command(self):
        payload = site_exec_payload()
        assert payload == (
            b"SITE EXEC \x20\xbc\x02\x10" + b"%x" * 6 + b"%n\n"
        )

    def test_detected_at_percent_n_store(self):
        result = wuftpd_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "store"
        assert result.alert.pointer_value == 0x1002BC20

    def test_server_stopped_before_privilege_change(self):
        result = wuftpd_scenario().run_attack(PointerTaintPolicy())
        assert result.kernel is not None
        assert result.kernel.process.events == []  # no setuid, no open

    def test_control_data_baseline_misses(self):
        result = wuftpd_scenario().run_attack(ControlDataPolicy())
        assert not result.detected

    def test_unprotected_attack_plants_backdoor(self):
        scenario = wuftpd_scenario()
        result = scenario.run_attack(NullPolicy())
        assert not result.detected
        uid, taint = result.sim.memory.read(uid_address(), 4)
        assert uid != 1000            # identity word overwritten
        passwd = result.kernel.fs.read_file("/etc/passwd")
        assert BACKDOOR_PASSWD_ENTRY.encode() in passwd
        assert scenario.attack_succeeded(result)

    def test_benign_session_served_and_denied(self):
        result = wuftpd_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"
        transcript = bytes(result.clients[0].transcript)
        assert b"220 FTP server" in transcript
        assert b"550 Permission denied" in transcript
        passwd = result.kernel.fs.read_file("/etc/passwd")
        assert b"root:x:0:0" in passwd  # untouched


class TestNullHttpd:
    def test_detected_inside_free(self):
        result = nullhttpd_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "store"
        # The tainted bk points one byte into the CGI-BIN string.
        assert result.alert.pointer_value == cgi_bin_address() + 1

    def test_overflow_body_geometry(self):
        body = overflow_body()
        assert len(body) == 228 + 12
        assert body[228:232] == (0x41414141).to_bytes(4, "little")

    def test_control_data_baseline_misses_and_shell_pops(self):
        result = nullhttpd_scenario().run_attack(ControlDataPolicy())
        assert not result.detected
        assert "/bin/sh" in result.executed_programs

    def test_unprotected_cgi_bin_rewritten(self):
        scenario = nullhttpd_scenario()
        result = scenario.run_attack(NullPolicy())
        cgi = result.sim.memory.read_cstring(cgi_bin_address())
        assert cgi == b"/bin"
        assert result.executed_programs == ["/bin/sh"]
        assert scenario.attack_succeeded(result)

    def test_benign_post_and_cgi_clean(self):
        result = nullhttpd_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"
        transcripts = [bytes(c.transcript) for c in result.clients]
        assert b"200 OK posted" in transcripts[0]
        assert b"200 OK static" in transcripts[1]
        # The benign CGI ran from the real CGI root.
        assert result.executed_programs == [
            "/usr/local/httpd/cgi-bin/stats.cgi"
        ]


class TestGhttpd:
    def test_request_buffer_on_the_stack(self):
        address = request_buffer_address()
        assert 0x7FF00000 < address < 0x7FFF8000

    def test_attack_request_shape(self):
        request = attack_request()
        assert request.startswith(b"GET " + b"A" * 196)
        assert b"/cgi-bin/../../../../bin/sh" in request

    def test_detected_at_load_byte(self):
        """The paper: 'stops the attack when the tainted URL pointer is
        dereferenced in a load-byte instruction (LB)'."""
        result = ghttpd_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "load"
        assert "lbu" in result.alert.disassembly
        # The redirected pointer is a stack address (like 0x7fff3e94).
        assert 0x7FF00000 < result.alert.pointer_value < 0x7FFF8000

    def test_control_data_baseline_misses_and_shell_pops(self):
        result = ghttpd_scenario().run_attack(ControlDataPolicy())
        assert not result.detected
        assert any("/bin/sh" in p for p in result.executed_programs)

    def test_unprotected_traversal_reaches_shell(self):
        scenario = ghttpd_scenario()
        result = scenario.run_attack(NullPolicy())
        assert any("/bin/sh" in p for p in result.executed_programs)
        assert scenario.attack_succeeded(result)

    def test_benign_requests_served_and_policy_enforced(self):
        result = ghttpd_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"
        ok, forbidden = [bytes(c.transcript) for c in result.clients]
        assert b"200 OK" in ok
        assert b"403 Forbidden" in forbidden   # "/.." rejected when honest


class TestTraceroute:
    def test_detected_at_store_inside_free(self):
        """The paper: 'an alert is generated at a store-word instruction
        inside free() because 0x333231 is a tainted value'."""
        result = traceroute_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "store"
        assert result.alert.taint_mask == 0xF
        # The wild pointer derives from the argv string "123": free() read
        # 0x00333231 as the chunk header, so the footer store lands exactly
        # (0x333230 - 4) bytes past the (heap-resident) chunk base.
        chunk_base = result.alert.pointer_value - (0x00333230 - 4)
        assert 0x10000000 <= chunk_base < 0x10400000

    def test_control_data_baseline_misses(self):
        result = traceroute_scenario().run_attack(ControlDataPolicy())
        assert not result.detected

    def test_unprotected_wild_write_happens(self):
        scenario = traceroute_scenario()
        result = scenario.run_attack(NullPolicy())
        assert not result.detected
        assert result.sim.stats.tainted_dereferences > 0
        assert scenario.attack_succeeded(result)

    def test_single_gateway_is_fine(self):
        result = traceroute_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"
        assert "1 gateways parsed" in result.stdout

    def test_non_gateway_arguments_are_fine(self):
        from repro.attacks.replay import run_executable
        from repro.apps.traceroute import build_traceroute

        result = run_executable(
            build_traceroute(),
            PointerTaintPolicy(),
            argv=["traceroute", "example.com"],
        )
        assert result.outcome == "exit"
        assert "0 gateways parsed" in result.stdout
