"""Simulated OS tests: syscalls, filesystem, network, process setup."""

import pytest

from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.simulator import Simulator, SimulatorFault
from repro.isa.assembler import assemble
from repro.kernel.filesystem import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    SimFileSystem,
)
from repro.kernel.network import Connection, ListeningSocket, ScriptedClient, SimNetwork
from repro.kernel.process import build_initial_stack
from repro.kernel.syscalls import Kernel
from repro.mem.tainted_memory import TaintedMemory

from tests.helpers import run_asm


def run_with_kernel(body, data="", **kernel_kwargs):
    source = (
        ".text\n_start:\n" + body + "\n.data\n" + (data or "pad: .word 0")
    )
    exe = assemble(source)
    kernel = Kernel(**kernel_kwargs)
    sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
    kernel.attach(sim)
    status = sim.run(max_instructions=500_000)
    return sim, kernel, status


EXIT = "li $v0, 1\nli $a0, 0\nsyscall\n"


class TestFileSyscalls:
    def test_open_read_close(self):
        fs = SimFileSystem()
        fs.add_file("/etc/motd", b"hello!")
        body = (
            "li $v0, 5\nla $a0, path\nli $a1, 0\nsyscall\n"   # open
            "move $s0, $v0\n"
            "li $v0, 3\nmove $a0, $s0\nla $a1, buf\nli $a2, 6\nsyscall\n"
            "move $s1, $v0\n"
            "li $v0, 6\nmove $a0, $s0\nsyscall\n"             # close
            + EXIT
        )
        data = 'path: .asciiz "/etc/motd"\nbuf: .space 8'
        sim, kernel, _ = run_with_kernel(body, data, filesystem=fs)
        assert sim.regs.value(16) == 3       # first dynamic fd
        assert sim.regs.value(17) == 6       # bytes read
        buf = sim.executable.address_of("buf")
        assert sim.memory.read_bytes(buf, 6) == b"hello!"
        assert sim.memory.count_tainted(buf, 6) == 6  # file data is tainted
        assert kernel.process.events[0].kind == "open"

    def test_open_missing_file_fails(self):
        body = (
            "li $v0, 5\nla $a0, path\nli $a1, 0\nsyscall\nmove $s0, $v0\n"
            + EXIT
        )
        sim, _, _ = run_with_kernel(body, 'path: .asciiz "/nope"')
        assert sim.regs.value(16) == 0xFFFFFFFF

    def test_write_to_created_file(self):
        body = (
            "li $v0, 5\nla $a0, path\nli $a1, 577\nsyscall\nmove $s0, $v0\n"
            "li $v0, 4\nmove $a0, $s0\nla $a1, msg\nli $a2, 3\nsyscall\n"
            + EXIT
        )
        data = 'path: .asciiz "/tmp/out"\nmsg: .ascii "abc"'
        _, kernel, _ = run_with_kernel(body, data)
        assert kernel.fs.read_file("/tmp/out") == b"abc"

    def test_stdout_stderr_capture(self):
        body = (
            "li $v0, 4\nli $a0, 1\nla $a1, msg\nli $a2, 2\nsyscall\n"
            "li $v0, 4\nli $a0, 2\nla $a1, msg\nli $a2, 2\nsyscall\n"
            + EXIT
        )
        _, kernel, _ = run_with_kernel(body, 'msg: .ascii "hi"')
        assert kernel.process.stdout == b"hi"
        assert kernel.process.stderr == b"hi"

    def test_stdin_consumed_incrementally(self):
        body = (
            "li $v0, 3\nli $a0, 0\nla $a1, buf\nli $a2, 3\nsyscall\n"
            "li $v0, 3\nli $a0, 0\nla $a1, buf+4\nli $a2, 10\nsyscall\n"
            "move $s0, $v0\n" + EXIT
        )
        sim, _, _ = run_with_kernel(body, "buf: .space 16", stdin=b"abcde")
        buf = sim.executable.address_of("buf")
        assert sim.memory.read_bytes(buf, 3) == b"abc"
        assert sim.memory.read_bytes(buf + 4, 2) == b"de"
        assert sim.regs.value(16) == 2   # short read at EOF

    def test_bad_fd_returns_error(self):
        body = "li $v0, 3\nli $a0, 77\nla $a1, buf\nli $a2, 4\nsyscall\nmove $s0, $v0\n" + EXIT
        sim, _, _ = run_with_kernel(body, "buf: .space 4")
        assert sim.regs.value(16) == 0xFFFFFFFF

    def test_unknown_syscall_raises(self):
        # A machine fault (not a host KeyError): corrupted $v0 values under
        # fault injection must classify as a crash, not kill the harness.
        with pytest.raises(SimulatorFault, match="unknown syscall"):
            run_with_kernel("li $v0, 222\nsyscall\n" + EXIT)


class TestProcessSyscalls:
    def test_exit_status(self):
        _, _, status = run_with_kernel("li $v0, 1\nli $a0, 42\nsyscall\n")
        assert status == 42

    def test_negative_exit_status(self):
        _, _, status = run_with_kernel("li $v0, 1\nli $a0, -1\nsyscall\n")
        assert status == -1

    def test_getpid_getuid_setuid(self):
        body = (
            "li $v0, 20\nsyscall\nmove $s0, $v0\n"
            "li $v0, 24\nsyscall\nmove $s1, $v0\n"
            "li $v0, 23\nli $a0, 0\nsyscall\n"
            "li $v0, 24\nsyscall\nmove $s2, $v0\n" + EXIT
        )
        sim, kernel, _ = run_with_kernel(body, uid=1000)
        assert sim.regs.value(16) == 4711
        assert sim.regs.value(17) == 1000
        assert sim.regs.value(18) == 0
        assert [e.kind for e in kernel.process.events] == ["setuid"]

    def test_sbrk_grows_monotonically(self):
        body = (
            "li $v0, 46\nli $a0, 4096\nsyscall\nmove $s0, $v0\n"
            "li $v0, 46\nli $a0, 4096\nsyscall\nmove $s1, $v0\n" + EXIT
        )
        sim, _, _ = run_with_kernel(body)
        assert sim.regs.value(17) == sim.regs.value(16) + 4096

    def test_brk_query_and_set(self):
        body = (
            "li $v0, 45\nli $a0, 0\nsyscall\nmove $s0, $v0\n"
            "addiu $a0, $v0, 0x100\nli $v0, 45\nsyscall\nmove $s1, $v0\n"
            + EXIT
        )
        sim, _, _ = run_with_kernel(body)
        assert sim.regs.value(17) == sim.regs.value(16) + 0x100

    def test_exec_records_event(self):
        body = "li $v0, 59\nla $a0, path\nsyscall\n" + EXIT
        _, kernel, _ = run_with_kernel(body, 'path: .asciiz "/bin/sh"')
        assert kernel.process.executed_programs() == ["/bin/sh"]


class TestSocketSyscalls:
    def _server_body(self):
        return (
            "li $v0, 60\nli $a0, 2\nli $a1, 1\nli $a2, 0\nsyscall\nmove $s0, $v0\n"
            "li $v0, 61\nmove $a0, $s0\nli $a1, 8080\nsyscall\n"
            "li $v0, 62\nmove $a0, $s0\nli $a1, 4\nsyscall\n"
            "li $v0, 63\nmove $a0, $s0\nsyscall\nmove $s1, $v0\n"
            "li $v0, 64\nmove $a0, $s1\nla $a1, buf\nli $a2, 16\nsyscall\nmove $s2, $v0\n"
            "li $v0, 65\nmove $a0, $s1\nla $a1, buf\nmove $a2, $s2\nsyscall\n"
            + EXIT
        )

    def test_accept_recv_send_roundtrip(self):
        network = SimNetwork()
        client = ScriptedClient([b"ping"])
        network.connect_client(client)
        sim, kernel, _ = run_with_kernel(
            self._server_body(), "buf: .space 16", network=network
        )
        assert sim.regs.value(18) == 4           # recv'd 4 bytes
        assert client.transcript == b"ping"      # echoed back
        buf = sim.executable.address_of("buf")
        assert sim.memory.count_tainted(buf, 4) == 4

    def test_accept_without_client_fails(self):
        sim, _, _ = run_with_kernel(
            "li $v0, 60\nli $a0,2\nli $a1,1\nli $a2,0\nsyscall\nmove $s0,$v0\n"
            "li $v0, 62\nmove $a0,$s0\nli $a1,4\nsyscall\n"
            "li $v0, 63\nmove $a0,$s0\nsyscall\nmove $s1,$v0\n" + EXIT,
        )
        assert sim.regs.value(17) == 0xFFFFFFFF

    def test_recv_on_non_connection_fails(self):
        sim, _, _ = run_with_kernel(
            "li $v0, 64\nli $a0, 0\nla $a1, buf\nli $a2, 4\nsyscall\n"
            "move $s0, $v0\n" + EXIT,
            "buf: .space 4",
        )
        assert sim.regs.value(16) == 0xFFFFFFFF

    def test_scripted_client_segments_do_not_merge(self):
        client = ScriptedClient([b"abc", b"def"])
        assert client.pull(10) == b"abc"   # one packet per recv
        assert client.pull(2) == b"de"
        assert client.pull(10) == b"f"
        assert client.pull(10) == b""      # orderly shutdown

    def test_connection_close_stops_io(self):
        connection = Connection(ScriptedClient([b"xyz"]))
        connection.closed = True
        assert connection.recv(4) == b""


class TestProcessSetup:
    def test_argv_env_layout_and_taint(self):
        memory = TaintedMemory()
        sp, argc, argv_p, envp_p = build_initial_stack(
            memory, ["prog", "-g", "123"], ["PATH=/bin"]
        )
        assert argc == 3
        assert sp % 4 == 0
        arg0 = memory.read(argv_p, 4)[0]
        assert memory.read_cstring(arg0) == b"prog"
        arg2 = memory.read(argv_p + 8, 4)[0]
        assert memory.read_cstring(arg2) == b"123"
        assert memory.read(argv_p + 12, 4)[0] == 0      # NULL terminator
        env0 = memory.read(envp_p, 4)[0]
        assert memory.read_cstring(env0) == b"PATH=/bin"
        # The strings are tainted; the pointer vectors are not.
        assert memory.count_tainted(arg2, 4) == 4
        assert memory.read(argv_p, 4)[1] == 0

    def test_taint_can_be_disabled(self):
        memory = TaintedMemory()
        _, _, argv_p, _ = build_initial_stack(
            memory, ["prog"], [], taint_args=False
        )
        arg0 = memory.read(argv_p, 4)[0]
        assert memory.count_tainted(arg0, 4) == 0

    def test_kernel_attach_sets_registers(self):
        exe = assemble(".text\n_start: li $v0,1\nli $a0,0\nsyscall\n")
        kernel = Kernel(argv=["a", "b"])
        sim = Simulator(exe, syscall_handler=kernel)
        kernel.attach(sim)
        assert sim.regs.value(4) == 2               # $a0 = argc
        assert sim.regs.value(29) < 0x7FFF8000      # $sp below stack top
        assert kernel.process.brk >= exe.data_end


class TestFileSystemUnit:
    def test_append_mode(self):
        fs = SimFileSystem()
        fs.add_file("/log", b"one")
        handle = fs.open("/log", O_WRONLY | O_APPEND)
        fs.write(handle, b"two")
        assert fs.read_file("/log") == b"onetwo"

    def test_trunc_mode(self):
        fs = SimFileSystem()
        fs.add_file("/f", b"old contents")
        fs.open("/f", O_WRONLY | O_TRUNC)
        assert fs.read_file("/f") == b""

    def test_read_only_handle_cannot_write(self):
        fs = SimFileSystem()
        fs.add_file("/f", b"x")
        handle = fs.open("/f", O_RDONLY)
        assert fs.write(handle, b"y") == -1

    def test_creat_flag_required_for_new_files(self):
        fs = SimFileSystem()
        assert fs.open("/new", O_WRONLY) is None
        assert fs.open("/new", O_WRONLY | O_CREAT) is not None
        assert fs.exists("/new")

    def test_positioned_reads(self):
        fs = SimFileSystem()
        fs.add_file("/f", b"abcdef")
        handle = fs.open("/f", O_RDONLY)
        assert fs.read(handle, 2) == b"ab"
        assert fs.read(handle, 2) == b"cd"
        assert fs.read(handle, 10) == b"ef"
        assert fs.read(handle, 10) == b""
