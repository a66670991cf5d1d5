#!/usr/bin/env python3
"""The Table 2 experiment, end to end: attacking WU-FTPD.

Reproduces the paper's flagship non-control-data attack: a SITE EXEC
format-string exploit that overwrites the logged-in user's uid word at
0x1002bc20 -- no control data touched -- then uploads a backdoored
/etc/passwd.  The script shows:

1. the protected run: the detector stops the server at the ``%n`` store;
2. the unprotected run: privilege escalation and the planted backdoor;
3. a benign session: the same server doing normal FTP work.

Run:  python examples/wuftpd_session.py
"""

from repro.apps.wuftpd import (
    benign_session,
    make_filesystem,
    site_exec_payload,
    uid_address,
    wuftpd_scenario,
)
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.evalx.experiments import report_table2
from repro.kernel.network import ScriptedClient
from repro.attacks.replay import run_executable


def main() -> None:
    print(report_table2())

    print("\n--- unprotected machine: the attack in slow motion ---")
    scenario = wuftpd_scenario()
    result = scenario.run_attack(NullPolicy())
    sim, kernel = result.sim, result.kernel
    uid, taint = sim.memory.read(uid_address(), 4)
    print(f"payload sent      : {site_exec_payload()!r}")
    print(f"uid word after    : {uid} (was 1000), taint mask {taint:#x}")
    print(f"kernel events     : {[str(e) for e in kernel.process.events]}")
    print(f"/etc/passwd now   : {kernel.fs.read_file('/etc/passwd').decode()}")
    print("The attacker can now log in as 'alice' with root privileges.")

    print("\n--- benign session under full protection ---")
    benign = run_executable(
        scenario.build(),
        PointerTaintPolicy(),
        clients=[ScriptedClient(benign_session())],
        filesystem=make_filesystem(),
    )
    print(f"outcome: {benign.describe()}")
    print("server transcript:")
    for line in bytes(benign.clients[0].transcript).decode().splitlines():
        print(f"  S: {line}")


if __name__ == "__main__":
    main()
