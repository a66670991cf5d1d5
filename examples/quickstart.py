#!/usr/bin/env python3
"""Quickstart: detect a memory-corruption attack in ~20 lines.

We compile a vulnerable C program for the simulated taint-tracking
processor, feed it an overlong input, and watch the pointer-taintedness
detector stop the attack at the exact instruction the paper describes:
the function return (``jr $31``) consuming a tainted return address.

Everything goes through the stable :class:`repro.Session` facade -- one
object picks the policy, the engine, and the observability (metrics /
structured tracing), and every run returns the same result family.

Run:  python examples/quickstart.py
"""

from repro import ExecOptions, Session

VULNERABLE_PROGRAM = r"""
void greet(void) {
    char name[10];
    scan_string(name);          /* scanf("%s", name): no bounds check */
    printf("hello %s!\n", name);
}

int main(void) {
    greet();
    puts("done");
    return 0;
}
"""

BENIGN_INPUT = b"alice\n"
ATTACK_INPUT = b"a" * 24  # rolls over the saved frame pointer + return addr


def main() -> None:
    session = Session(options=ExecOptions(policy="paper", metrics=True))

    print("=== benign input, paper's pointer-taintedness policy ===")
    result = session.run_minic(VULNERABLE_PROGRAM, stdin=BENIGN_INPUT)
    print(f"outcome: {result.describe()}")
    print(f"stdout : {result.stdout!r}")

    print("\n=== attack input, paper's pointer-taintedness policy ===")
    result = session.run_minic(VULNERABLE_PROGRAM, stdin=ATTACK_INPUT)
    print(f"outcome: {result.describe()}")
    assert result.detected
    print(f"alert  : tainted {result.alert.kind} of "
          f"{result.alert.pointer_value:#010x} at `{result.alert.disassembly}`")
    print("(0x61616161 is 'aaaa' -- the attacker's bytes became the "
          "return address)")

    print("\n=== same attack on an unprotected machine ===")
    result = session.run_minic(VULNERABLE_PROGRAM, policy="none",
                               stdin=ATTACK_INPUT)
    print(f"outcome: {result.describe()}")
    print("(control flow left the program: the attack succeeded)")

    print("\n=== same attack under a control-data-only baseline (Minos/SPE) ===")
    result = session.run_minic(VULNERABLE_PROGRAM, policy="control-data",
                               stdin=ATTACK_INPUT)
    print(f"outcome: {result.describe()}")
    print("(this one IS control data, so the baseline also catches it; "
          "run attack_gallery.py to see the non-control-data attacks "
          "only pointer-taintedness stops)")

    print("\n=== what the session measured across those four runs ===")
    counters = session.metrics.to_dict()["counters"]
    print(f"instructions retired : {counters['run.instructions']:,}")
    print(f"dereference checks   : {counters['run.dereference_checks']:,}")
    print(f"alerts raised        : {counters['run.alerts']}")
    print("(add trace=TraceConfig(path='t.jsonl') to the ExecOptions "
          "for a structured event trace)")


if __name__ == "__main__":
    main()
