"""Frozen reference kernel: the ledger's unit of host speed.

One pass is a fixed amount of mixed pure-Python work — attribute and
method calls, dict / tuple / list traffic, f-strings, and an occasional
``json.dumps(sort_keys=True)`` and ``copy.deepcopy`` — the same kinds of
bytecode the middleware spends its time in.  The ledger brackets every
measured block with one pass and divides: a host that runs the kernel
20 % slower runs the middleware about 20 % slower too, so the quotient
holds still while raw wall-clock drifts (see README, "Why normalise").

FROZEN: any edit changes the meaning of every ``nus`` / ``nms`` figure
ever recorded.  It imports nothing from ``repro`` and never will.
"""

from __future__ import annotations

import copy
import json
import time

#: The pass time the kernel is *defined* to take: a normalised time is
#: ``measured / kernel_time * REF_NOMINAL_US`` — "µs at reference speed".
REF_NOMINAL_US = 3500.0

_ROUNDS = 1600


class _Account:
    __slots__ = ("owner", "balance", "history")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.balance = 0
        self.history: list[tuple[str, int]] = []

    def deposit(self, amount: int) -> int:
        self.balance += amount
        self.history.append(("deposit", amount))
        return self.balance

    def state(self) -> dict[str, object]:
        return {"owner": self.owner, "balance": self.balance, "n": len(self.history)}


def kernel_pass() -> int:
    """One fixed unit of work; the return value defeats dead-code tricks."""
    accounts = {f"acct-{index}": _Account(f"owner-{index}") for index in range(8)}
    names = tuple(accounts)
    index_by_name: dict[str, int] = {}
    checksum = 0
    for step in range(_ROUNDS):
        name = names[step % 8]
        account = accounts[name]
        checksum += account.deposit(step & 7)
        key = (name, step % 5)
        index_by_name[f"{key[0]}|{key[1]}"] = step
        state = account.state()
        checksum += len(sorted(state.items()))
        if step % 25 == 0:
            checksum += len(json.dumps(state, sort_keys=True))
        if step % 50 == 0:
            checksum += len(copy.deepcopy(account.history))
        if len(account.history) > 16:
            del account.history[:8]
    return checksum + len(index_by_name)


def timed_pass() -> float:
    """Wall-clock seconds of one kernel pass."""
    started = time.perf_counter()
    kernel_pass()
    return time.perf_counter() - started


if __name__ == "__main__":
    samples = sorted(timed_pass() for _ in range(200))
    print(f"kernel pass: median {samples[100] * 1e6:.0f} us, "
          f"p10 {samples[20] * 1e6:.0f} us, p90 {samples[180] * 1e6:.0f} us")
