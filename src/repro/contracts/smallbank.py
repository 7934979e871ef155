"""The SmallBank benchmark contracts.

SmallBank (H-Store's asset-transfer suite, used throughout the paper's
evaluation) models a bank where every customer has a *checking* and a
*savings* account.  Five transaction types update balances and one —
``GetBalance`` — is a read-only query.  The paper's experiments draw from
``SendPayment`` and ``GetBalance`` with probability ``1 - Pr`` / ``Pr``; the
remaining four types are implemented for completeness and used by the
extended workload mix.

All bodies follow the contract protocol of
:mod:`repro.contracts.contract`: they yield operations and must be
deterministic in the values they read.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.contracts.contract import ContractRegistry
from repro.contracts.ops import Operation, ReadOp, WriteOp


def checking_key(account: int) -> str:
    """Storage key of an account's checking balance."""
    return f"checking:{account}"


def savings_key(account: int) -> str:
    """Storage key of an account's savings balance."""
    return f"savings:{account}"


def account_of_key(key: str) -> int:
    """Inverse of the key helpers — used to shard keys by account."""
    return int(key.rsplit(":", 1)[1])


def get_balance(account: int) -> Generator[Operation, Any, Dict[str, Any]]:
    """Read-only: total balance across both accounts."""
    checking = yield ReadOp(checking_key(account))
    savings = yield ReadOp(savings_key(account))
    return {"ok": True, "balance": checking + savings}


def send_payment(src: int, dst: int, amount: int
                 ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Transfer ``amount`` from ``src``'s checking to ``dst``'s checking.

    Fails (without writing) on insufficient funds — an application-level
    failure, not a concurrency abort.
    """
    src_balance = yield ReadOp(checking_key(src))
    if src_balance < amount:
        return {"ok": False, "reason": "insufficient-funds"}
    yield WriteOp(checking_key(src), src_balance - amount)
    dst_balance = yield ReadOp(checking_key(dst))
    yield WriteOp(checking_key(dst), dst_balance + amount)
    return {"ok": True}


def deposit_checking(account: int, amount: int
                     ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Add ``amount`` to the checking balance."""
    balance = yield ReadOp(checking_key(account))
    yield WriteOp(checking_key(account), balance + amount)
    return {"ok": True}


def transact_savings(account: int, amount: int
                     ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Add ``amount`` (possibly negative) to savings; rejects overdrafts."""
    balance = yield ReadOp(savings_key(account))
    if balance + amount < 0:
        return {"ok": False, "reason": "insufficient-funds"}
    yield WriteOp(savings_key(account), balance + amount)
    return {"ok": True}


def write_check(account: int, amount: int
                ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Cash a check against the total balance; overdrafts incur a $1 fee
    (classic SmallBank semantics)."""
    savings = yield ReadOp(savings_key(account))
    checking = yield ReadOp(checking_key(account))
    if savings + checking < amount:
        yield WriteOp(checking_key(account), checking - amount - 1)
    else:
        yield WriteOp(checking_key(account), checking - amount)
    return {"ok": True}


def amalgamate(src: int, dst: int
               ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Move all of ``src``'s funds into ``dst``'s checking."""
    savings = yield ReadOp(savings_key(src))
    checking = yield ReadOp(checking_key(src))
    total = savings + checking
    yield WriteOp(savings_key(src), 0)
    yield WriteOp(checking_key(src), 0)
    dst_balance = yield ReadOp(checking_key(dst))
    yield WriteOp(checking_key(dst), dst_balance + total)
    return {"ok": True, "moved": total}


#: Canonical contract names used by workloads and transactions.
GET_BALANCE = "smallbank.get_balance"
SEND_PAYMENT = "smallbank.send_payment"
DEPOSIT_CHECKING = "smallbank.deposit_checking"
TRANSACT_SAVINGS = "smallbank.transact_savings"
WRITE_CHECK = "smallbank.write_check"
AMALGAMATE = "smallbank.amalgamate"

ALL_CONTRACTS = {
    GET_BALANCE: get_balance,
    SEND_PAYMENT: send_payment,
    DEPOSIT_CHECKING: deposit_checking,
    TRANSACT_SAVINGS: transact_savings,
    WRITE_CHECK: write_check,
    AMALGAMATE: amalgamate,
}


def register_smallbank(registry: ContractRegistry) -> None:
    """Install the six SmallBank contracts into ``registry``."""
    for name, body in ALL_CONTRACTS.items():
        registry.register(name, body)


def default_registry() -> ContractRegistry:
    """A fresh registry preloaded with SmallBank."""
    registry = ContractRegistry()
    register_smallbank(registry)
    return registry


def initial_state(accounts: int, checking: int = 10_000,
                  savings: int = 10_000) -> Dict[str, int]:
    """Seed balances for ``accounts`` customers."""
    state: Dict[str, int] = {}
    for account in range(accounts):
        state[checking_key(account)] = checking
        state[savings_key(account)] = savings
    return state
