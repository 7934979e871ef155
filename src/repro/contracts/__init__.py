"""Smart-contract runtime: operation protocol, registry, the cluster's
replay memo, SmallBank and TPC-C-lite suites."""

from repro.contracts.contract import (ContractBody, ContractRegistry,
                                      ExecutionRecord, run_inline)
from repro.contracts.ops import Operation, ReadOp, WriteOp, is_read, is_write
from repro.contracts.replay import OverlayView, ReplayMemo
from repro.contracts.smallbank import (ALL_CONTRACTS, AMALGAMATE,
                                       DEPOSIT_CHECKING, GET_BALANCE,
                                       SEND_PAYMENT, TRANSACT_SAVINGS,
                                       WRITE_CHECK, account_of_key,
                                       checking_key, default_registry,
                                       initial_state, register_smallbank,
                                       savings_key)
from repro.contracts.tpcc_lite import register_tpcc_lite

__all__ = [
    "ALL_CONTRACTS",
    "AMALGAMATE",
    "ContractBody",
    "ContractRegistry",
    "DEPOSIT_CHECKING",
    "ExecutionRecord",
    "GET_BALANCE",
    "Operation",
    "OverlayView",
    "ReadOp",
    "ReplayMemo",
    "SEND_PAYMENT",
    "TRANSACT_SAVINGS",
    "WRITE_CHECK",
    "WriteOp",
    "account_of_key",
    "checking_key",
    "default_registry",
    "initial_state",
    "is_read",
    "is_write",
    "register_smallbank",
    "register_tpcc_lite",
    "run_inline",
    "savings_key",
]
