"""TPC-C-lite: a multi-key order/payment contract family.

SmallBank transactions touch at most two keys, which under-stresses the
Concurrent Executor's dependency tracking and the commit-time validator's
multi-key read/write sets.  This trimmed TPC-C cut keeps the benchmark's
essential shape — warehouses with district-free customers, per-item stock,
and order lines spanning several items — while staying deterministic and
small enough for the DES.

Three contract types:

* ``tpcc.new_order`` — one warehouse, several ``(item, quantity)`` lines;
  each line with sufficient stock moves units from ``stock`` to ``sold``
  (no restocking, so ``stock + sold`` is invariant per item).
* ``tpcc.payment`` — moves cash from a customer balance into a
  warehouse's year-to-date counter (fails application-level, without
  writing, on insufficient funds), so customer + YTD cash is invariant.
  Like full TPC-C, a payment may be *remote* — paid into a different
  warehouse than the customer's home — which is the family's natural
  cross-shard transaction.
* ``tpcc.stock_level`` — read-only scan of a warehouse's item stocks.

Conservation invariants (:func:`conserved_cash`, :func:`conserved_stock`)
are what the hostile-world scenario matrix asserts per cell: no adversary
schedule may mint or destroy cash or stock units.

Warehouses map onto shards exactly like SmallBank accounts: warehouse
``w`` lives on shard ``w % n_shards``.  The workload generator declares a
transaction's shards from the warehouse ids it touches (via
:meth:`repro.core.shards.ShardMap.shards_of_accounts`); the storage keys
themselves never need to be parsed back into shards.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Mapping, Sequence, Tuple

from repro.contracts.contract import ContractRegistry
from repro.contracts.ops import Operation, ReadOp, WriteOp

NEW_ORDER = "tpcc.new_order"
PAYMENT = "tpcc.payment"
STOCK_LEVEL = "tpcc.stock_level"

ALL_CONTRACTS = (NEW_ORDER, PAYMENT, STOCK_LEVEL)


def customer_key(warehouse: int, customer: int) -> str:
    """Storage key of a customer's cash balance."""
    return f"tpcc.cust:{warehouse}:{customer}"


def ytd_key(warehouse: int) -> str:
    """Storage key of a warehouse's year-to-date payment counter."""
    return f"tpcc.ytd:{warehouse}"


def stock_key(warehouse: int, item: int) -> str:
    """Storage key of an item's stock level in a warehouse."""
    return f"tpcc.stock:{warehouse}:{item}"


def sold_key(warehouse: int, item: int) -> str:
    """Storage key of an item's cumulative units sold from a warehouse."""
    return f"tpcc.sold:{warehouse}:{item}"


def new_order(warehouse: int, lines: Sequence[Tuple[int, int]]
              ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Place an order of several ``(item, quantity)`` lines.

    Lines with insufficient stock are skipped (the customer backorders);
    fulfilled lines move units from stock to sold.  Quantities are
    positive by construction of the workload generator.
    """
    filled = 0
    skipped = 0
    for item, quantity in lines:
        stock = yield ReadOp(stock_key(warehouse, item))
        if stock < quantity:
            skipped += 1
            continue
        yield WriteOp(stock_key(warehouse, item), stock - quantity)
        sold = yield ReadOp(sold_key(warehouse, item))
        yield WriteOp(sold_key(warehouse, item), sold + quantity)
        filled += 1
    return {"ok": filled > 0 or not lines, "filled": filled,
            "skipped": skipped}


def payment(warehouse: int, customer: int, amount: int,
            pay_to: int = None
            ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Pay ``amount`` from a customer's balance into a warehouse YTD.

    ``pay_to`` defaults to the customer's home ``warehouse``; a different
    warehouse makes this a remote payment (cross-shard when the two
    warehouses live on different shards).
    """
    target = warehouse if pay_to is None else pay_to
    balance = yield ReadOp(customer_key(warehouse, customer))
    if balance < amount:
        return {"ok": False, "reason": "insufficient-funds"}
    yield WriteOp(customer_key(warehouse, customer), balance - amount)
    ytd = yield ReadOp(ytd_key(target))
    yield WriteOp(ytd_key(target), ytd + amount)
    return {"ok": True}


def stock_level(warehouse: int, items: Sequence[int]
                ) -> Generator[Operation, Any, Dict[str, Any]]:
    """Read-only: how many of ``items`` are below 10 units."""
    low = 0
    for item in items:
        stock = yield ReadOp(stock_key(warehouse, item))
        if stock < 10:
            low += 1
    return {"ok": True, "low": low}


def register_tpcc_lite(registry: ContractRegistry) -> None:
    """Install the TPC-C-lite contracts into ``registry``."""
    registry.register(NEW_ORDER, new_order)
    registry.register(PAYMENT, payment)
    registry.register(STOCK_LEVEL, stock_level)


def default_registry() -> ContractRegistry:
    registry = ContractRegistry()
    register_tpcc_lite(registry)
    return registry


def initial_state(warehouses: int, customers_per_warehouse: int = 10,
                  items_per_warehouse: int = 20, cash: int = 10_000,
                  stock: int = 1_000) -> Dict[str, int]:
    """Seed balances and stock for ``warehouses`` warehouses."""
    state: Dict[str, int] = {}
    for warehouse in range(warehouses):
        state[ytd_key(warehouse)] = 0
        for customer in range(customers_per_warehouse):
            state[customer_key(warehouse, customer)] = cash
        for item in range(items_per_warehouse):
            state[stock_key(warehouse, item)] = stock
            state[sold_key(warehouse, item)] = 0
    return state


def conserved_cash(state: Mapping[str, Any], warehouses: int,
                   customers_per_warehouse: int = 10) -> int:
    """Total cash in the system: customer balances plus warehouse YTDs.

    ``state`` is anything with a ``get`` (the seed dict or a replica's
    KVStore); payments move cash between the two pools, never mint it.
    """
    total = 0
    for warehouse in range(warehouses):
        total += state.get(ytd_key(warehouse), 0)
        for customer in range(customers_per_warehouse):
            total += state.get(customer_key(warehouse, customer), 0)
    return total


def conserved_stock(state: Mapping[str, Any], warehouses: int,
                    items_per_warehouse: int = 20) -> int:
    """Total units per system: on-shelf stock plus cumulative sold."""
    total = 0
    for warehouse in range(warehouses):
        for item in range(items_per_warehouse):
            total += state.get(stock_key(warehouse, item), 0)
            total += state.get(sold_key(warehouse, item), 0)
    return total
