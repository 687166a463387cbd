"""Print the per-call digest tables the runtime tests check.

Run from the checkout root: ``python -m tests.runtime.record_digests``
(``make record-digests``). It records and checks nothing: it prints, as
Python literals, what the current ``src/`` does per call —

* ``BATCH_DIGESTS`` / ``ROW_BATCH_DIGESTS`` / ``PUSH_DIGESTS``
  (``test_wake_scheduling.py``): every ``FUSION_SHAPES`` x ``PREFIXES``
  GroupApply cell, fed events, rows and pushes;
* ``TOP_BATCH_DIGESTS`` / ``TOP_PUSH_DIGESTS`` / ``TOP_OPERATOR_EVENTS``
  (``test_top_level.py``): every ``TOP_SHAPES`` cell;
* ``NESTED_CHAIN_ADVANCES`` (``test_top_level.py``): the inner work of
  the nested GroupApply shapes.

A change that must not alter per-call behaviour runs this on its parent
first and pastes the tables into the tests.
"""

from pprint import pformat

from tests.runtime import test_top_level as top
from tests.runtime import test_wake_scheduling as w


def per_key_tables():
    batch, row_batch, push = {}, {}, {}
    for subplan in sorted(w.FUSION_SHAPES):
        for prefix in sorted(w.PREFIXES):
            query = w.build(prefix, subplan, w.FUSION_SHAPES)
            cell = f"{subplan}-{prefix}"
            batch[cell] = w.digest(w.drive_in_batches(query, w.wave_rows(2500)))
            row_batch[cell] = w.digest(
                w.drive_in_batches(query, w.wave_rows(2500), as_rows=True)
            )
            if subplan not in w.DEFERRED:
                push[cell] = w.digest(w.push_calls(query))
    return {"BATCH_DIGESTS": batch, "ROW_BATCH_DIGESTS": row_batch, "PUSH_DIGESTS": push}


def top_level_tables():
    names = sorted(top.TOP_SHAPES)
    return {
        "TOP_BATCH_DIGESTS": {n: w.digest(top.top_batch_calls(n)) for n in names},
        "TOP_PUSH_DIGESTS": {
            n: w.digest(top.top_push_calls(n))
            for n in names
            if n not in top.TOP_DEFERRED
        },
        "TOP_OPERATOR_EVENTS": {n: top.top_operator_events(n) for n in names},
        "NESTED_CHAIN_ADVANCES": {
            s: top.nested_chain_advances(s) for s in ("nested", "nested-session-union")
        },
    }


def main():
    for name, table in {**per_key_tables(), **top_level_tables()}.items():
        print(f"{name} = {pformat(table, width=88)}\n")


if __name__ == "__main__":
    main()
