"""Two-phase aggregation: vectorized per-block partials → one final on the driver.

The scalable default for LOW-cardinality keys (langs, event types, hourly
windows, nations, users): the partial stage bounds its output at
``num_blocks x distinct_keys`` tiny rows, so the final runs once on the
driver over a few MB — no all-to-all shuffle at any input scale.  This is
the sketch path's shape (``stages/merge.collect_sketches``): the partial
runs with ``batch_size=None``, so Ray Data fuses it into the read (one task
per read split, one call per read batch — ``sources.tables.READ_BATCH_ROWS``
sets the rows), and no exchange or final task follows it.  Ray Data's
sort-based ``groupby`` costs ~10 s of fixed overhead per call locally and a
full exchange at scale; it is the right tool only when the key space itself
is huge (content-hash dedup, per-url state), which callers opt into via
their own ``groupby``.

Measured on this node (100k events, 32 cpus): partial+final = 0.2 s vs
ray groupby = 9.5 s for identical results.
"""

from __future__ import annotations

from typing import Callable

import pandas as pd


def fold_on_driver(
    partials, final_fn: Callable[[pd.DataFrame], pd.DataFrame]
) -> pd.DataFrame:
    """Concatenate the non-empty blocks of Dataset ``partials`` as one pandas
    DataFrame and run ``final_fn`` on it once, on the driver.  With no rows
    at all, returns ``pd.DataFrame()`` without calling ``final_fn``."""
    frames = [
        b
        for b in partials.iter_batches(batch_format="pandas", batch_size=None)
        if len(b)
    ]
    if not frames:
        return pd.DataFrame()
    return final_fn(pd.concat(frames, ignore_index=True))


def two_phase(
    ds,
    partial_fn: Callable,
    final_fn: Callable[[pd.DataFrame], pd.DataFrame],
) -> pd.DataFrame:
    """partial_fn: Arrow batch → partial rows (Table/DataFrame), fused into
    the task that produces each block; final_fn: pandas DataFrame of all
    partials → result DataFrame (see ``fold_on_driver``)."""
    return fold_on_driver(
        ds.map_batches(partial_fn, batch_format="pyarrow", batch_size=None), final_fn
    )
