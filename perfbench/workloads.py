"""The three benchmark workloads: inputs, one job, exact answers, checks.

A workload's ``job(i)`` is one closed-loop request: it runs a complete Ray
Data job through the repo's public calls and returns its output;
``check(output, errs)`` verifies that output against exact answers computed
once (untimed) in ``prepare``.

cc_build composes the same public stages ``run_cc_pages_flagship`` calls
(read -> extract -> 14-sketch build -> merge -> collect -> finalize) instead
of calling it, because the flagship returns only the flat stats table and
the CMS / Bloom checks need the merged sketches; the benchmark's tests
assert both produce the same table.
"""

from __future__ import annotations

import random

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import data
from perfbench.checks import (
    Errors,
    check_hll,
    check_kmv,
    check_never_under,
    check_qdigest,
    check_rank,
    check_relative_value,
    qdigest_eps,
    require,
)
from q_digest_ray.pipelines import queries
from q_digest_ray.pipelines.flagship import QUANTILE_PS, cc_pages_specs, finalize
from q_digest_ray.sources.cc_pages import read_cc_pages
from q_digest_ray.stages.build import SketchSpec, build_sketches
from q_digest_ray.stages.extract import extract_and_project
from q_digest_ray.stages.merge import collect_sketches, merge_grouped

_HOST_RE = r"^https?://(?P<h>[^/]+)"
BLOOM_PROBES = 2000


def _sorted_groups(keys, values: np.ndarray) -> dict[str, np.ndarray]:
    keys = np.asarray(keys, dtype=str)
    order = np.lexsort((values, keys))
    keys, values = keys[order], values[order]
    cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return {str(g[0]): v for g, v in zip(np.split(keys, cuts), np.split(values, cuts))}


def _quantiles(sk) -> dict[float, float]:
    return {p: sk.quantile(p) for p in QUANTILE_PS}


def _read_extracted(cc_dir: str, columns: list[str]):
    ds = read_cc_pages(cc_dir, columns=columns)
    return ds.map_batches(
        extract_and_project, batch_format="pyarrow", zero_copy_batch=True
    )


class CcBuild:
    """Flagship pipeline over a few large one-block cc_pages shards."""

    name = "cc_build"
    ROWS, SHARDS = 20_000, 4
    round_len = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = cc_pages_specs()

    def inputs(self) -> str:
        self.dir = data.cc_pages(self.seed, self.ROWS, self.SHARDS)
        return self.dir

    def prepare(self) -> None:
        t = pq.read_table(data.shard_paths(self.dir), columns=["url", "html", "text", "lang"])
        url = t["url"].combine_chunks()
        host = pc.struct_field(pc.extract_regex(url, _HOST_RE), "h")
        self.n = t.num_rows
        self.cols = {
            "text_len": pc.utf8_length(t["text"]).to_numpy().astype(np.int64),
            "html_size": pc.binary_length(t["html"]).to_numpy().astype(np.int64),
            "url": url,
            "url_host": host,
            "lang": t["lang"].combine_chunks(),
        }
        self.by_lang = _sorted_groups(
            self.cols["lang"].to_numpy(zero_copy_only=False), self.cols["text_len"]
        )
        self.sorted = {c: np.sort(self.cols[c]) for c in ("text_len", "html_size")}
        rng = random.Random(self.seed)
        self.bloom_probe = pa.array(rng.sample(url.to_pylist(), min(BLOOM_PROBES, self.n)))

    def job_rows(self, i: int) -> int:
        return self.ROWS

    def job(self, i: int):
        ds = _read_extracted(self.dir, ["url", "html", "lang"])
        sketches = collect_sketches(merge_grouped(build_sketches(ds, self.specs)))
        return sketches, finalize(sketches)

    def check(self, out, errs: Errors) -> None:
        sketches, stats = out
        require(
            list(stats.columns) == ["metric", "group_key", "stat", "value"] and len(stats) > 0,
            "cc_build: finalize table malformed",
        )
        require(
            set(stats["metric"]) == {s.metric for s in self.specs},
            "cc_build: finalize table is missing metrics",
        )
        for spec in self.specs:
            what = f"cc_build.{spec.metric}"
            if spec.group_by is not None:
                got = {g for (m, g) in sketches if m == spec.metric}
                require(got == set(self.by_lang), f"{what}: groups {sorted(got)}")
                eps = qdigest_eps(spec.params["k"], spec.params["universe_bits"])
                for lang, vals in self.by_lang.items():
                    sk = sketches[(spec.metric, lang)]
                    check_qdigest(errs, f"{what}[{lang}]", vals, _quantiles(sk), sk.n, eps)
                continue
            sk = sketches.get((spec.metric, ""))
            require(sk is not None, f"{what}: missing")
            require(sk.n == self.n, f"{what}: n={sk.n} != {self.n}")
            col = self.cols[spec.column]
            if spec.kind == "qdigest":
                eps = qdigest_eps(spec.params["k"], spec.params["universe_bits"])
                check_qdigest(errs, what, self.sorted[spec.column], _quantiles(sk), sk.n, eps)
            elif spec.kind in ("tdigest", "kll"):
                check_rank(what, self.sorted[spec.column], _quantiles(sk))
            elif spec.kind == "dds":
                check_relative_value(what, self.sorted[spec.column], _quantiles(sk), spec.params["alpha"])
            elif spec.kind == "hll":
                check_hll(errs, what, sk.estimate(), len(pc.unique(col)), spec.params["p"])
            elif spec.kind == "kmv":
                check_kmv(errs, what, sk.estimate(), len(pc.unique(col)), spec.params["k"])
            elif spec.kind == "cms":
                vc = pc.value_counts(col)
                check_never_under(what, sk.query(vc.field("values")), vc.field("counts").to_numpy())
            elif spec.kind == "bloom":
                hits = sk.contains(self.bloom_probe)
                require(bool(hits.all()), f"{what}: {int((~hits).sum())} false negatives")


class MergeFanin:
    """Host-grouped sketches over many small blocks: partials outnumber
    merged rows, so deserialize + merge + fold dominate."""

    name = "merge_fanin"
    ROWS, SHARDS = 4_000, 12
    round_len = 1
    QD = {"k": 32, "universe_bits": 17}
    HLL = {"p": 11}

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [
            SketchSpec("text_len_by_host", "text_len", "qdigest", self.QD, group_by="url_host"),
            SketchSpec("urls_by_host", "url", "hll", self.HLL, group_by="url_host"),
        ]

    def inputs(self) -> str:
        self.dir = data.cc_pages(self.seed, self.ROWS, self.SHARDS)
        return self.dir

    def prepare(self) -> None:
        t = pq.read_table(data.shard_paths(self.dir), columns=["url", "text"])
        url = t["url"].combine_chunks()
        host = pc.struct_field(pc.extract_regex(url, _HOST_RE), "h").to_numpy(zero_copy_only=False)
        self.text_len = _sorted_groups(host, pc.utf8_length(t["text"]).to_numpy().astype(np.int64))
        distinct = pa.table({"h": host, "u": url}).group_by("h").aggregate([("u", "count_distinct")])
        self.distinct = dict(zip(distinct["h"].to_pylist(), distinct["u_count_distinct"].to_pylist()))
        self.eps = qdigest_eps(self.QD["k"], self.QD["universe_bits"])

    def job_rows(self, i: int) -> int:
        return self.ROWS

    def job(self, i: int):
        ds = _read_extracted(self.dir, ["url", "text", "lang"])
        return collect_sketches(merge_grouped(build_sketches(ds, self.specs)))

    def check(self, sketches, errs: Errors) -> None:
        for spec in self.specs:
            got = {g for (m, g) in sketches if m == spec.metric}
            require(got == set(self.text_len), f"merge_fanin.{spec.metric}: {len(got)} hosts, exact {len(self.text_len)}")
        for host, vals in self.text_len.items():
            qd = sketches[("text_len_by_host", host)]
            check_qdigest(errs, f"merge_fanin.text_len[{host}]", vals, _quantiles(qd), qd.n, self.eps)
            hll = sketches[("urls_by_host", host)]
            require(hll.n == len(vals), f"merge_fanin.urls_by_host[{host}]: n={hll.n} != {len(vals)}")
            check_hll(errs, f"merge_fanin.urls_by_host[{host}]", hll.estimate(), self.distinct[host], self.HLL["p"])


def _stat_rows(df: pd.DataFrame) -> dict[tuple[str, str], dict[str, float]]:
    out: dict[tuple[str, str], dict[str, float]] = {}
    for m, g, s, v in df[["metric", "group_key", "stat", "value"]].itertuples(index=False):
        out.setdefault((m, g), {})[s] = v
    return out


def _ps(stats: dict[str, float], ps=QUANTILE_PS) -> dict[float, float]:
    return {p: stats[f"p{int(p * 100)}"] for p in ps}


class SketchQueries:
    """A fixed mix of catalog sketch queries over the sf0.1 documents and
    events tables, run in a seed-shuffled order: Ray Data's per-job cost
    dominates.

    The mix has 11 queries, not 12: with an odd count the median and p75 of
    whole rounds fall inside one query's samples instead of on the boundary
    between two query types, where they jump from run to run."""

    name = "sketch_queries"
    MIX = (
        "sk_qdigest_nchars",
        "sk_qdigest_nchars_by_lang",
        "sk_tdigest_event_values",
        "sk_kll_nchars",
        "sk_ddsketch_nchars",
        "sk_native_udaf",
        "sk_hll_distinct_users",
        "sk_cms_event_types",
        "sk_window_rollup",
        "sk_kmv_user_overlap",
        "sk_bloom_membership",
    )
    TABLE = {
        "sk_tdigest_event_values": "events",
        "sk_hll_distinct_users": "events",
        "sk_cms_event_types": "events",
        "sk_window_rollup": "events",
        "sk_kmv_user_overlap": "events",
    }

    def __init__(self, seed: int):
        self.seed = seed
        self.order = list(self.MIX)
        random.Random(seed).shuffle(self.order)
        self.round_len = len(self.order)

    def inputs(self) -> str:
        self.dir = data.sf01()
        return self.dir

    def job_rows(self, i: int) -> int:
        name = self.order[i % len(self.order)]
        return self.events if self.TABLE.get(name) == "events" else self.docs

    def prepare(self) -> None:
        con = duckdb.connect()
        try:
            for t in ("documents", "events"):
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{self.dir}/{t}.parquet')")

            def arr(sql: str) -> np.ndarray:
                return np.asarray(con.execute(sql).fetchnumpy()["v"])

            def grouped(sql: str) -> dict[str, np.ndarray]:
                return {str(k): np.asarray(v) for k, v in con.execute(sql).fetchall()}

            def scalar(sql: str):
                return con.execute(sql).fetchone()[0]

            self.docs = scalar("SELECT count(*) FROM documents")
            self.events = scalar("SELECT count(*) FROM events")
            self.nchars = arr("SELECT n_chars AS v FROM documents ORDER BY v")
            self.nchars_by_lang = grouped("SELECT lang, list(n_chars ORDER BY n_chars) FROM documents GROUP BY lang")
            self.values = arr("SELECT value AS v FROM events ORDER BY v")
            self.distinct_users = scalar("SELECT count(DISTINCT user_id) FROM events")
            self.distinct_text = scalar("SELECT count(DISTINCT text) FROM documents")
            self.type_counts = dict(con.execute("SELECT event_type, count(*) FROM events GROUP BY 1").fetchall())
            self.type_users = dict(
                con.execute("SELECT event_type, count(DISTINCT user_id) FROM events GROUP BY 1").fetchall()
            )
            cents = "CAST(round(value * 100) AS BIGINT)"
            self.cents_by_hour = grouped(
                f"SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00'), list({cents} ORDER BY {cents}) "
                "FROM events GROUP BY 1"
            )
            self.cents_by_day = grouped(
                f"SELECT strftime(date_trunc('day', ts), '%Y-%m-%d'), list({cents} ORDER BY {cents}) "
                "FROM events GROUP BY 1"
            )
            self.cents = arr(f"SELECT {cents} AS v FROM events ORDER BY v")
            self.src1_docs = scalar("SELECT count(*) FROM documents WHERE source = 'src1'")
        finally:
            con.close()

    def job(self, i: int):
        name = self.order[i % len(self.order)]
        return name, queries.SKETCH_QUERIES[name](self.dir)

    # -- per-query checks ----------------------------------------------------

    def check(self, out, errs: Errors) -> None:
        name, df = out
        require(len(df) > 0, f"{name}: empty result")
        getattr(self, "_check_" + name)(df, errs)

    @staticmethod
    def _eps(k: int, bits: int, vals: np.ndarray) -> float:
        # the q-digest universe widens to cover the largest value
        return qdigest_eps(k, max(bits, int(vals[-1]).bit_length()))

    def _finalized(self, df, errs, metric, truth: dict[str, np.ndarray], kind: str, **kw) -> None:
        rows = _stat_rows(df)
        require({g for (m, g) in rows if m == metric} == set(truth), f"{metric}: groups differ")
        for g, vals in truth.items():
            st = rows[(metric, g)]
            what = f"{metric}[{g}]"
            if kind == "qdigest":
                check_qdigest(errs, what, vals, _ps(st), int(st["n"]), self._eps(kw["k"], kw["bits"], vals))
                continue
            require(int(st["n"]) == len(vals), f"{what}: n={st['n']} != {len(vals)}")
            if kind == "dds":
                check_relative_value(what, vals, _ps(st), kw["alpha"])
            else:
                check_rank(what, vals, _ps(st))

    def _check_sk_qdigest_nchars(self, df, errs):
        self._finalized(df, errs, "n_chars_qdigest", {"": self.nchars}, "qdigest", k=256, bits=16)

    def _check_sk_qdigest_nchars_by_lang(self, df, errs):
        self._finalized(df, errs, "n_chars_by_lang", self.nchars_by_lang, "qdigest", k=256, bits=16)

    def _check_sk_tdigest_event_values(self, df, errs):
        self._finalized(df, errs, "value_tdigest", {"": self.values}, "tdigest")

    def _check_sk_kll_nchars(self, df, errs):
        self._finalized(df, errs, "n_chars_kll", {"": self.nchars}, "kll")

    def _check_sk_ddsketch_nchars(self, df, errs):
        self._finalized(df, errs, "n_chars_dds", {"": self.nchars}, "dds", alpha=0.01)

    def _check_sk_native_udaf(self, df, errs):
        st = dict(zip(df["stat"], df["value"]))
        require(set(st) == {"n_chars_dds_p50", "n_chars_dds_p99", "text_hll_distinct"}, f"sk_native_udaf: {sorted(st)}")
        check_relative_value(
            "sk_native_udaf.dds", self.nchars, {0.5: st["n_chars_dds_p50"], 0.99: st["n_chars_dds_p99"]}, 0.01
        )
        check_hll(errs, "sk_native_udaf.text_hll", st["text_hll_distinct"], self.distinct_text, 12)

    def _check_sk_hll_distinct_users(self, df, errs):
        st = _stat_rows(df)[("distinct_users_hll", "")]
        require(int(st["n"]) == self.events, f"sk_hll_distinct_users: n={st['n']}")
        check_hll(errs, "sk_hll_distinct_users", st["distinct_estimate"], self.distinct_users, 12)

    def _check_sk_cms_event_types(self, df, errs):
        require(sorted(df["event_type"]) == sorted(self.type_counts), "sk_cms_event_types: types differ")
        exact = [self.type_counts[t] for t in df["event_type"]]
        check_never_under("sk_cms_event_types", df["est_count"].to_numpy(), exact)

    def _check_hourly(self, what, df, truth, errs):
        require(sorted(df["window"]) == sorted(truth), f"{what}: windows differ")
        for win, p50, p90, n in df[["window", "p50_cents", "p90_cents", "n"]].itertuples(index=False):
            vals = truth[win]
            check_qdigest(errs, f"{what}[{win}]", vals, {0.5: p50, 0.9: p90}, int(n), self._eps(64, 16, vals))

    def _check_sk_window_rollup(self, df, errs):
        require(set(df["level"]) == {"hour", "day", "all"}, "sk_window_rollup: levels")
        for level, truth in (("hour", self.cents_by_hour), ("day", self.cents_by_day), ("all", {"": self.cents})):
            self._check_hourly(f"sk_window_rollup.{level}", df[df["level"] == level], truth, errs)

    def _check_sk_kmv_user_overlap(self, df, errs):
        st = dict(zip(df["stat"], df["value"]))
        for et, exact in self.type_users.items():
            check_kmv(errs, f"sk_kmv_user_overlap[{et}]", st[f"distinct:{et}"], exact, 1024)
        require("jaccard:click&purchase" in st, "sk_kmv_user_overlap: no jaccard")

    def _check_sk_bloom_membership(self, df, errs):
        r = df.iloc[0]
        require(int(r["n_probed"]) == self.docs, f"sk_bloom_membership: probed {r['n_probed']}")
        require(int(r["n_inserted"]) == self.src1_docs, f"sk_bloom_membership: inserted {r['n_inserted']}")
        require(int(r["n_hits"]) >= self.src1_docs, "sk_bloom_membership: false negatives")


WORKLOADS = {w.name: w for w in (CcBuild, MergeFanin, SketchQueries)}
