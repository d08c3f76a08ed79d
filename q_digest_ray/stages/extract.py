"""Extraction + projection stage for cc_pages (SURVEY.md §3.4 step 2).

All kernels are pyarrow.compute (vectorized, zero-copy from the object
store); the stage is a plain function for ``map_batches(batch_format=
"pyarrow")``.  The heavy ``html`` binary column is projected away
immediately after extraction so downstream stages only carry small columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the fixed synthesis template (sources/cc_pages.py); RE2 syntax, anchored
_TEXT_RE = r"<body><p>(?P<t>[\s\S]*)</p></body></html>$"
_HOST_RE = r"^https?://(?P<h>[^/]+)"


_BODY_MARK = b"<body><p>"
_TAIL_MARK = b"</p></body></html>"


def extract_text(html: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Recover the page text from html — byte-identical per url (the
    input_hint invariant; tested in tests/test_cc_pages.py).

    Fast path: vectorized marker search (pc.find_substring) + one numpy
    byte-gather straight off the Arrow value buffer (~10x faster than the
    regex); falls back to RE2 extract_regex when a row lacks the markers.
    """
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    if not pa.types.is_binary(html.type) and not pa.types.is_large_binary(html.type):
        html = html.cast(pa.binary())
    find = pc.find_substring(html, _BODY_MARK).to_numpy(zero_copy_only=False)
    if len(find) == 0 or find.min() < 0:
        as_str = html.cast(pa.string())
        return pc.struct_field(pc.extract_regex(as_str, _TEXT_RE), "t")
    off_dtype = np.int64 if pa.types.is_large_binary(html.type) else np.int32
    bufs = html.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype)[
        html.offset : html.offset + len(html) + 1
    ].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    starts = offsets[:-1] + find + len(_BODY_MARK)
    ends = offsets[1:] - len(_TAIL_MARK)
    lengths = ends - starts
    if lengths.min() < 0:  # malformed row → generic regex path
        as_str = html.cast(pa.string())
        return pc.struct_field(pc.extract_regex(as_str, _TEXT_RE), "t")
    out_offsets = np.zeros(len(html) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_offsets[1:])
    total = int(out_offsets[-1])
    # gather indices: for row i, data[starts[i] : ends[i]]
    idx = np.arange(total, dtype=np.int64) + np.repeat(
        starts - out_offsets[:-1], lengths
    )
    gathered = data[idx]
    out = pa.Array.from_buffers(
        pa.large_string(),
        len(html),
        [None, pa.py_buffer(out_offsets.tobytes()), pa.py_buffer(gathered.tobytes())],
    )
    return out.cast(pa.string()) if total < (1 << 31) else out


def text_len_from_html(html: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """utf8 char length of the embedded text WITHOUT materializing it.

    Marker positions give each row's text byte-range inside the shared value
    buffer; utf8 length = count of non-continuation bytes in the range,
    taken from one cumulative sum over the buffer.  Used by the flagship
    quantile path (which needs lengths, not text) — ~10x cheaper than
    extract + utf8_length.
    """
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    if not pa.types.is_binary(html.type) and not pa.types.is_large_binary(html.type):
        html = html.cast(pa.binary())
    find = pc.find_substring(html, _BODY_MARK).to_numpy(zero_copy_only=False)
    off_dtype = np.int64 if pa.types.is_large_binary(html.type) else np.int32
    bufs = html.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype)[
        html.offset : html.offset + len(html) + 1
    ].astype(np.int64)
    if len(html) == 0:
        return np.zeros(0, dtype=np.int64)
    def _fallback() -> np.ndarray:
        # extract_text yields null for unparseable rows → length 0
        lens = pc.fill_null(pc.utf8_length(extract_text(html)), 0)
        return lens.to_numpy(zero_copy_only=False).astype(np.int64)

    if find.min() < 0:
        return _fallback()
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    lo, hi = int(offsets[0]), int(offsets[-1])
    seg = data[lo:hi]
    starts = offsets[:-1] - lo + find + len(_BODY_MARK)
    ends = offsets[1:] - lo - len(_TAIL_MARK)
    byte_lens = ends - starts
    if len(byte_lens) and byte_lens.min() < 0:
        # marker present but tail truncated → negative span; same guard as
        # extract_text (a bare result would crash / poison the sketches)
        return _fallback()
    if len(seg) == 0 or int(seg.max()) < 0x80:
        return byte_lens  # pure ascii: chars == bytes, zero extra passes
    # utf8 char count = byte count - continuation bytes (0b10xxxxxx) in range;
    # alternating reduceat over [start_i, end_i) [end_i, start_{i+1}) ... takes
    # the even slots, avoiding an 8x-sized cumsum temp
    cont = ((seg & 0xC0) == 0x80).astype(np.int32)
    bounds = np.empty(2 * len(starts), dtype=np.int64)
    bounds[0::2] = starts
    bounds[1::2] = ends
    if bounds[-1] >= len(cont):  # reduceat disallows index == len
        cont = np.append(cont, np.int32(0))
    sums = np.add.reduceat(cont, bounds)[0::2]
    sums[byte_lens == 0] = 0
    return byte_lens - sums


def url_host(url: pa.ChunkedArray | pa.Array) -> pa.Array:
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    return pc.struct_field(pc.extract_regex(url, _HOST_RE), "h")


def extract_and_project(batch: pa.Table) -> pa.Table:
    """html:binary → derived metric columns; drops html.

    Output: url, url_host, lang, text_len (chars), html_size (bytes).
    text_len is computed straight off the html buffer (no text copy);
    pipelines that need the text itself call ``extract_text``.
    """
    out = {
        "url": batch["url"],
        "url_host": url_host(batch["url"]),
        "lang": batch["lang"],
    }
    if "html" in batch.column_names:
        out["text_len"] = pa.array(text_len_from_html(batch["html"]))
        out["html_size"] = pc.binary_length(batch["html"]).cast(pa.int64())
    else:
        out["text_len"] = pc.utf8_length(batch["text"]).cast(pa.int64())
    return pa.table(out)
