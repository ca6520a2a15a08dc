"""File output for field, coefficient, diagnostic, and width-trace data.

Every file is written atomically (temp file then rename) and embeds the
resolved run configuration in its header, so a finished file is never a
partial write and always documents what produced it.  Floats are rendered
with repr, the shortest decimal that round-trips, which keeps reruns of the
same configuration byte-identical.

Two row formats: csv (a comment header of "# key = value" lines, then a
column-name row, then data rows) and json-lines (a meta object on the first
line, then one object per row).  Tables are rendered a column at a time:
one tolist() per column, and a column shared by many rows, such as the x
of a coefficient lattice, is rendered once, as is each distinct coefficient
column of a block.

A table is rendered in blocks of rows: one block per time of a coefficient
lattice, _BLOCK_ROWS rows of any other table.  A table large enough to pay
for it is rendered on one process per usable CPU (parallel.forked_map); the
blocks come back as text and are streamed to the temp file in order.
"""

import contextlib
import itertools
import json
import os

import numpy as np

from . import parallel

EXTENSIONS = {"csv": "csv", "json-lines": "jsonl"}  # format -> file suffix
FORMATS = tuple(EXTENSIONS)

FIELD_COLUMNS = ("x", "re_psi1", "im_psi1", "re_psi2", "im_psi2",
                 "abs2_psi1", "abs2_psi2")
COEFFICIENT_COLUMNS = ("x", "t", "v1", "v2", "g11", "g12", "g21", "g22")
DIAGNOSTICS_COLUMNS = ("t", "norm1", "norm2", "profile_error1",
                       "profile_error2", "peak_pos1")
TRACE_COLUMNS = ("t", "chi", "dchi_dt", "a")


_BLOCK_ROWS = 4096  # rows of a one-array table rendered as one block


def atomic_write_text(path, text):
    """Write text to path via a temp file in the same directory."""
    _atomic_write(path, [text])


def _atomic_write(path, texts):
    """Write the texts, in order, to path via a temp file; the temp file is
    removed if writing or producing a text raises."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(texts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _cells(values, fmt):
    """One column as cells: repr texts for csv, Python floats for json-lines."""
    floats = np.asarray(values, dtype=float).tolist()
    return list(map(repr, floats)) if fmt == "csv" else floats


def _write(path, columns, block_cells, jobs, rows, meta, fmt):
    """Write the rows of block_cells(job) for each job, in order; a block is
    one cell list per column, and rows is the table's row count."""
    if fmt == "csv":
        head = [f"# {k} = {meta[k]}" for k in sorted(meta)] + [",".join(columns)]
        row_text = ",".join
    elif fmt == "json-lines":
        head = [json.dumps({"meta": meta}, sort_keys=True)]
        def row_text(row):
            return json.dumps(dict(zip(columns, row)), sort_keys=True)
    else:
        raise ValueError(f"unknown format {fmt!r}")

    def render(job):
        return "\n".join([*map(row_text, zip(*block_cells(job))), ""])

    workers = parallel.worker_count(len(jobs), rows * len(columns))
    with parallel.forked_map(render, jobs, workers, path) as blocks:
        _atomic_write(path, itertools.chain(["\n".join(head) + "\n"], blocks))


def _write_columns(path, columns, data, meta, fmt):
    rows = len(data[0])

    def block_cells(r0):
        return [_cells(col[r0:r0 + _BLOCK_ROWS], fmt) for col in data]

    _write(path, columns, block_cells, range(0, rows, _BLOCK_ROWS), rows,
           meta, fmt)


def write_table(path, columns, rows, meta, fmt="csv"):
    data = np.array(list(rows), dtype=float).reshape(-1, len(columns))
    _write_columns(path, columns, data.T, meta, fmt)


def write_fields(path, fields, meta, fmt="csv"):
    """One snapshot of both components in the seven-column field layout."""
    data = (fields.x, fields.psi1.real, fields.psi1.imag,
            fields.psi2.real, fields.psi2.imag,
            np.abs(fields.psi1) ** 2, np.abs(fields.psi2) ** 2)
    _write_columns(path, FIELD_COLUMNS, data, meta, fmt)


def write_coefficients(path, sampler, x, times, meta, fmt="csv"):
    """Potential and coupling lattice, t outer, x inner.

    Within a block, columns with the same bytes (v2 = v1 when mu1 = mu2,
    g21 = g12 always) are rendered once; equal bytes, not equal values, so
    +0.0 and -0.0 or two NaN payloads each keep their own text.
    """
    x_cells = _cells(x, fmt)

    def block(t):
        v, g = sampler.potential(x, t), sampler.couplings(x, t)
        rendered = {}
        cells = [x_cells, _cells([t], fmt) * len(x_cells)]
        for col in (v[0], v[1], g[0, 0], g[0, 1], g[1, 0], g[1, 1]):
            key = np.asarray(col, dtype=float).tobytes()
            if key not in rendered:
                rendered[key] = _cells(col, fmt)
            cells.append(rendered[key])
        return cells

    _write(path, COEFFICIENT_COLUMNS, block, times, len(times) * len(x),
           meta, fmt)


def write_diagnostics(path, diag, meta, fmt="csv"):
    data = (diag.times, diag.norm1, diag.norm2,
            diag.profile_error1, diag.profile_error2, diag.peak_pos1)
    _write_columns(path, DIAGNOSTICS_COLUMNS, data, meta, fmt)


def write_modulation(path, trace, meta, fmt="csv"):
    data = (trace.times, trace.chi, trace.dchi_dt, trace.a)
    _write_columns(path, TRACE_COLUMNS, data, meta, fmt)


def write_manifest(path, config):
    atomic_write_text(path, json.dumps(config, sort_keys=True, indent=2) + "\n")
