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
"""

import json
import os

import numpy as np

EXTENSIONS = {"csv": "csv", "json-lines": "jsonl"}  # format -> file suffix
FORMATS = tuple(EXTENSIONS)

FIELD_COLUMNS = ("x", "re_psi1", "im_psi1", "re_psi2", "im_psi2",
                 "abs2_psi1", "abs2_psi2")
COEFFICIENT_COLUMNS = ("x", "t", "v1", "v2", "g11", "g12", "g21", "g22")
DIAGNOSTICS_COLUMNS = ("t", "norm1", "norm2", "profile_error1",
                       "profile_error2", "peak_pos1")
TRACE_COLUMNS = ("t", "chi", "dchi_dt", "a")


def atomic_write_text(path, text):
    """Write text to path via a temp file in the same directory."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _cells(values, fmt):
    """One column as cells: repr texts for csv, Python floats for json-lines."""
    floats = np.asarray(values, dtype=float).tolist()
    return list(map(repr, floats)) if fmt == "csv" else floats


def _write(path, columns, blocks, meta, fmt):
    """Write the rows of each block, a sequence of one cell list per column."""
    if fmt == "csv":
        lines = [f"# {k} = {meta[k]}" for k in sorted(meta)] + [",".join(columns)]
        row_text = ",".join
    elif fmt == "json-lines":
        lines = [json.dumps({"meta": meta}, sort_keys=True)]
        def row_text(row):
            return json.dumps(dict(zip(columns, row)), sort_keys=True)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    for cells in blocks:
        lines.extend(map(row_text, zip(*cells)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_columns(path, columns, data, meta, fmt):
    _write(path, columns, [[_cells(col, fmt) for col in data]], meta, fmt)


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

    _write(path, COEFFICIENT_COLUMNS, map(block, times), meta, fmt)


def write_diagnostics(path, diag, meta, fmt="csv"):
    data = (diag.times, diag.norm1, diag.norm2,
            diag.profile_error1, diag.profile_error2, diag.peak_pos1)
    _write_columns(path, DIAGNOSTICS_COLUMNS, data, meta, fmt)


def write_modulation(path, trace, meta, fmt="csv"):
    data = (trace.times, trace.chi, trace.dchi_dt, trace.a)
    _write_columns(path, TRACE_COLUMNS, data, meta, fmt)


def write_manifest(path, config):
    atomic_write_text(path, json.dumps(config, sort_keys=True, indent=2) + "\n")
