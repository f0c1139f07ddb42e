"""CSV emission for trajectories and probe reports.

Fixed column order; every value printed with 17 significant digits (lossless
for doubles); LF line endings regardless of platform. The scalar columns
are the float fields of TraceRecord, in order, with time written as t.
"""

from dataclasses import fields

from .functionals import TraceRecord

_SCALARS = tuple(f.name for f in fields(TraceRecord) if f.type is float)


def _format(x):
    return f"{x:.17g}"


def _p_tag(p):
    return str(int(p)) if float(p) == int(p) else repr(float(p))


def header_line(p_list):
    names = ["t" if name == "time" else name for name in _SCALARS]
    names += [f"grad_F_Lp{_p_tag(p)}" for p in p_list]
    names += [f"trace0_Lp{_p_tag(p)}" for p in p_list]
    return ",".join(names)


def record_line(record, p_list):
    cells = [_format(getattr(record, name)) for name in _SCALARS]
    cells += [_format(record.lp_grad_F[p]) for p in p_list]
    cells += [_format(record.lp_trace0[p]) for p in p_list]
    return ",".join(cells)


def _write_records(records, path):
    p_list = tuple(records[0].lp_grad_F.keys())
    with open(path, "w", newline="\n") as fh:
        fh.write(header_line(p_list) + "\n")
        for record in records:
            fh.write(record_line(record, p_list) + "\n")


def emit_csv(trajectory, path):
    """One header plus one row per TraceRecord, in record order."""
    if not trajectory.records:
        raise ValueError("trajectory has no records to emit")
    _write_records(trajectory.records, path)


def emit_record_csv(record, path):
    """Single-record variant (the probe command)."""
    _write_records((record,), path)


def emit_divergence_csv(times, divergences, path):
    """Cross-flow comparison: t, sup|rho_a - rho_b| per record."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,sup_rho_diff\n")
        for t, d in zip(times, divergences):
            fh.write(f"{_format(t)},{_format(d)}\n")
