"""CSV emission for trajectories and probe reports.

Fixed column order; every value printed with 17 significant digits (lossless
for doubles); LF line endings regardless of platform.
"""

_SCALAR_COLUMNS = (
    ("t", "time"),
    ("dt", "dt"),
    ("sup_F", "sup_F"),
    ("inf_F", "inf_F"),
    ("sup_P", "sup_P"),
    ("entropy", "entropy"),
    ("j_neg_ric", "j_neg_ric"),
    ("k_energy", "k_energy"),
    ("i_functional", "i_functional"),
    ("dissipation", "dissipation"),
    ("calabi_energy", "calabi_energy"),
    ("rho_min", "rho_min"),
    ("volume", "volume"),
    ("poisson_residual", "poisson_residual"),
)


def _format(x):
    return f"{x:.17g}"


def _p_tag(p):
    return str(int(p)) if float(p) == int(p) else repr(float(p))


def header_line(p_list):
    names = [name for name, _ in _SCALAR_COLUMNS]
    names += [f"grad_F_Lp{_p_tag(p)}" for p in p_list]
    names += [f"trace0_Lp{_p_tag(p)}" for p in p_list]
    return ",".join(names)


def record_line(record, p_list):
    cells = [_format(getattr(record, attr)) for _, attr in _SCALAR_COLUMNS]
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
