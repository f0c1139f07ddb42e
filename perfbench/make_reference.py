"""Regenerate perfbench/reference.json, the accuracy reference of the gate.

For each workload at seed 0, the final record's sup_F, k_energy and
calabi_energy are computed twice: with the workload's own step and with every
step 4x smaller. The smaller-step values are the reference; the tolerance is
twice this code's error against them plus 1e-10 of the reference, so a more
accurate scheme passes and a broken one fails. Run from the repository root:

    python3 perfbench/make_reference.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import pcflow  # noqa: E402
from gate import REFERENCE, REFERENCE_FIELDS  # noqa: E402
from workloads import WORKLOADS, make_config, reference_step_config  # noqa: E402


def final_records(workload, config):
    geom = pcflow.build_geometry(config)
    phi0 = pcflow.make_initial(geom, config)
    flow = replace(config.flow, record_every=10 ** 9)
    kinds = ((pcflow.FlowKind.PCF, pcflow.FlowKind.NKRF) if workload.crosscheck
             else (flow.flow_kind,))
    return {kind.value: pcflow.run(geom, phi0, replace(flow, flow_kind=kind),
                                   p_list=config.p_list).records[-1]
            for kind in kinds}


def main():
    out = {"rule": "tolerance = 2 * |value - reference| + 1e-10 * |reference|; reference "
                   "uses every step 4x smaller (dt_init and cfl divided by 4)",
           "workloads": {}}
    for workload in WORKLOADS.values():
        config = make_config(workload, (ROOT / "presets" / workload.preset).read_text())
        coarse = final_records(workload, config)
        fine = final_records(workload, reference_step_config(config))
        flows = {}
        for kind, record in coarse.items():
            flows[kind] = {}
            for name in REFERENCE_FIELDS:
                value, ref = getattr(record, name), getattr(fine[kind], name)
                flows[kind][name] = {"reference": ref, "value": value,
                                     "tolerance": 2.0 * abs(value - ref) + 1e-10 * abs(ref)}
        out["workloads"][workload.name] = {"t_end": config.flow.t_end, "flows": flows}
        print(workload.name, json.dumps(flows))
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
