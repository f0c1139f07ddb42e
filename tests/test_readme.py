"""README's examples run as written: its Python blocks in order, its scenario
example through parse_config, and its tier-1 command as ROADMAP states it."""

import re
from pathlib import Path

import numpy as np

import pcflow as pf

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    # the blocks share one namespace, as they would pasted into one
    # interpreter; the resume block claims that the resumed run ends on
    # the uninterrupted run's last state, bitwise
    monkeypatch.chdir(tmp_path)
    blocks = _blocks("python")
    assert len(blocks) == 3
    namespace = {}
    resumed = 0
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        if 'start_coeffs=meta["coeffs"]' in block:
            geom, config = namespace["geom"], namespace["config"]
            full = pf.run(geom, 0.5 * np.cos(geom.x), config).states[-1]
            last = namespace["trajectory"].states[-1]
            assert last.time == full.time == config.t_end
            assert np.array_equal(last.coeffs, full.coeffs)
            assert np.array_equal(last.phi, full.phi)
            resumed += 1
    assert resumed == 1


def test_scenario_example_parses():
    (block,) = _blocks("ini")
    config = pf.parse_config(block)
    assert config.geometry_kind == "torus"
    assert config.output_path == "energy_torus.csv"


def test_tier1_command_is_roadmaps():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    (tier1,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, flags=re.M)
    install = README.split("## Install and test", 1)[1]
    commands = re.search(r"^```sh\n(.*?)^```", install, flags=re.M | re.S).group(1)
    assert tier1 in commands.splitlines()
