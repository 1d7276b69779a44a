"""The bytes of every output file: JSON with a 2-space indent, sorted keys
and a trailing newline; RFC-4180 CSV with CRLF line ends and the
documented header.  Each file is written by ``main`` on a small config."""

import csv
import io
import json
from pathlib import Path

import pytest

from vigrating.cli import main

CONFIG = """
[problem]
k = 1.0
theta_deg = 0.0
shape = slab
q_re = 3.0
thickness = 1.0

[numerics]
n1 = 32
n2 = 64
rho_box = 1.1277533039647577
"""

EFFICIENCY_HEADER = "j,alpha_j,beta_j_re,beta_j_im,e_refl,e_trans"

OUTPUTS = {
    "efficiencies.csv": (["solve"], EFFICIENCY_HEADER),
    "result.json": (["solve"], None),
    "sweep.csv": (["sweep", "--param", "theta", "--from", "0", "--to", "20",
                   "--steps", "3"], "theta," + EFFICIENCY_HEADER),
    "garding_report.json": (["diagnose"], None),
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_every_output_file_has_its_documented_format(tmp_path, name):
    command, header = OUTPUTS[name]
    config = tmp_path / "c.ini"
    config.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command[0], str(config), *command[1:],
                 "--output", str(out)]) == 0
    raw = (out / name).read_bytes()
    text = raw.decode("utf-8")
    if name.endswith(".json"):
        if name == "result.json":
            # the one line that differs from run to run
            lines = text.splitlines(keepends=True)
            stamp = [ln for ln in lines if '"timestamp"' in ln]
            assert len(stamp) == 1
            text = text.replace(stamp[0], "")
            text = text.replace(',\n  }', '\n  }')
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
        return
    assert raw.endswith(b"\r\n")
    assert raw.count(b"\n") == raw.count(b"\r\n") > 1
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert ",".join(rows[0]) == header
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    assert buf.getvalue() == text
