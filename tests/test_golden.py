"""Golden report bytes.

Each case runs one CLI command into a temporary directory and compares the
JSON report it writes, byte for byte, with the committed copy under
`tests/golden/`.  A change that is meant to keep evidence unchanged (a faster
enumeration, a refactor) must pass this test untouched.  A change that is
meant to alter reports regenerates the files and says why:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from mclab import FIXTURES
from mclab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 7
SAMPLE_COUNT = 20

# known outcomes per metric family (paper, properties (A)-(C))
_L1 = "A=fails,B=refused,Bprime=fails,Bdoubleprime=fails"
CHECK_EXPECT = {
    "vec3-p1-exact": _L1,
    "vec3-p1": _L1,
    "vec3-pinf-exact": _L1 + ",C=fails",
    "vec3-p2": "",
    "vec6-pinf": _L1 + ",C=fails",
}

CASES = [f"check-{space}" for space in CHECK_EXPECT] + [
    f"reproduce-{name}" for name in sorted(FIXTURES)
]


def run_case(case: str, out_dir: Path) -> Path:
    """Run the command behind `case` and return the JSON report it wrote."""
    cfg = out_dir / "golden-config.json"
    cfg.write_text(json.dumps({"sample_count": SAMPLE_COUNT}), encoding="utf-8")
    common = ["--config", str(cfg), "--seed", str(SEED), "--out", str(out_dir)]
    command, name = case.split("-", 1)
    if command == "check":
        argv = ["check", "--space", name, *common]
        if CHECK_EXPECT[name]:
            argv += ["--expect", CHECK_EXPECT[name]]
    else:
        argv = ["reproduce", name, *common]
    main(argv)
    return out_dir / f"{case}.json"


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_match_golden(case, tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("MCLAB_")]:
        monkeypatch.delenv(key)
    written = run_case(case, tmp_path)
    assert written.read_bytes() == (GOLDEN_DIR / f"{case}.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    # the test runs without MCLAB_* overrides, so the regeneration must too
    for key in [k for k in os.environ if k.startswith("MCLAB_")]:
        del os.environ[key]
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            report = run_case(case, Path(tmp))
            (GOLDEN_DIR / report.name).write_bytes(report.read_bytes())
            print(f"wrote {GOLDEN_DIR / report.name}", file=sys.stderr)
