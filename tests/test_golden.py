"""Golden reports: every builtin set under every theorem id, byte for byte.

The goldens and the exit-code manifest live in ``tests/golden/``; see
``tests/golden/regen.py`` for how they are made and when they may change.
This test only reads them.
"""

import json

import pytest

from golden.regen import MANIFEST, case_id, cases, golden_path, run_case

CODES = json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_case():
    assert sorted(CODES) == sorted(case_id(*case) for case in cases())


@pytest.mark.parametrize("name,theorem", list(cases()), ids=lambda value: value)
def test_golden_report(name, theorem):
    code, text = run_case(name, theorem)
    assert code == CODES[case_id(name, theorem)]
    path = golden_path(name, theorem)
    if text is None:
        assert not path.exists()
    else:
        assert text == path.read_text(encoding="utf-8")
