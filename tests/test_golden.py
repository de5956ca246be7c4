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


# the goldens whose hyperplane term was once drawn and is now a sliced
# quadrature: the cones' and the hyperboloid's hyperplane means, and the two
# cone assemblies whose order-0 term is the link-defect formula over them
SLICED = ([("hyperboloid_r3", theorem)
           for theorem in ("thm3.7", "cor3.8", "thm4.1", "thm4.2", "du_lambda0")]
          + [(name, theorem) for name in ("plane_cone_r3", "star3_cone_r3")
             for theorem in ("prop3.1", "thm3.7", "cor3.8", "du_lambda0", "thm3.9")])


@pytest.mark.parametrize("name,theorem", SLICED, ids=lambda value: value)
def test_sliced_terms_do_not_depend_on_the_seed(name, theorem):
    code, text = run_case(name, theorem, samples=100, seed=7)
    golden = json.loads(golden_path(name, theorem).read_text(encoding="utf-8"))
    assert code == CODES[case_id(name, theorem)]
    assert json.loads(text)["rows"] == golden["rows"]
