"""The JSON of the supersphere projectors ``projector_p(n)``, n = 1..4, compared byte for byte with ``data/projectors``.

The files were written before Gaussian values that are real integers were
stored as ``int``; they hold the ``re``/``im`` strings of every radical term,
so any change of a value's stored form that reached the JSON would show here.
A projector read back from its file equals the one built.
"""

import json
from pathlib import Path

import pytest

from superalg.landi import projector_p
from superalg.supermodule import SuperMorphism

PROJECTORS = Path(__file__).resolve().parent / "data" / "projectors"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projector_json_matches_pinned_file(n):
    pinned = (PROJECTORS / f"projector-p{n}.json").read_text(encoding="utf-8")
    p = projector_p(n)
    assert json.dumps(p.to_json(), sort_keys=True) + "\n" == pinned
    assert SuperMorphism.from_json(json.loads(pinned)) == p
