"""Config files: ``key = value`` lines read by ``load_config``.

Claims:
    - every field written as ``key = value`` reads back to the same Config
    - a repeated, unknown or negative key is refused with its line number
    - any mutated config text either loads or raises ParseError
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated
from hintikka.config import DEFAULT, Config, load_config
from hintikka.errors import ParseError

FIELDS = [f.name for f in dataclasses.fields(Config)]
SPELLINGS = {True: ("1", "true", "yes", "TRUE"), False: ("0", "false", "no", "No")}


@pytest.fixture(scope="module")
def load(tmp_path_factory):
    """``load(text)``: the Config that ``text`` written to a file gives."""
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"

    def load_text(text):
        path.write_text(text, encoding="utf-8")
        return load_config(path)
    return load_text


@st.composite
def written_configs(draw):
    """(Config, its text): a subset of the fields, each on its own line."""
    values, lines = {}, []
    for name in draw(st.permutations(FIELDS)):
        if not draw(st.booleans()):
            continue
        if isinstance(getattr(DEFAULT, name), bool):
            values[name] = draw(st.booleans())
            written = draw(st.sampled_from(SPELLINGS[values[name]]))
        else:
            values[name] = draw(st.integers(0, 2 ** 40))
            written = str(values[name])
        lines.append(f"{name} = {written}" + draw(st.sampled_from(("", "  # note"))))
    return dataclasses.replace(DEFAULT, **values), "\n".join(lines) + "\n"


@given(written_configs())
@settings(max_examples=50, deadline=None)
def test_config_roundtrip_property(load, written):
    config, text = written
    assert load(text) == config


@pytest.mark.parametrize("text, line", [
    ("n_max = 2\nn_max = 5\n", 2),
    ("n_max = 2\n# comment\nspectrum_scan=9\nspectrum_scan = 9\n", 4),
    ("n_max = -1\n", 1),
    ("n_max = 2 3\n", 1),
    ("n_max\n", 1),
    ("\nscan_default = 4\n", 2),
], ids=["key-twice", "key-twice-same-value", "negative", "two-values", "no-value",
        "unknown-key"])
def test_load_config_refusals(load, text, line):
    with pytest.raises(ParseError) as info:
        load(text)
    assert info.value.line == line


CONFIG_TEXT = "n_max = 2\ninclude_empty_model = yes  # count the empty model\nspectrum_scan=64\n"


@given(mutated(CONFIG_TEXT))
@settings(max_examples=200, deadline=None)
def test_load_config_mutation_fuzz(load, text):
    """Any input either loads or raises ParseError."""
    try:
        load(text)
    except ParseError:
        pass
