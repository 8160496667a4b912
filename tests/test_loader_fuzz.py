"""Fuzz of the three file loaders: any text either loads or raises ValueError.

The config fuzz also drives `gpfl validate --config`: a file the loader
rejects must end the command with exit code 1 and one `gpfl: bad config`
line, never a traceback.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gpfl.cli import main
from gpfl.config import ExperimentConfig, load_config
from gpfl.gpr import dataset_header, load_dataset_csv, load_model_txt

CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)]
DATASET_HEADERS = ["q1", "q2", "dq1", "dq2", "ddq1", "ddq2", "e1", "e2", "x"]
MODEL_KEYS = (["n_outputs", "n_samples", "input_dim", "noise_std"]
              + [f"output{i}.{name}" for i in (1, 2)
                 for name in ("lambda", "lengthscale1", "lengthscale2", "jitter")])

NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# numbers, near-numbers and separators the parsers split on
TOKENS = st.one_of(st.sampled_from(["0", "1", "-1", "2.5", "1e3", "1e999", "nan",
                                    "inf", "abc", "", " ", ",", "=", "#", "1,2"]),
                   st.text(max_size=8))


def _lines(keys, sep):
    """Lines of `key<sep>value` over known keys, mixed with arbitrary text."""
    line = st.one_of(st.tuples(st.sampled_from(keys), TOKENS).map(sep.join),
                     st.text(max_size=20))
    return st.lists(line, max_size=8).map("\n".join)


@st.composite
def _csv_text(draw):
    """An optional noise comment, a header, then up to three rows; or any text.

    Most headers are `dataset_header`s of 1-2 joints and 1-2 outputs, with
    mostly rows of numbers of their width, so rows get parsed and the file
    often loads; the rest are 1-4 names from nine, with rows of any tokens.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text())
    comment = st.one_of(st.floats(0.0, 1e300).map(repr), TOKENS).map(lambda v: f"# noise_std={v}")
    if draw(st.integers(0, 3)):
        names = dataset_header(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        width = len(names)
        numbers = st.lists(NUMBERS, min_size=width, max_size=width)
        anything = st.lists(st.one_of(NUMBERS, TOKENS), min_size=1, max_size=width + 1)
    else:
        names = draw(st.lists(st.sampled_from(DATASET_HEADERS), min_size=1, max_size=4))
        numbers = anything = st.lists(TOKENS, min_size=1, max_size=4)
    rows = [draw(numbers if draw(st.integers(0, 3)) else anything)
            for _ in range(draw(st.integers(0, 3)))]
    return "\n".join([*draw(st.lists(comment, max_size=1)), ",".join(names),
                      *map(",".join, rows)])


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _loads_or_value_error(loader, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        loader(path)
    except ValueError:
        return False
    return True


@FUZZ
@given(text=st.one_of(_lines(CONFIG_KEYS, " = "), st.text()))
def test_config_loads_or_raises_value_error(fuzz_dir, capsys, text):
    path = fuzz_dir / "config.txt"
    if _loads_or_value_error(load_config, path, text):
        return
    capsys.readouterr()
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gpfl: bad config: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@FUZZ
@given(text=_csv_text())
def test_dataset_csv_loads_or_raises_value_error(fuzz_dir, text):
    loaded = _loads_or_value_error(load_dataset_csv, fuzz_dir / "gp_dataset.csv", text)
    event("loaded" if loaded else "ValueError")


@FUZZ
@given(text=st.one_of(_lines(MODEL_KEYS, "="), st.text()))
def test_model_txt_loads_or_raises_value_error(fuzz_dir, text):
    _loads_or_value_error(load_model_txt, fuzz_dir / "gp_model.txt", text)
