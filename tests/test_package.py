"""The package's public names, and the README example that uses them."""

import re
import sys
import types
from pathlib import Path

import pytest

import gmepyramid
import gmepyramid.cli

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"

PUBLIC = [
    "Bipartition",
    "CHECK_NAMES",
    "ConcurrenceSpectrum",
    "DEFAULT_ZERO_TOL",
    "MeasureReport",
    "PureState",
    "PyramidGeometry",
    "StateFormatError",
    "TrialConfig",
    "TrialOutcome",
    "base_area",
    "benchmark_states",
    "c_gme",
    "canonical_bipartitions",
    "classify",
    "dense_oracle_purity",
    "evaluate",
    "full_spectrum",
    "ghz_state",
    "haar_random_state",
    "load_state",
    "parse_state",
    "permute_subsystems",
    "random_product_state",
    "run_check",
    "serialize_state",
    "triangle_measure",
    "volume",
    "w_state",
]


def test_each_name_is_one_thing():
    # A submodule's name on the package is the module, never a function of it.
    for name in ["bipartitions", "catalog", "concurrence", "measures", "states", "verify"]:
        assert getattr(gmepyramid, name) is sys.modules[f"gmepyramid.{name}"], name
    assert gmepyramid.__all__ == PUBLIC
    for name in PUBLIC:
        assert not isinstance(getattr(gmepyramid, name), types.ModuleType), name


@pytest.mark.parametrize(
    "module, name",
    [
        (gmepyramid, "base_edge"),
        (gmepyramid, "height"),
        (gmepyramid.measures, "base_edge"),
        (gmepyramid.measures, "height"),
        (gmepyramid.bipartitions, "iter_bipartitions"),
        (gmepyramid.verify, "DEFAULT_TOLERANCES"),
        (gmepyramid.canonical_bipartitions, "cache_clear"),
        (gmepyramid.canonical_bipartitions, "cache_info"),
        (gmepyramid.cli, "_frames"),
        (gmepyramid.cli, "_fmt"),
        (gmepyramid.concurrence, "_oracle_offsets"),
        (gmepyramid.concurrence, "_ORACLE_CACHE_SIZE"),
        (gmepyramid.concurrence, "concurrence"),
        (gmepyramid.verify, "random_local_unitary"),
        (gmepyramid, "random_local_unitary"),
        (gmepyramid, "reduced_purity"),
        (gmepyramid, "apply_local_unitary"),
    ],
)
def test_a_second_path_to_a_value_is_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(module, name)


def test_the_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    block = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out


def _toml_tables(text: str) -> dict[str, list[str]]:
    """The nonblank lines under each ``[table]`` header of a TOML file, read
    as text: Python 3.10 has no tomllib."""
    tables: dict[str, list[str]] = {}
    name = ""
    for line in text.splitlines():
        if header := re.fullmatch(r"\[([\w.-]+)\]\s*", line):
            name = header.group(1)
        elif line.strip():
            tables.setdefault(name, []).append(line)
    return tables


def test_the_version_is_stated_once():
    # pyproject.toml reads the version from the package, which states it.
    tables = _toml_tables(PYPROJECT.read_text(encoding="utf-8"))
    assert not [line for line in tables["project"] if re.match(r"\s*version\s*=", line)]
    assert 'dynamic = ["version"]' in tables["project"]
    assert tables["tool.setuptools.dynamic"] == ['version = {attr = "gmepyramid.__version__"}']
    assert re.fullmatch(r"\d+\.\d+\.\d+", gmepyramid.__version__)
