import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hal


def test_public_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # `from hal import *` for every user
    assert len(hal.__all__) == len(set(hal.__all__))
    missing = [name for name in hal.__all__ if not hasattr(hal, name)]
    assert missing == []
    namespace = {}
    exec("from hal import *", namespace)
    assert set(hal.__all__) <= set(namespace)


README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that states a value to full precision, as repr prints it
FULL_PRECISION = re.compile(r"#\s+(\d\.\d{12,})\s*$")


def test_readme_quickstart_values_are_what_the_calls_return():
    # the library quickstart's full-precision comments are the repr of the
    # value on their line, so a reader who copies them gets equal doubles
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    checked = []
    for line in block.splitlines():
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        if code.startswith(("from ", "import ")) or "=" in code.split("(", 1)[0]:
            exec(code, namespace)
            continue
        stated = FULL_PRECISION.search(line)
        if stated:
            checked.append((code, stated.group(1), repr(eval(code, namespace))))
    assert [c[0] for c in checked] == ["res.success_probability", "res.fidelity_to_target"]
    for code, stated, actual in checked:
        assert stated == actual, code


SRC = Path(__file__).resolve().parent.parent / "src"

#: Every result record and its fields, in the order they were declared when
#: the records were frozen dataclasses.
RECORDS = {
    "protocol.LeadingOrder": ("p", "gain"),
    "protocol.HeraldResult": ("success_probability", "conditional_state", "gain",
                              "fidelity_to_target", "leading_order", "leakage"),
    "metrology.CampaignSummary": ("attempts", "replicas", "successes", "estimate_mean", "bias",
                                  "variance", "rmse", "per_replica_estimates",
                                  "per_replica_successes", "no_success_replicas",
                                  "elapsed_model_time"),
    "metrology.TimeBudget": ("success_probability", "run_period", "expected_time_per_point"),
    "metrology.TabulatedDensity": ("x", "density"),
    "metrology._InverseCdf": ("x", "cdf", "slopes", "guide", "wide"),
    "spin_ensemble.CollectiveExpectations": ("jx", "jy", "jz", "var_x", "var_p",
                                             "commutator_xp", "commutator_deviation"),
    "validate.CheckResult": ("name", "measured", "tolerance", "passed"),
}


def test_result_records_are_immutable_named_tuples():
    for path, fields in RECORDS.items():
        module, name = path.split(".")
        cls = getattr(importlib.import_module(f"hal.{module}"), name)
        assert cls._fields == fields, path
        record = cls(*range(len(fields)))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], -1)
    assert repr(hal.LeadingOrder(p=0.01, gain=10.0)) == "LeadingOrder(p=0.01, gain=10.0)"


def test_only_the_validated_configs_are_dataclasses():
    # dataclass generates its methods with exec at import, about 0.9 ms for
    # a four-field class against 0.17 ms for the same named tuple. The
    # configs need it: dataclasses.replace re-runs their __post_init__ checks
    code = (
        "import dataclasses\n"
        "made = []\n"
        "plain = dataclasses.dataclass\n"
        "def spy(cls=None, /, **kwargs):\n"
        "    def record(c):\n"
        "        made.append(f'{c.__module__}.{c.__qualname__}')\n"
        "        return plain(**kwargs)(c)\n"
        "    return record if cls is None else record(cls)\n"
        "dataclasses.dataclass = spy\n"
        "import hal, hal.cli\n"
        "print(*sorted(m for m in made if m.startswith('hal.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.split() == [
        "hal.metrology.CampaignConfig",
        "hal.metrology.NoiseModel",
        "hal.optics_ops.HeraldModel",
        "hal.protocol.ProtocolConfig",
        "hal.spin_ensemble.EnsembleSpec",
    ]
