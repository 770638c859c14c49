"""Guards on the record types: typing.NamedTuple classes, read-only fields,
and a Fan that validates every construction."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import toricsec
from toricsec import cohomology, diagonal, fans, files, frobenius, method1
from toricsec import pipelines, quiver, workspace
from toricsec.fans import Fan, FanError

MODULES = (cohomology, diagonal, fans, files, frobenius, method1, pipelines, quiver,
           workspace)

CLASSES = sorted({value for module in MODULES for value in vars(module).values()
                  if isinstance(value, type) and value.__module__.startswith("toricsec.")},
                 key=lambda cls: (cls.__module__, cls.__name__))
RECORDS = [cls for cls in CLASSES if issubclass(cls, tuple) and hasattr(cls, "_fields")]


def test_import_does_not_load_dataclasses():
    src = Path(toricsec.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import toricsec; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_no_class_is_a_dataclass():
    assert len(RECORDS) >= 34
    assert not [cls for cls in CLASSES if hasattr(cls, "__dataclass_fields__")]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_are_read_only(cls):
    record = tuple.__new__(cls, (None,) * len(cls._fields))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_fan_normalises_list_input():
    fan = Fan(2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [0, 2]], label="P2")
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert fan.max_cones == ((0, 1), (1, 2), (0, 2))
    assert all(type(r) is tuple for r in fan.rays + fan.max_cones)
    assert type(fan) is Fan and fan.label == "P2"


BAD_FANS = {
    "wrong dimension": (2, [[1, 0, 0], [0, 1], [-1, -1]], [[0, 1]]),
    "not primitive": (2, [[2, 0], [0, 1], [-1, -1]], [[0, 1]]),
    "missing ray": (2, [[1, 0], [0, 1], [-1, -1]], [[0, 3]]),
    "repeats a ray": (2, [[1, 0], [0, 1], [-1, -1]], [[1, 1]]),
    "ray entry": (2, [[1.0, 0], [0, 1], [-1, -1]], [[0, 1]]),
}


@pytest.mark.parametrize("problem", BAD_FANS)
def test_fan_rejects_bad_input(problem):
    with pytest.raises(FanError, match=problem):
        Fan(*BAD_FANS[problem])


@pytest.mark.parametrize("rebuild", [copy.copy, lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["copy", "pickle"])
def test_fan_rebuilt_by_copy_or_pickle_is_validated(rebuild):
    # _make bypasses Fan.__new__, so these records hold the raw input
    raw = Fan._make((2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [0, 2]], ""))
    fan = rebuild(raw)
    assert fan == Fan(*raw) and fan.max_cones == ((0, 1), (1, 2), (0, 2))
    for problem, args in BAD_FANS.items():
        with pytest.raises(FanError, match=problem):
            rebuild(Fan._make(args + ("",)))
