"""Every trace point of the benchmark's tracer names an existing attribute.

`perfbench/tracing.py` patches each `TRACE_POINTS` entry through its
owner's `__dict__`, so renaming or removing a traced function makes every
traced benchmark run fail.  The module is loaded from its path, since
`perfbench` is not a package on the import path.
"""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_point_is_in_its_owners_dict():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.TRACE_POINTS
               if attr not in owner.__dict__]
    assert missing == []
