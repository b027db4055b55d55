"""Start-up: the source a fresh interpreter compiles while it imports the
package. Code built by ``exec`` or ``eval`` goes into no bytecode cache, so
every call of the program compiles it again. Value classes get their
methods from ``model.value_class``, which compiles nothing; what remains is
one ``eval`` per named tuple class, pinned here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Counts the ``compile`` audit events of generated source (``<string>``)
# while the given modules import, by the module whose import ran the
# compile and the library function that generated the source, and prints
# them as JSON for the package's modules, with the function names each
# dataclasses source defines.
_AUDIT = r"""
import json, re, sys
counts, defined = {}, []

def audit(event, args):
    if event != "compile" or args[1] != "<string>":
        return
    frame = sys._getframe(1)
    origin = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"
    while frame is not None and frame.f_code.co_name != "<module>":
        frame = frame.f_back
    module = frame.f_globals.get("__name__") if frame is not None else None
    if module and module.startswith("newsforms"):
        per_module = counts.setdefault(module, {})
        per_module[origin] = per_module.get(origin, 0) + 1
        if origin.startswith("dataclasses."):
            source = args[0]
            if isinstance(source, bytes):
                source = source.decode()
            defined.extend(re.findall(r"def (\w+)\(", source))

sys.addaudithook(audit)
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps({"counts": counts, "defined": defined}))
"""

_NAMEDTUPLE = "collections.namedtuple"

# the generated compiles each import set may make: one eval per named tuple
# class, which ``typing.NamedTuple`` builds through ``collections.namedtuple``
PINNED = {
    ("newsforms.cli",): {
        "newsforms.lexicons": {_NAMEDTUPLE: 1},
    },
    ("newsforms.cli", "newsforms.rules"): {
        "newsforms.lexicons": {_NAMEDTUPLE: 1},
        "newsforms.pipeline.types": {_NAMEDTUPLE: 4},
    },
    ("newsforms.cli", "newsforms.corpus"): {
        "newsforms.lexicons": {_NAMEDTUPLE: 1},
    },
}


def _audit(modules: tuple[str, ...]) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", _AUDIT, *modules], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("modules", list(PINNED), ids=" + ".join)
def test_import_compiles_only_the_pinned_generated_source(modules):
    found = _audit(modules)
    counts = found["counts"]
    # from Python 3.13 dataclass builds a class's methods in one exec, which
    # for a value class holds only its empty wrapper; before, it makes none
    dataclass_compiles = {module: per_module.pop(origin)
                          for module, per_module in counts.items()
                          for origin in list(per_module) if origin.startswith("dataclasses.")}
    assert set(found["defined"]) <= {"__create_fn__"}
    if sys.version_info < (3, 13):
        assert dataclass_compiles == {}
    assert {module: per_module for module, per_module in counts.items() if per_module} == \
        PINNED[modules]
