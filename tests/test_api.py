"""The public API, pinned the way ``tests/data/cli_help.json`` pins the help
text: for every function and dataclass that ``lst.__init__._EXPORTS`` names,
its parameters or fields and their default reprs, without annotations, as
recorded in ``tests/data/api_signatures.json``. An option that is added or
removed shows up as a diff of that file in review. After a deliberate API
change, rewrite it with ``PYTHONPATH=src python tests/test_api.py``."""

import dataclasses
import inspect
import json
from pathlib import Path

import lst

PINNED = Path(__file__).parent / "data" / "api_signatures.json"


def bare_signature(obj) -> str:
    """``obj``'s call signature with its annotations left out, such as
    "(portfolio, w_star)"; a dataclass's lists its fields and defaults."""
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def pinned_objects(module: str) -> dict:
    """name -> object of the functions and dataclasses ``module`` exports, in
    ``_EXPORTS`` order; constants, enums and other classes are left out."""
    objs = {name: getattr(lst, name) for name in lst._EXPORTS[module]}
    return {name: obj for name, obj in objs.items()
            if inspect.isfunction(obj) or (isinstance(obj, type) and dataclasses.is_dataclass(obj))}


def live_signatures() -> dict:
    """module -> {name: bare signature} of ``pinned_objects``."""
    pinned = {}
    for module in lst._EXPORTS:
        sigs = {name: bare_signature(obj) for name, obj in pinned_objects(module).items()}
        if sigs:
            pinned[module] = sigs
    return pinned


def test_the_public_api_is_the_pinned_one():
    with open(PINNED) as fh:
        assert live_signatures() == json.load(fh)


def test_no_exported_option_is_a_callable():
    # a user callable is a code path no command, golden or benchmark runs; a
    # dataclass's signature lists its fields, and under ``from __future__
    # import annotations`` every annotation is a string
    hooks = []
    for module in lst._EXPORTS:
        for name, obj in pinned_objects(module).items():
            params = inspect.signature(obj).parameters.values()
            hooks += [f"{name}.{p.name}" for p in params if "Callable" in str(p.annotation)]
    assert hooks == []


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        json.dump(live_signatures(), fh, indent=1)
        fh.write("\n")
