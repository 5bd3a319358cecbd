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


def live_signatures() -> dict:
    """module -> {name: bare signature} of the exported functions and
    dataclasses, in ``_EXPORTS`` order; constants, enums and other classes
    are left out."""
    pinned = {}
    for module, names in lst._EXPORTS.items():
        objs = {name: getattr(lst, name) for name in names}
        sigs = {name: bare_signature(obj) for name, obj in objs.items()
                if inspect.isfunction(obj) or (isinstance(obj, type) and dataclasses.is_dataclass(obj))}
        if sigs:
            pinned[module] = sigs
    return pinned


def test_the_public_api_is_the_pinned_one():
    with open(PINNED) as fh:
        assert live_signatures() == json.load(fh)


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        json.dump(live_signatures(), fh, indent=1)
        fh.write("\n")
