"""Budget and default-parameter configuration.

All limits are explicit: operations refuse (raise BudgetError) instead of
truncating. The defaults are conservative because theory computation is
exponential in depth by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import BudgetError
from .lineformat import LineReader


@dataclass(frozen=True)
class Config:
    # theory computation
    n_max: int = 3                  # maximum theory depth
    depth2_size_max: int = 8        # |universe| cap when depth >= 2
    theory_bits_max: int = 20       # 2^(size*depth) iteration guard

    # structure enumeration: sum over predicates of size^arity, in bits
    enum_bits_max: int = 24

    # formal theory spaces / scheme enumeration
    formal_budget: int = 2 ** 20
    scheme_budget: int = 2 ** 20

    # MSO evaluation: size * (number of nested set quantifiers), in bits
    eval_bits_max: int = 22

    # decomposability search
    decomp_size_max: int = 24
    decomp_k_max: int = 3

    # number-set engine
    # label count of a parsed quadruple system, checked before any
    # per-label set is built (numbersets.parse_system)
    system_labels_max: int = 2 ** 16
    # pump search: trees yielded at any level of the enumeration, repeated
    # inner enumerations included; a replayed list counts the same
    # (numbersets._search_pump)
    pump_tree_cap: int = 100_000

    # spectra
    spectrum_scan: int = 96
    spectrum_window: int = 16

    include_empty_model: bool = False

    def check(self, budget: str, needed, limit) -> None:
        if needed > limit:
            raise BudgetError(budget, needed, limit)


DEFAULT = Config()

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def load_config(path, base: Config = DEFAULT) -> Config:
    """Read ``key = value`` lines into a Config; every int is non-negative."""
    kinds = {f: type(getattr(base, f)) for f in base.__dataclass_fields__}
    with open(path, "r", encoding="utf-8") as fh:
        reader = LineReader(fh.read())
    overrides = {}
    for tokens in reader:
        key, eq, value = " ".join(tokens).partition("=")
        item = key.rstrip() + eq + value.lstrip()
        [(key, value)] = reader.fields([item], (), "config key", kinds).items()
        reader.once(key, f"config key {key!r}")
        if kinds[key] is not bool:
            overrides[key] = reader.integer(value, key)
        elif value.lower() in _BOOLEANS:
            overrides[key] = _BOOLEANS[value.lower()]
        else:
            raise reader.error(f"bad value for {key}: expected one of "
                               f"{', '.join(_BOOLEANS)}, got {value!r}")
    return replace(base, **overrides)
