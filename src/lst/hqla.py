"""
Redemption coverage under the high-quality-liquid-assets approach: the static
Basel-style cash-conversion-factor matrix and a parametric CCF combining
liquidity, drawdown and fund-specific risk factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from ._checks import DomainError, check_finite, check_number, load_json


class AssetClass(Enum):
    CASH = "cash"
    SOVEREIGN = "sovereign"
    CORPORATE = "corporate"
    SECURITIZATION = "securitization"
    EQUITY = "equity"


class RatingBand(Enum):
    """Credit rating buckets of the static CCF matrix."""

    AA_TO_AAA = "AA- to AAA"
    A_TO_APLUS = "A- to A+"
    BBB_TO_BBBPLUS = "BBB- to BBB+"
    BELOW_BBB = "below BBB-"


# Static cash conversion factors by (asset class, rating band). Cash and
# equities ignore the rating. The implicit liquidation horizon of this matrix
# is not standardized (Basel suggests one month); the parametric CCF below is
# the horizon-aware alternative. Some supervisory variants grade top-rated
# securitizations between 65% and 93% instead of a flat 85%; that calibration
# is deliberately not a second lookup table here.
_STATIC_CCF = {
    AssetClass.CASH: {band: 1.00 for band in RatingBand},
    AssetClass.EQUITY: {band: 0.50 for band in RatingBand},
    AssetClass.SOVEREIGN: {
        RatingBand.AA_TO_AAA: 1.00,
        RatingBand.A_TO_APLUS: 0.85,
        RatingBand.BBB_TO_BBBPLUS: 0.50,
        RatingBand.BELOW_BBB: 0.00,
    },
    AssetClass.CORPORATE: {
        RatingBand.AA_TO_AAA: 0.85,
        RatingBand.A_TO_APLUS: 0.50,
        RatingBand.BBB_TO_BBBPLUS: 0.50,
        RatingBand.BELOW_BBB: 0.00,
    },
    AssetClass.SECURITIZATION: {
        RatingBand.AA_TO_AAA: 0.85,
        RatingBand.A_TO_APLUS: 0.50,
        RatingBand.BBB_TO_BBBPLUS: 0.00,
        RatingBand.BELOW_BBB: 0.00,
    },
}


@dataclass(frozen=True)
class HqlaBucket:
    """One HQLA class with its parametric CCF inputs.

    Attributes:
        name: Bucket label.
        selling_intensity: Proportion of the bucket sellable per trading day.
        loss_intensity: Drawdown growth per sqrt(day).
        max_drawdown: Cap on the drawdown factor, in [0, 1].
        ccf_static: Optional fixed CCF overriding the parametric one.
    """

    name: str
    selling_intensity: float = 0.0
    loss_intensity: float = 0.0
    max_drawdown: float = 1.0
    ccf_static: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ccf_static is not None:
            check_finite(self, ("ccf_static",), "[0, 1]")
        check_finite(self, ("selling_intensity", "loss_intensity"), "non-negative")
        check_finite(self, ("max_drawdown",), "[0, 1]")


@dataclass(frozen=True)
class SpecificRiskParams:
    """Fund-level size and concentration penalty for the parametric CCF."""

    tna_threshold: float
    herfindahl_threshold: float
    size_coefficient: float
    concentration_coefficient: float
    cap: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self, ("tna_threshold", "herfindahl_threshold"), "positive")
        check_finite(self, ("size_coefficient", "concentration_coefficient"), "non-negative")
        check_finite(self, ("cap",), "[0, 1]")

    def factor(self, fund_tna: float, fund_herfindahl: float) -> float:
        """Additive size + concentration penalty, capped."""
        check_number("fund_tna", fund_tna, "non-negative")
        check_number("fund_herfindahl", fund_herfindahl, "non-negative")
        size = self.size_coefficient * max(fund_tna / self.tna_threshold - 1.0, 0.0)
        conc = self.concentration_coefficient * max(
            math.sqrt(fund_herfindahl / self.herfindahl_threshold) - 1.0, 0.0
        )
        return min(size + conc, self.cap)


def ccf_static_lookup(asset_class: AssetClass, rating: RatingBand) -> float:
    """Static cash conversion factor from the Basel-style matrix."""
    try:
        return _STATIC_CCF[AssetClass(asset_class)][RatingBand(rating)]
    except (KeyError, ValueError) as exc:
        raise DomainError(f"no static CCF for ({asset_class}, {rating})") from exc


def liquidity_factor(bucket: HqlaBucket, tau_h: float) -> float:
    """Proportion of the bucket sellable in tau_h days: min(1, intensity * tau_h)."""
    check_number("tau_h", tau_h, "non-negative")
    return min(1.0, bucket.selling_intensity * tau_h)


def drawdown_factor(bucket: HqlaBucket, tau_h: float) -> float:
    """Worst-case loss over tau_h days: min(MDD, intensity * sqrt(tau_h))."""
    check_number("tau_h", tau_h, "non-negative")
    return min(bucket.max_drawdown, bucket.loss_intensity * math.sqrt(tau_h))


def ccf_parametric(
    bucket: HqlaBucket,
    specific_risk: Optional[SpecificRiskParams],
    tau_h: float,
    fund_tna: float = 0.0,
    fund_herfindahl: float = 0.0,
    conservative: bool = False,
) -> float:
    """Parametric CCF: liquidity factor x (1 - drawdown) x (1 - specific risk).

    The drawdown is evaluated at the half horizon, which approximates the
    average loss over a sale spread across the window; ``conservative=True``
    evaluates it at the full horizon instead (a strictly lower CCF).

    A bucket's ``ccf_static`` overrides the formula: it is returned once the
    inputs are checked as for any bucket.
    """
    lf = liquidity_factor(bucket, tau_h)
    df = drawdown_factor(bucket, tau_h if conservative else tau_h / 2.0)
    sf = specific_risk.factor(fund_tna, fund_herfindahl) if specific_risk else 0.0
    if bucket.ccf_static is not None:
        return bucket.ccf_static
    return lf * (1.0 - df) * (1.0 - sf)


def rcr_hqla(bucket_weights: Sequence[Tuple[float, float]], rate: float) -> Tuple[float, float]:
    """Coverage ratio and shortfall from (weight, CCF) pairs.

    RCR = sum(w_k * ccf_k) / rate and LS = rate * max(0, 1 - RCR), the
    shortfall as a fraction of net assets.
    """
    check_number("rate", rate, "positive")
    for k, (weight, ccf) in enumerate(bucket_weights, start=1):
        check_number(f"weight {k}", weight, "non-negative")
        check_number(f"CCF {k}", ccf, "[0, 1]")
    total_weight = sum(w for w, _ in bucket_weights)
    if abs(total_weight - 1.0) > 1e-9:
        raise DomainError(f"bucket weights sum to {total_weight}, expected 1")
    liquid = sum(w * ccf for w, ccf in bucket_weights)
    rcr = liquid / rate
    ls = rate * max(0.0, 1.0 - rcr)
    return rcr, ls


#: Bucket JSON keys -> the ``HqlaBucket`` fields they set (absent: the default).
_BUCKET_KEYS = {"lambda": "selling_intensity", "eta_dd": "loss_intensity",
                "mdd": "max_drawdown", "ccf_static": "ccf_static"}


def load_buckets(path) -> list:
    """Read bucket definitions from JSON: [{name, lambda, eta_dd, mdd, ccf_static?}, ...].

    A DomainError names the file and the entry (from 1): a missing or
    non-string name, a value that is not a JSON number or is an integer too
    large for a float (with its field), or a bucket ``HqlaBucket`` rejects
    (with its message). A file that is not JSON is a ConfigError.
    """
    raw = load_json(path, "bucket")
    if not (isinstance(raw, list) and all(isinstance(rec, dict) for rec in raw)):
        raise DomainError(f"bucket file {path} must hold a JSON list of objects")
    buckets = []
    for k, rec in enumerate(raw, start=1):
        where = f"bucket file {path}, entry {k}"
        if "name" not in rec:
            raise DomainError(f"{where}: name is required")
        if not isinstance(rec["name"], str):
            raise DomainError(f"{where}: name {rec['name']!r} is not a string")
        fields = {}
        for key, field in _BUCKET_KEYS.items():
            if key in rec:
                if isinstance(rec[key], bool) or not isinstance(rec[key], (int, float)):
                    raise DomainError(f"{where}: {key} {rec[key]!r} is not a number")
                try:
                    fields[field] = float(rec[key])
                except OverflowError:  # a JSON integer past the float range
                    raise DomainError(f"{where}: {key} is an integer too large for a float") from None
        try:
            buckets.append(HqlaBucket(name=rec["name"], **fields))
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
    return buckets
