"""Low-tubal-rank tensor completion over the t-product algebra."""

from . import algebra, altmin, errors, harness, sampling, tls, tnn_admm

__all__ = [
    "algebra",
    "altmin",
    "errors",
    "harness",
    "sampling",
    "tls",
    "tnn_admm",
]
