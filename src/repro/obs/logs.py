"""Structured logging for the service: one setup, two formats, and the
per-request audit line.

``cuba serve`` historically printed ad-hoc lines (the listening banner,
the degraded-store warning) to stdout/stderr; this module replaces that
with the stdlib :mod:`logging` tree under the ``cuba`` root logger and
a ``--log-format text|json`` switch.  ``json`` emits one JSON object
per line (machine-shippable); ``text`` keeps a human ``key=value``
rendering of the same fields.

:func:`audit` writes the **per-request audit record** — the one
structured line the server emits for every submit, carrying the
fingerprint, lane, store outcome
(hit/dedup/resume/fresh), lease outcome, how the fingerprint was found
(``prepare``: memo/compiled), ``engine_seconds`` vs
``queue_seconds``, and the verdict — to the ``cuba.audit`` logger.  In
both formats the line's payload is valid JSON, so log pipelines parse
it without caring which format the operator picked.
"""

from __future__ import annotations

import json
import logging
import time

__all__ = ["AUDIT_LOGGER", "audit", "get_logger", "setup_logging"]

AUDIT_LOGGER = "cuba.audit"
LOG_FORMATS = ("text", "json")


class JsonFormatter(logging.Formatter):
    """One JSON object per record; ``record.fields`` (a dict attached
    via ``extra``) is merged in top-level."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(time.time(), 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload.update(fields)
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=False, default=str)


class TextFormatter(logging.Formatter):
    """Human-readable: timestamped message plus ``key=value`` fields."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        line = f"{stamp} {record.levelname.lower():7s} {record.name}: " \
               f"{record.getMessage()}"
        fields = getattr(record, "fields", None)
        if fields:
            rendered = " ".join(
                f"{key}={json.dumps(value, default=str)}"
                for key, value in fields.items()
            )
            line = f"{line} {rendered}"
        if record.exc_info and record.exc_info[0] is not None:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


def setup_logging(
    fmt: str = "text",
    level: int = logging.INFO,
    stream=None,
) -> logging.Logger:
    """Configure the ``cuba`` logger tree for the chosen format and
    return the root ``cuba`` logger.  Idempotent: re-running replaces
    the previously installed handler (tests flip formats freely).
    Only the ``cuba`` subtree is touched — never the root logger of the
    embedding application."""
    if fmt not in LOG_FORMATS:
        raise ValueError(f"unknown log format {fmt!r}; pick one of {LOG_FORMATS}")
    logger = logging.getLogger("cuba")
    for handler in [h for h in logger.handlers if getattr(h, "_cuba", False)]:
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler._cuba = True
    handler.setFormatter(JsonFormatter() if fmt == "json" else TextFormatter())
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``cuba`` tree (``get_logger("service")`` →
    ``cuba.service``)."""
    return logging.getLogger(f"cuba.{name}")


def audit(**fields) -> dict:
    """Emit one audit record on ``cuba.audit`` and return it.

    The message body is the record's canonical JSON, so even a bare
    (unconfigured, text-format) handler line carries machine-parseable
    content; under :class:`JsonFormatter` the same fields also land
    top-level in the output object."""
    record = dict(fields)
    logging.getLogger(AUDIT_LOGGER).info(
        json.dumps(record, sort_keys=True, default=str),
        extra={"fields": record},
    )
    return record
