"""Structured logging for the ``repro.*`` logger tree.

All pipeline modules log through stdlib ``logging`` under names rooted
at ``repro`` (``repro.interproc.incremental``, ``repro.interproc.persist``,
...).  Nothing is emitted unless configured: either the CLI's
``--log-level`` flag or the ``REPRO_LOG`` environment variable (read on
first ``repro.obs`` import, so library users get logging without code
changes).

Each record is stamped with the active run id (see
:mod:`repro.obs.runid`) so interleaved output from repeated or concurrent
runs can be separated::

    2026-08-06 09:31:02,114 INFO    repro.api [1f2e3d4c5b6a] serial analysis starting: 42 routines
"""

from __future__ import annotations

import logging
import os
import sys
from typing import IO, Optional, Union

from repro.obs import runid

#: Environment variable consulted when no explicit level is given.
ENV_VAR = "REPRO_LOG"

_HANDLER_MARK = "_repro_obs_handler"

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s [%(run_id)s] %(message)s"


class _RunIdFilter(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:
        record.run_id = runid.current_run_id() or "-"
        return True


def resolve_level(level: Union[str, int, None]) -> int:
    """Map a level spec (name, number, or None -> $REPRO_LOG) to an int.

    Raises ``ValueError`` on unknown names so callers (the CLI) can turn
    it into a usage error.
    """
    if level is None:
        level = os.environ.get(ENV_VAR) or "WARNING"
    if isinstance(level, int):
        return level
    text = str(level).strip().upper()
    if text.isdigit():
        return int(text)
    numeric = logging.getLevelName(text)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    return numeric


def configure_logging(
    level: Union[str, int, None] = None,
    stream: Optional[IO[str]] = None,
) -> logging.Logger:
    """Attach (once) a stderr handler to the ``repro`` logger and set
    its level.  Idempotent: repeated calls adjust level/stream on the
    handler already installed rather than stacking duplicates.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(resolve_level(level))
    for handler in logger.handlers:
        if getattr(handler, _HANDLER_MARK, False):
            if stream is not None and isinstance(handler, logging.StreamHandler):
                handler.setStream(stream)
            return logger
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler.addFilter(_RunIdFilter())
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    # The repro tree is self-contained; don't double-print through an
    # application's root handlers.
    logger.propagate = False
    return logger
