"""``repro.report`` — the paper's figures from the results store.

:func:`build_report` writes a byte-stable static ``index.html``
reproducing the paper's Figure 2 MTTF table and the Sec. VIII
protection comparison purely from stored rows (``repro report build``).
"""

from .html import build_report, render_index

__all__ = ["build_report", "render_index"]
