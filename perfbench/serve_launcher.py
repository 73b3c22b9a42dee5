"""Traced ``repro serve``: wrap the service's public layers, then serve.

Usage::

    python3 perfbench/serve_launcher.py SPANS.json serve --workers 1 ...

Everything after the spans path is handed to the ``repro`` command line
unchanged, so the traced server is the untraced one plus the wrappers.  The
spans are written to ``SPANS.json`` when the server shuts down (SIGTERM).

Which requests are traced is read from the plan name the benchmark sends:
``op-<n>-t`` is op ``n`` traced, ``op-<n>-u`` op ``n`` untraced (only its
request span is kept), and ``pool-*`` plans are the set-up warm-up, traced
without an op id.  Sim tasks run in the daemon's worker processes, which
the wrappers do not reach; the layers traced here are those of the serving
process.
"""

from __future__ import annotations

import functools
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, install  # noqa: E402
from sweep_worker import SWEEP_TARGETS  # noqa: E402

OP_NAME = re.compile(r"^op-(\d+)-([tu])$")

SERVE_TARGETS = SWEEP_TARGETS + (
    ("repro.campaign", "CampaignExecutor.tasks", "campaign.plan"),
    ("repro.store", "ResultStore.get", "store.get"),
    ("repro.store", "ResultStore.put", "store.put"),
)


def _trace_requests(tracer: Tracer) -> None:
    """Open a request span per POST and pick up op id and mode from the plan."""
    from repro.campaign import Campaign
    from repro.service.server import CampaignServer

    serve_campaign = CampaignServer._serve_campaign
    plan = tracer.wrap(Campaign.from_dict.__func__, "campaign.plan")

    @functools.wraps(serve_campaign)
    async def traced_request(self, writer, body):
        index = tracer.open("service.request")
        tracer.default_parent = index
        try:
            return await serve_campaign(self, writer, body)
        finally:
            tracer.close(index)
            tracer.enabled = False
            tracer.op = None
            tracer.default_parent = None

    def from_dict(cls, data):
        name = str(data.get("name", "")) if isinstance(data, dict) else ""
        match = OP_NAME.match(name)
        tracer.op = int(match.group(1)) if match else None
        tracer.enabled = match.group(2) == "t" if match else name.startswith("pool-")
        if tracer.default_parent is not None:
            tracer.spans[tracer.default_parent][4] = tracer.op
        return plan(cls, data)

    CampaignServer._serve_campaign = traced_request
    Campaign.from_dict = classmethod(from_dict)


def main(argv) -> int:
    spans_path = Path(argv[0])
    tracer = Tracer()
    tracer.enabled = True
    index = tracer.open("api.import")
    from repro import cli

    tracer.close(index)
    install(tracer, SERVE_TARGETS)
    _trace_requests(tracer)
    tracer.enabled = False
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
