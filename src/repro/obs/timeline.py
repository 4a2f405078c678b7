"""The causal timeline: merge flight recordings into one multi-device view.

A single device's black box is already causally ordered (monotonic seq +
virtual clock). A multi-device postmortem needs the cross-device view: this
module merges any number of recordings — live :class:`~repro.obs.recorder.FlightRecorder`
rings, sealed :class:`~repro.obs.recorder.BlackBox` dumps, or dump files
on disk — into one stream totally ordered by ``(vclock, device_id,
seq)``. The virtual clock is shared (one reactor per process), so
cross-device causality under the scheduler is real; ties (and purely
sequential runs, where every vclock is 0) fall back to the per-device
order, which is deterministic by construction.

Renderers:

- **text** — one line per event, ``--around <device:seq> --window N``
  slices the neighbourhood of an anchor;
- **json** — the merged event list, machine-readable;
- **perfetto** — Chrome trace-event instant events (phase ``"i"``), one
  synthetic pid per device (numbered from
  :data:`~repro.obs.export.BASE_APP_UID`, matching the span exporter)
  and one thread row per plane, so a dump opens in ``ui.perfetto.dev``
  next to its span trace.

CLI::

    python -m repro.obs.timeline dump1.jsonl dump2.jsonl \
        --format text --around device0:42 --window 5
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import BASE_APP_UID, trace_metadata
from repro.obs.recorder import BlackBox, Event, FlightRecorder

__all__ = [
    "main",
    "merge_events",
    "render_text",
    "slice_around",
    "timeline_json",
    "to_perfetto",
]


def _events_of(source: Any) -> List[Event]:
    if isinstance(source, BlackBox):
        return list(source.events)
    if isinstance(source, FlightRecorder):
        return source.events()
    return list(source)  # an iterable of Events


def merge_events(*sources: Any) -> List[Event]:
    """Merge recordings into one causal view, ordered by
    ``(vclock, device_id, seq)``."""
    merged: List[Event] = []
    for source in sources:
        merged.extend(_events_of(source))
    merged.sort(key=lambda e: (e.vclock, e.device_id, e.seq))
    return merged


def parse_anchor(text: str) -> Tuple[str, int]:
    """Parse an ``--around`` anchor: ``device_id:seq``."""
    device_id, sep, seq = text.rpartition(":")
    if not sep or not seq.isdigit():
        raise ValueError(f"anchor must be '<device_id>:<seq>', got {text!r}")
    return device_id, int(seq)


def slice_around(
    events: Sequence[Event], anchor: Tuple[str, int], window: int = 10
) -> List[Event]:
    """The ``window`` events on either side of the anchor event in the
    merged order (anchor included). Unknown anchors raise KeyError; a
    negative window, which would drop the anchor too, raises ValueError."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    device_id, seq = anchor
    for index, event in enumerate(events):
        if event.device_id == device_id and event.seq == seq:
            lo = max(0, index - window)
            return list(events[lo : index + window + 1])
    raise KeyError(f"anchor {device_id}:{seq} not present in the merged timeline")


def render_text(
    events: Sequence[Event], anchor: Optional[Tuple[str, int]] = None
) -> str:
    """One line per event; the anchor (when given) is marked with ``>``."""
    lines = []
    for event in events:
        marker = (
            ">"
            if anchor is not None
            and (event.device_id, event.seq) == anchor
            else " "
        )
        lines.append(f"{marker} {event.render()}")
    return "\n".join(lines)


def timeline_json(events: Sequence[Event]) -> Dict[str, Any]:
    devices = sorted({event.device_id for event in events})
    return {
        "kind": "timeline",
        "devices": devices,
        "events": [event.to_dict() for event in events],
    }


def to_perfetto(events: Sequence[Event]) -> Dict[str, Any]:
    """The merged timeline as Chrome trace-event instant events.

    Timestamps are the virtual clock in microseconds (1 virtual ms =
    1000 µs); sequential recordings (vclock 0 throughout) fall back to
    the seq as the timestamp so the order is still visible.
    """
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    out: List[Dict[str, Any]] = []
    any_clock = any(event.vclock for event in events)
    for event in events:
        ts = event.vclock * 1000.0 if any_clock else float(event.seq)
        args = dict(event.attrs)
        args["detail"] = event.detail
        args["seq"] = event.seq
        out.append(
            {
                "name": event.name,
                "cat": event.plane,
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": pids.setdefault(event.device_id, BASE_APP_UID + len(pids)),
                "tid": tids.setdefault(event.plane, 1 + len(tids)),
                "args": args,
            }
        )
    return {"traceEvents": trace_metadata(pids, tids) + out, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.timeline",
        description="Merge flight-recorder dumps into one causal timeline.",
    )
    parser.add_argument(
        "dumps", nargs="+", help="black-box dump files (JSONL, see obs.artifacts)"
    )
    parser.add_argument("--format", choices=("text", "json", "perfetto"), default="text")
    parser.add_argument(
        "--around",
        default=None,
        metavar="DEVICE:SEQ",
        help="slice the timeline around this anchor event",
    )
    parser.add_argument(
        "--window", type=int, default=10, help="events either side of --around"
    )
    parser.add_argument("--out", default=None, help="write here instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.obs.artifacts import load_blackbox

    args = _parser().parse_args(argv)
    try:
        boxes = [load_blackbox(path) for path in args.dumps]
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load dump: {error}", file=sys.stderr)
        return 2
    events = merge_events(*boxes)
    anchor: Optional[Tuple[str, int]] = None
    if args.around is not None:
        try:
            anchor = parse_anchor(args.around)
            events = slice_around(events, anchor, window=args.window)
        except (ValueError, KeyError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.format == "text":
        header = [
            f"timeline: {len(events)} event(s) from "
            f"{len({e.device_id for e in events})} device(s)"
        ]
        for box in boxes:
            header.append(
                f"  dump: trigger={box.trigger} device={box.device_id} "
                f"anchor={box.anchor_seq} digest={box.events_digest()[:16]}"
            )
        rendered = "\n".join(header) + "\n" + render_text(events, anchor=anchor)
    elif args.format == "json":
        rendered = json.dumps(timeline_json(events), indent=2)
    else:
        rendered = json.dumps(to_perfetto(events), indent=2)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.write(rendered + "\n")
    else:
        print(rendered)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
