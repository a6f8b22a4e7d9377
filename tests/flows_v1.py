"""Flow files in schema v1, whose records carry their packets as a JSON list
of [rel_time, length] pairs under "pkts".

The program writes only v2 but still reads v1; tests build v1 text with this
writer, which spells files as the program's v1 writer did."""

import json
from pathlib import Path


def write_flows_v1(flows, sink) -> None:
    """Write `flows` as a v1 file to a path or a text stream."""
    lines = [json.dumps({"v": 1, "format": "flows"})]
    for flow in flows:
        five = flow.five_tuple
        lines.append(json.dumps({
            "v": 1,
            "id": flow.id,
            "tuple": {"src": five.src_addr, "dst": five.dst_addr,
                      "sport": five.src_port, "dport": five.dst_port,
                      "proto": five.protocol},
            "label": flow.label,
            "pkts": list(zip(flow.times.tolist(), flow.signed.tolist())),
        }))
    text = "\n".join(lines) + "\n"
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)
