#!/usr/bin/env python3
"""Scrape a simcloud server's metrics registry as Prometheus text.

Speaks the plaintext request-id framing directly, decodes the
append-only metrics block, and prints the
same exposition format ``MetricsSnapshot::ToPrometheusText`` produces —
so a textfile-collector cron line is all it takes to feed a cluster
started by ``tools/run_replicas.py`` into Prometheus.

With several endpoints each scrape is prefixed with an ``instance``
label so per-shard series stay distinguishable; ``--merge`` instead
sums counters/gauges and merges histograms bucket-wise (the same
aggregation a ShardedServer facade answers for kGetMetrics).

Secure-channel (``--policy secure``) endpoints are not supported: the
handshake and AEAD record layer live in the C++ client. Scrape the
facade's plaintext listener, or run ``example_shard_server`` with a
plaintext sidecar port.

Usage:
  tools/scrape_metrics.py HOST:PORT [HOST:PORT ...] [--merge]
"""

import argparse
import socket
import struct
import sys

FRAME_ID_FLAG = 0x80000000
OP_GET_METRICS = 16
HISTOGRAM_BUCKET_COUNT = 4 + 62 * 4
UINT64_MAX = (1 << 64) - 1


def write_varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def read(self, n: int) -> bytes:
        if self.remaining() < n:
            raise ValueError("truncated metrics block")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def read_varint(self) -> int:
        value = 0
        shift = 0
        while True:
            (byte,) = self.read(1)
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift >= 70:
                raise ValueError("varint too long")

    def read_string(self) -> str:
        return self.read(self.read_varint()).decode("utf-8")


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def call_get_metrics(host: str, port: int, timeout_s: float) -> bytes:
    """One pipelined kGetMetrics round trip; returns the response body."""
    body = bytes([OP_GET_METRICS])
    frame = struct.pack("<II", len(body) | FRAME_ID_FLAG, 1) + body
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(frame)
        (raw,) = struct.unpack("<I", recv_exact(sock, 4))
        if not raw & FRAME_ID_FLAG:
            raise ValueError("server answered a frame without a request id")
        recv_exact(sock, 4)  # request id (always 1 here)
        payload = recv_exact(sock, raw & ~FRAME_ID_FLAG)
    reader = Reader(payload)
    reader.read(8)  # server_nanos
    (ok,) = reader.read(1)
    if not ok:
        raise ValueError("server error: " + reader.read_string())
    return reader.data[reader.pos:]


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def decode_snapshot(block: bytes):
    """Decodes the wire block into (counters, gauges, histograms).

    counters: {name: int}; gauges: {name: int};
    histograms: {name: (sum, [(bucket_index, count), ...])}.
    Trailing bytes are ignored — the block is append-only.
    """
    reader = Reader(block)
    counters = {}
    for _ in range(reader.read_varint()):
        name = reader.read_string()
        counters[name] = counters.get(name, 0) + reader.read_varint()
    gauges = {}
    for _ in range(reader.read_varint()):
        name = reader.read_string()
        gauges[name] = gauges.get(name, 0) + unzigzag(reader.read_varint())
    histograms = {}
    for _ in range(reader.read_varint()):
        name = reader.read_string()
        total = reader.read_varint()
        buckets = []
        for _ in range(reader.read_varint()):
            index = reader.read_varint()
            count = reader.read_varint()
            if index >= HISTOGRAM_BUCKET_COUNT:
                raise ValueError(f"bucket index {index} out of range")
            if buckets and index <= buckets[-1][0]:
                raise ValueError("bucket indices not ascending")
            buckets.append((index, count))
        histograms[name] = (total, buckets)
    return counters, gauges, histograms


def merge_histogram(into, entry):
    """Bucket-wise merge on the shared log grid (sums add, counts add)."""
    total, buckets = entry
    if into is None:
        return (total, list(buckets))
    merged = dict(into[1])
    for index, count in buckets:
        merged[index] = merged.get(index, 0) + count
    return (into[0] + total, sorted(merged.items()))


def bucket_lower_bound(index: int) -> int:
    if index < 4:
        return index
    exponent = 2 + (index - 4) // 4
    return (1 << exponent) + ((index - 4) % 4) * (1 << (exponent - 2))


def bucket_upper_bound(index: int) -> int:
    if index + 1 >= HISTOGRAM_BUCKET_COUNT:
        return UINT64_MAX
    return bucket_lower_bound(index + 1)


def split_labels(name: str):
    brace = name.find("{")
    if brace < 0 or not name.endswith("}"):
        return name, ""
    return name[:brace], name[brace + 1:-1]


def with_instance(name: str, instance: str) -> str:
    if not instance:
        return name
    base, labels = split_labels(name)
    tag = f'instance="{instance}"'
    return f"{base}{{{tag},{labels}}}" if labels else f"{base}{{{tag}}}"


def to_prometheus_text(counters, gauges, histograms) -> str:
    out = []
    last_base = None
    for name in sorted(counters):
        base, _ = split_labels(name)
        if base != last_base:
            out.append(f"# TYPE {base} counter")
            last_base = base
        out.append(f"{name} {counters[name]}")
    last_base = None
    for name in sorted(gauges):
        base, _ = split_labels(name)
        if base != last_base:
            out.append(f"# TYPE {base} gauge")
            last_base = base
        out.append(f"{name} {gauges[name]}")
    last_base = None
    for name in sorted(histograms):
        base, labels = split_labels(name)
        if base != last_base:
            out.append(f"# TYPE {base} histogram")
            last_base = base
        total, buckets = histograms[name]
        prefix = labels + "," if labels else ""
        cumulative = 0
        count = 0
        for index, bucket_count in buckets:
            cumulative += bucket_count
            count += bucket_count
            out.append(f'{base}_bucket{{{prefix}le="'
                       f'{bucket_upper_bound(index)}"}} {cumulative}')
        out.append(f'{base}_bucket{{{prefix}le="+Inf"}} {count}')
        block = "{" + labels + "}" if labels else ""
        out.append(f"{base}_sum{block} {total}")
        out.append(f"{base}_count{block} {count}")
    return "\n".join(out) + "\n" if out else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("endpoints", nargs="+", metavar="HOST:PORT")
    parser.add_argument("--merge", action="store_true",
                        help="sum counters/gauges and merge histograms "
                             "bucket-wise instead of labelling per "
                             "instance")
    parser.add_argument("--timeout-s", type=float, default=5.0)
    args = parser.parse_args()

    counters, gauges, histograms = {}, {}, {}
    for endpoint in args.endpoints:
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            print(f"bad endpoint {endpoint!r} (want HOST:PORT)",
                  file=sys.stderr)
            return 2
        try:
            block = call_get_metrics(host, int(port), args.timeout_s)
            shard_counters, shard_gauges, shard_histograms = \
                decode_snapshot(block)
        except (OSError, ValueError) as error:
            print(f"scrape of {endpoint} failed: {error}", file=sys.stderr)
            return 1
        instance = "" if args.merge or len(args.endpoints) == 1 else endpoint
        for name, value in shard_counters.items():
            key = with_instance(name, instance)
            counters[key] = counters.get(key, 0) + value
        for name, value in shard_gauges.items():
            key = with_instance(name, instance)
            gauges[key] = gauges.get(key, 0) + value
        for name, entry in shard_histograms.items():
            key = with_instance(name, instance)
            histograms[key] = merge_histogram(histograms.get(key), entry)

    sys.stdout.write(to_prometheus_text(counters, gauges, histograms))
    return 0


if __name__ == "__main__":
    sys.exit(main())
