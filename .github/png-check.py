#!/usr/bin/env python3
"""Checks served tiles with a decoder independent of kdv's: Python's zlib.

For each PNG named on the command line: every chunk's CRC-32 matches,
the IDAT stream inflates (zlib checks the Adler-32), every row's filter
is undone, and the image is SIZE x SIZE. Tiles whose file name starts
with "tau" must have at most two colours and stay under TAU_MAX bytes;
every tile must stay under STORED bytes, the size of a 64-pixel tile in
uncompressed (stored-deflate) RGB, so a regression to stored output
fails.

usage: .github/png-check.py <tile.png>...
"""
import os
import struct
import sys
import zlib

SIZE = 64
TAU_MAX = 1000
STORED = 12420


def paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def decode(data):
    """Returns (width, height, set of RGB colours)."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n", "bad signature"
    pos, chunks = 8, []
    while pos < len(data):
        (n,) = struct.unpack(">I", data[pos:pos + 4])
        kind, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + n]
        (crc,) = struct.unpack(">I", data[pos + 8 + n:pos + 12 + n])
        assert zlib.crc32(kind + body) == crc, f"CRC mismatch in {kind!r}"
        chunks.append((kind, body))
        pos += 12 + n
    assert chunks[0][0] == b"IHDR" and chunks[-1][0] == b"IEND", "chunk order"
    w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", chunks[0][1])
    assert (ctype, depth) in {(2, 8), (3, 1), (3, 2), (3, 4), (3, 8)}, (ctype, depth)
    assert interlace == 0
    plte = b"".join(b for k, b in chunks if k == b"PLTE")
    raw = zlib.decompress(b"".join(b for k, b in chunks if k == b"IDAT"))
    bits = depth * (3 if ctype == 2 else 1)
    stride, bpp = (w * bits + 7) // 8, max(1, bits // 8)
    assert len(raw) == h * (stride + 1), "scanline bytes"
    prev, colours = bytearray(stride), set()
    for r in range(h):
        row = raw[r * (stride + 1):(r + 1) * (stride + 1)]
        f, cur = row[0], bytearray(row[1:])
        for i in range(stride):
            a = cur[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            pred = [0, a, b, (a + b) // 2, paeth(a, b, c)][f]
            cur[i] = (cur[i] + pred) & 0xFF
        for x in range(w):
            if ctype == 2:
                colours.add(bytes(cur[3 * x:3 * x + 3]))
            else:
                bit = x * depth
                idx = (cur[bit // 8] >> (8 - depth - bit % 8)) & ((1 << depth) - 1)
                assert 3 * idx + 3 <= len(plte), "index past PLTE"
                colours.add(plte[3 * idx:3 * idx + 3])
        prev = cur
    return w, h, colours


def main(paths):
    for path in paths:
        data = open(path, "rb").read()
        name = os.path.basename(path)
        try:
            w, h, colours = decode(data)
            assert (w, h) == (SIZE, SIZE), f"{w}x{h}"
            assert len(data) < STORED, f"{len(data)} bytes: not compressed"
            if name.startswith("tau"):
                assert len(colours) <= 2, f"{len(colours)} colours in a mask"
                assert len(data) < TAU_MAX, f"{len(data)} bytes for a mask"
        except (AssertionError, IndexError, zlib.error, struct.error) as e:
            print(f"FAIL: {name}: {e}")
            return 1
        print(f"ok {name} {len(data)} bytes {len(colours)} colours")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
