//! Dependency-free PNG encoding.
//!
//! PPM is simple but not universally viewable; PNG is. [`encode`] picks
//! the image's form from its pixels alone — there is no setting:
//!
//! - **Palette** (colour type 3) when the image has at most 256
//!   colours and that form is smaller than RGB rows: indices packed at
//!   the smallest legal depth of 1, 2, 4 or 8 bits, rows unfiltered. A
//!   τ mask is 1-bit. Colours are numbered in first-seen raster order,
//!   never hash order, so a tile encodes to the same bytes in every
//!   process (a cached body, a re-render and a failover shard's answer
//!   must agree byte for byte).
//! - **RGB** (colour type 2, 8-bit) otherwise, each row under whichever
//!   filter (None, Sub, Up, Average, Paeth) gives the least sum of
//!   absolute differences — libpng's heuristic.
//!
//! The scanlines are compressed by a small deflate (RFC 1951): LZ77
//! over a bounded hash chain, coded with the fixed Huffman code. When
//! that stream is not shorter than *stored* blocks (RFC 1951 §3.2.4),
//! the stored stream is written instead, so no image is larger than its
//! uncompressed form. A 64² τ mask encodes to ~100–300 bytes and an ε
//! heat-ramp tile to a few hundred bytes to a few kilobytes, against
//! 12,420 bytes uncompressed. CRC-32 (chunks) and Adler-32 (zlib) are
//! implemented and tested here.

use crate::image::RgbImage;
use std::fs;
use std::io;
use std::path::Path;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at first use.
fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (n, slot) in table.iter_mut().enumerate() {
            let mut c = n as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 of a byte stream (PNG chunk checksum).
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Adler-32 of a byte stream (zlib checksum).
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a = 1u32;
    let mut b = 0u32;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

fn push_chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    let start = out.len();
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Encodes the image as a compressed PNG byte stream (see the module
/// docs for the form it picks).
pub fn encode(img: &RgbImage) -> Vec<u8> {
    let (color_type, depth, plte, raw) = match palette(img) {
        Some(p) => (3, p.depth, p.colors, p.scanlines),
        None => (2, 8, Vec::new(), rgb_scanlines(img)),
    };
    let z = zlib(&raw);

    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&img.width().to_be_bytes());
    ihdr.extend_from_slice(&img.height().to_be_bytes());
    // Deflate, adaptive filtering, no interlace.
    ihdr.extend_from_slice(&[depth, color_type, 0, 0, 0]);

    let mut out = Vec::with_capacity(z.len() + plte.len() + 69);
    out.extend_from_slice(b"\x89PNG\r\n\x1a\n");
    push_chunk(&mut out, b"IHDR", &ihdr);
    if !plte.is_empty() {
        push_chunk(&mut out, b"PLTE", &plte);
    }
    push_chunk(&mut out, b"IDAT", &z);
    push_chunk(&mut out, b"IEND", &[]);
    out
}

/// Writes the image as a PNG file.
pub fn save_png(img: &RgbImage, path: &Path) -> io::Result<()> {
    fs::write(path, encode(img))
}

/// An image's palette form.
struct Palette {
    /// `PLTE` payload: RGB triples in first-seen raster order.
    colors: Vec<u8>,
    /// Bits per index: 1, 2, 4 or 8.
    depth: u8,
    /// Unfiltered scanlines of packed indices, each led by filter 0.
    scanlines: Vec<u8>,
}

/// The palette form of `img`, when it has at most 256 colours and its
/// `PLTE` chunk plus packed rows are smaller than the RGB rows, so a
/// palette never makes an image larger.
fn palette(img: &RgbImage) -> Option<Palette> {
    // Open addressing over ≥ 4× the most colours kept: short probes.
    const SLOTS: usize = 1024;
    let mut keys = [0u32; SLOTS]; // colour | 1 << 24; 0 marks an empty slot
    let mut index = [0u8; SLOTS];
    let mut colors = Vec::new();
    let mut indices = Vec::with_capacity(img.bytes().len() / 3);
    let mut last = (0u32, 0u8);
    for px in img.bytes().chunks_exact(3) {
        let key = u32::from_le_bytes([px[0], px[1], px[2], 1]);
        if key != last.0 {
            let mut slot = (key.wrapping_mul(0x9e37_79b1) >> 22) as usize;
            while keys[slot] != key {
                if keys[slot] == 0 {
                    let n = colors.len() / 3;
                    if n == 256 {
                        return None;
                    }
                    keys[slot] = key;
                    index[slot] = n as u8;
                    colors.extend_from_slice(px);
                    break;
                }
                slot = (slot + 1) % SLOTS;
            }
            last = (key, index[slot]);
        }
        indices.push(last.1);
    }
    let depth: u8 = match colors.len() / 3 {
        0..=2 => 1,
        3..=4 => 2,
        5..=16 => 4,
        _ => 8,
    };
    let (w, h) = (img.width() as usize, img.height() as usize);
    let row = (w * depth as usize).div_ceil(8);
    if 12 + colors.len() + h * (1 + row) > h * (1 + 3 * w) {
        return None;
    }
    let per_byte = 8 / depth as usize;
    let mut scanlines = Vec::with_capacity(h * (1 + row));
    for line in indices.chunks_exact(w) {
        scanlines.push(0); // None: libpng's choice for palette rows
        for group in line.chunks(per_byte) {
            let byte = group
                .iter()
                .enumerate()
                .fold(0u8, |b, (k, &i)| b | i << (8 - depth as usize * (k + 1)));
            scanlines.push(byte);
        }
    }
    Some(Palette {
        colors,
        depth,
        scanlines,
    })
}

/// Filtered 8-bit RGB scanlines: each row under the filter whose output
/// has the least sum of absolute values (bytes read as signed); ties go
/// to the lower filter type.
fn rgb_scanlines(img: &RgbImage) -> Vec<u8> {
    let stride = 3 * img.width() as usize;
    let zero = vec![0u8; stride];
    let mut prev: &[u8] = &zero;
    let (mut trial, mut best) = (vec![0u8; stride], vec![0u8; stride]);
    let mut out = Vec::with_capacity((stride + 1) * img.height() as usize);
    for cur in img.bytes().chunks_exact(stride) {
        let (mut best_kind, mut best_score) = (0u8, u64::MAX);
        for kind in 0..5u8 {
            filter_row(kind, cur, prev, &mut trial);
            let score = trial
                .iter()
                .map(|&b| u64::from((b as i8).unsigned_abs()))
                .sum();
            if score < best_score {
                (best_kind, best_score) = (kind, score);
                std::mem::swap(&mut best, &mut trial);
            }
        }
        out.push(best_kind);
        out.extend_from_slice(&best);
        prev = cur;
    }
    out
}

/// Applies PNG filter `kind` (0 None, 1 Sub, 2 Up, 3 Average, 4 Paeth)
/// to row `cur` over the row above, `prev`, at 3 bytes per pixel.
fn filter_row(kind: u8, cur: &[u8], prev: &[u8], out: &mut [u8]) {
    fn apply(cur: &[u8], prev: &[u8], out: &mut [u8], predict: impl Fn(u8, u8, u8) -> u8) {
        const BPP: usize = 3;
        let head = BPP.min(cur.len());
        for i in 0..head {
            out[i] = cur[i].wrapping_sub(predict(0, prev[i], 0));
        }
        for i in head..cur.len() {
            out[i] = cur[i].wrapping_sub(predict(cur[i - BPP], prev[i], prev[i - BPP]));
        }
    }
    match kind {
        0 => out.copy_from_slice(cur),
        1 => apply(cur, prev, out, |a, _, _| a),
        2 => apply(cur, prev, out, |_, b, _| b),
        3 => apply(cur, prev, out, |a, b, _| {
            ((u16::from(a) + u16::from(b)) / 2) as u8
        }),
        _ => apply(cur, prev, out, paeth),
    }
}

/// The Paeth predictor (PNG §9.4): whichever of left, up and up-left is
/// closest to `left + up − up_left`.
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let (ia, ib, ic) = (i16::from(a), i16::from(b), i16::from(c));
    let p = ia + ib - ic;
    let (pa, pb, pc) = ((p - ia).abs(), (p - ib).abs(), (p - ic).abs());
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// A zlib stream (RFC 1950) of `data`: compressed deflate, or stored
/// blocks when compressing would not make it shorter.
fn zlib(data: &[u8]) -> Vec<u8> {
    let stored_len = data.len() + 5 * data.len().div_ceil(MAX_STORED);
    let mut z = Vec::with_capacity(stored_len / 4 + 16);
    z.push(0x78); // CMF: deflate, 32K window
    z.push(0x01); // FLG: no dict (FCHECK makes CMF·256 + FLG a multiple of 31)
    deflate(data, &mut z);
    if z.len() - 2 >= stored_len {
        z.truncate(2);
        let mut blocks = data.chunks(MAX_STORED).peekable();
        while let Some(block) = blocks.next() {
            z.push(u8::from(blocks.peek().is_none())); // BFINAL + BTYPE=00 (stored)
            let len = block.len() as u16;
            z.extend_from_slice(&len.to_le_bytes());
            z.extend_from_slice(&(!len).to_le_bytes());
            z.extend_from_slice(block);
        }
    }
    z.extend_from_slice(&adler32(data).to_be_bytes());
    z
}

/// Longest stored block (its length field is 16 bits).
const MAX_STORED: usize = 65_535;
/// Shortest and longest LZ77 match deflate can code.
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
/// Farthest a match may reach back.
const MAX_DIST: usize = 32_768;
/// Earlier positions tried per match search (the hash-chain bound).
const CHAIN: usize = 8;
/// A match this long ends the search early.
const NICE_MATCH: usize = 64;

/// Lengths 3..=258 (symbols 257..=285): base and extra bits.
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Distances 1..=32768 (symbols 0..=29): base and extra bits.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// The end-of-block symbol.
const END_OF_BLOCK: usize = 256;

/// One LZ77 output: a literal byte (`dist == 0`, byte in `len`) or a
/// back-reference of `len` bytes `dist` bytes back.
#[derive(Clone, Copy)]
struct Token {
    len: u16,
    dist: u16,
}

/// Symbol index (0..29) of a match length.
fn len_symbol(len: u16) -> usize {
    LEN_BASE.partition_point(|&b| b <= len) - 1
}

/// Symbol index (0..30) of a match distance.
fn dist_symbol(dist: u16) -> usize {
    DIST_BASE.partition_point(|&b| b <= dist) - 1
}

/// RFC 1951 §3.2.6's fixed Huffman code of literal/length symbol
/// `sym`: `(code, length)`, the code bit-reversed for the LSB-first
/// stream. Distance symbols are plain 5-bit codes.
fn fixed_code(sym: usize) -> (u16, u8) {
    let (code, len) = match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + sym - 144, 9),
        256..=279 => (sym - 256, 7),
        _ => (0xc0 + sym - 280, 8),
    };
    ((code as u16).reverse_bits() >> (16 - len), len)
}

/// Writes literal/length symbol `sym` under the fixed code.
fn put_symbol(sym: usize, bits: &mut BitWriter<'_>) {
    let (code, len) = fixed_code(sym);
    bits.put(u32::from(code), len);
}

/// Writes one token under the fixed code: a literal, or a length
/// symbol, its extra bits, a distance symbol and its extra bits.
fn put_token(t: Token, bits: &mut BitWriter<'_>) {
    if t.dist == 0 {
        return put_symbol(usize::from(t.len), bits);
    }
    let l = len_symbol(t.len);
    put_symbol(END_OF_BLOCK + 1 + l, bits);
    bits.put(u32::from(t.len - LEN_BASE[l]), LEN_EXTRA[l]);
    let d = dist_symbol(t.dist);
    bits.put(u32::from((d as u16).reverse_bits() >> 11), 5);
    bits.put(u32::from(t.dist - DIST_BASE[d]), DIST_EXTRA[d]);
}

/// Raw deflate of `data`, appended to `out`: one final block under the
/// fixed Huffman code. (A dynamic code per block was measured as an
/// ablation: on the serving benchmark's cold sweep it cut bytes per
/// tile by 11%, too little for its code-length machinery.)
fn deflate(data: &[u8], out: &mut Vec<u8>) {
    let mut bits = BitWriter { out, acc: 0, n: 0 };
    bits.put(0b011, 3); // BFINAL = 1, BTYPE = 01 (fixed Huffman)
    for t in lz77(data) {
        put_token(t, &mut bits);
    }
    put_symbol(END_OF_BLOCK, &mut bits);
    bits.flush();
}

/// Greedy LZ77 parse: at each position the longest match among its
/// last [`CHAIN`] hash-chain predecessors, or a literal.
fn lz77(data: &[u8]) -> Vec<Token> {
    let mut chains = Chains::new(data);
    let mut tokens = Vec::with_capacity(data.len() / 4 + 1);
    let mut i = 0;
    while i < data.len() {
        let (len, dist) = chains.find(i);
        if len >= MIN_MATCH {
            tokens.push(Token {
                len: len as u16,
                dist: dist as u16,
            });
            for j in i + 1..i + len {
                chains.insert(j);
            }
            i += len;
        } else {
            tokens.push(Token {
                len: u16::from(data[i]),
                dist: 0,
            });
            i += 1;
        }
    }
    tokens
}

/// Hash chains over the 3-byte prefixes of `data`: `head` holds the
/// latest position per hash, `prev` each position's predecessor with
/// the same hash. The tables are sized from the input (a 64² tile needs
/// a few thousand heads and a window no larger than itself), not from
/// deflate's 32K window.
struct Chains<'a> {
    data: &'a [u8],
    head: Vec<u32>,
    prev: Vec<u32>,
    hash_bits: u32,
}

impl<'a> Chains<'a> {
    fn new(data: &'a [u8]) -> Self {
        let n = data.len();
        let hash_bits = (usize::BITS - n.leading_zeros()).clamp(9, 16) - 1;
        Self {
            data,
            head: vec![u32::MAX; 1 << hash_bits],
            prev: vec![u32::MAX; n.next_power_of_two().min(MAX_DIST)],
            hash_bits,
        }
    }

    fn hash(&self, i: usize) -> usize {
        let v = u32::from_le_bytes([self.data[i], self.data[i + 1], self.data[i + 2], 0]);
        (v.wrapping_mul(0x9e37_79b1) >> (32 - self.hash_bits)) as usize
    }

    /// Chains position `i` (a no-op within 3 bytes of the end).
    fn insert(&mut self, i: usize) {
        if i + MIN_MATCH <= self.data.len() {
            let h = self.hash(i);
            let mask = self.prev.len() - 1;
            self.prev[i & mask] = self.head[h];
            self.head[h] = i as u32;
        }
    }

    /// The longest match `(len, dist)` for position `i` among its last
    /// [`CHAIN`] predecessors (`len` < 3: none), then chains `i`.
    fn find(&mut self, i: usize) -> (usize, usize) {
        let data = self.data;
        if i + MIN_MATCH > data.len() {
            return (0, 0);
        }
        let max = (data.len() - i).min(MAX_MATCH);
        let mask = self.prev.len() - 1;
        let (mut best_len, mut best_dist) = (0, 0);
        let mut cand = self.head[self.hash(i)];
        for _ in 0..CHAIN {
            let c = cand as usize;
            if c >= i || i - c > MAX_DIST {
                break;
            }
            if data[c + best_len] == data[i + best_len] {
                let len = match_len(data, c, i, max);
                if len > best_len {
                    (best_len, best_dist) = (len, i - c);
                    if len >= NICE_MATCH.min(max) {
                        break;
                    }
                }
            }
            let next = self.prev[c & mask];
            if next >= cand {
                break;
            }
            cand = next;
        }
        self.insert(i);
        (best_len, best_dist)
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped
/// at `max` (`a < b`, `b + max <= data.len()`).
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    while n + 8 <= max {
        let x = u64::from_le_bytes(data[a + n..a + n + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(data[b + n..b + n + 8].try_into().expect("8 bytes"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// LSB-first bit packer over the output stream.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    n: u32,
}

impl BitWriter<'_> {
    /// Appends the low `len` (≤ 16) bits of `value`.
    fn put(&mut self, value: u32, len: u8) {
        self.acc |= u64::from(value) << self.n;
        self.n += u32::from(len);
        if self.n >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.n -= 32;
        }
    }

    /// Writes out the pending bits, zero-padded to a byte.
    fn flush(&mut self) {
        let bytes = self.n.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        (self.acc, self.n) = (0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic incompressible bytes (xorshift).
    fn noise(n: usize) -> Vec<u8> {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector plus the famous IEND chunk CRC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"IEND"), 0xae42_6082);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11e6_0398);
    }

    #[test]
    fn png_structure_is_valid() {
        let mut img = RgbImage::new(3, 2);
        img.set(0, 0, [255, 0, 0]);
        img.set(2, 1, [0, 0, 255]);
        let png = encode(&img);
        assert!(png.starts_with(b"\x89PNG\r\n\x1a\n"));
        // IHDR directly after the signature, 13-byte payload.
        assert_eq!(&png[8..16], &[0, 0, 0, 13, b'I', b'H', b'D', b'R']);
        // Width 3, height 2, big-endian.
        assert_eq!(&png[16..24], &[0, 0, 0, 3, 0, 0, 0, 2]);
        // Ends with the canonical IEND chunk.
        assert_eq!(
            &png[png.len() - 12..],
            &[0, 0, 0, 0, b'I', b'E', b'N', b'D', 0xae, 0x42, 0x60, 0x82]
        );
    }

    #[test]
    fn incompressible_data_falls_back_to_stored_blocks() {
        // Decode the fallback stream by hand: one final stored block
        // holding the input verbatim, closed by its Adler-32.
        let data = noise(300);
        let z = zlib(&data);
        assert_eq!(&z[..2], &[0x78, 0x01]);
        assert_eq!(z[2], 1, "BFINAL set, BTYPE 00 (stored)");
        let len = u16::from_le_bytes([z[3], z[4]]) as usize;
        let nlen = u16::from_le_bytes([z[5], z[6]]);
        assert_eq!(len, data.len());
        assert_eq!(nlen, !(len as u16));
        assert_eq!(&z[7..7 + len], data.as_slice());
        let adler = u32::from_be_bytes(z[7 + len..11 + len].try_into().expect("adler"));
        assert_eq!(adler, adler32(&data));
        assert_eq!(z.len(), 11 + len, "nothing after the checksum");
    }

    #[test]
    fn large_incompressible_data_splits_into_stored_blocks() {
        // > 65535 incompressible bytes: a non-final full-size block,
        // then a final block with the rest — exactly the stored size.
        let data = noise(70_000);
        let z = zlib(&data);
        assert_eq!(z[2], 0, "first block stored and not final");
        assert_eq!(u16::from_le_bytes([z[3], z[4]]), 65_535);
        let second = 7 + 65_535;
        assert_eq!(z[second], 1, "second block stored and final");
        assert_eq!(
            u16::from_le_bytes([z[second + 1], z[second + 2]]) as usize,
            70_000 - 65_535
        );
        assert_eq!(z.len(), 2 + 70_000 + 2 * 5 + 4);
        // The same length of repetitive data compresses instead: one
        // final fixed-Huffman block (BFINAL 1, BTYPE 01).
        let z = zlib(&vec![7u8; 70_000]);
        assert_eq!(z[2] & 0b111, 0b011);
        assert!(z.len() < 1_000, "{} bytes", z.len());
    }

    #[test]
    fn save_roundtrip() {
        let dir = std::env::temp_dir().join("kdv_png_test");
        std::fs::create_dir_all(&dir).expect("tmp");
        let path = dir.join("t.png");
        save_png(&RgbImage::new(4, 4), &path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        assert!(bytes.starts_with(b"\x89PNG"));
        let _ = std::fs::remove_file(&path);
    }
}
