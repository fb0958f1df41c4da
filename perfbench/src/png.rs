//! A small PNG decoder, so served tiles can be checked pixel by pixel.
//!
//! Handles every non-interlaced PNG the tile server could reasonably
//! emit: greyscale, RGB, palette, grey+alpha and RGBA at any legal bit
//! depth, with stored, fixed or dynamic Huffman deflate blocks — so the
//! check keeps working if the server's encoder starts compressing.

/// A decoded image as RGB triples, row-major, row 0 at the top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// `width × height` RGB pixels.
    pub rgb: Vec<[u8; 3]>,
}

impl Image {
    /// Pixel `(col, row)`.
    pub fn get(&self, col: u32, row: u32) -> [u8; 3] {
        self.rgb[(row * self.width + col) as usize]
    }
}

/// Decodes a PNG byte stream.
pub fn decode(png: &[u8]) -> Result<Image, String> {
    const SIG: &[u8] = b"\x89PNG\r\n\x1a\n";
    if !png.starts_with(SIG) {
        return Err("not a PNG signature".into());
    }
    let mut pos = SIG.len();
    let (mut ihdr, mut palette, mut idat) = (None, Vec::new(), Vec::new());
    loop {
        let len = read_u32(png, pos)? as usize;
        let kind = png.get(pos + 4..pos + 8).ok_or("truncated chunk type")?;
        let data = png
            .get(pos + 8..pos + 8 + len)
            .ok_or("truncated chunk data")?;
        match kind {
            b"IHDR" => ihdr = Some(data.to_vec()),
            b"PLTE" => palette = data.to_vec(),
            b"IDAT" => idat.extend_from_slice(data),
            b"IEND" => break,
            _ => {}
        }
        pos += 12 + len;
    }
    let ihdr = ihdr.ok_or("no IHDR chunk")?;
    if ihdr.len() != 13 {
        return Err("bad IHDR length".into());
    }
    let width = read_u32(&ihdr, 0)?;
    let height = read_u32(&ihdr, 4)?;
    let (depth, color, interlace) = (ihdr[8], ihdr[9], ihdr[12]);
    if interlace != 0 {
        return Err("interlaced PNGs are not supported".into());
    }
    let channels = match color {
        0 | 3 => 1,
        2 => 3,
        4 => 2,
        6 => 4,
        other => return Err(format!("unknown colour type {other}")),
    };
    if width == 0 || height == 0 || width > 1 << 14 || height > 1 << 14 {
        return Err(format!("implausible size {width}x{height}"));
    }
    let bits_pp = channels * depth as usize;
    let stride = (width as usize * bits_pp).div_ceil(8);
    let bpp = bits_pp.div_ceil(8).max(1);
    let raw = zlib_decompress(&idat)?;
    if raw.len() != (stride + 1) * height as usize {
        return Err(format!(
            "decompressed {} bytes, expected {}",
            raw.len(),
            (stride + 1) * height as usize
        ));
    }
    let mut prev = vec![0u8; stride];
    let mut rgb = Vec::with_capacity((width * height) as usize);
    for row in raw.chunks(stride + 1) {
        let mut cur = row[1..].to_vec();
        unfilter(row[0], &mut cur, &prev, bpp)?;
        for col in 0..width as usize {
            let sample = |c: usize| -> u32 {
                let bit = (col * channels + c) * depth as usize;
                match depth {
                    16 => cur[bit / 8] as u32,
                    8 => cur[bit / 8] as u32,
                    d => (cur[bit / 8] as u32 >> (8 - d as usize - bit % 8)) & ((1 << d) - 1),
                }
            };
            let scale = |v: u32| -> u8 {
                match depth {
                    8 | 16 => v as u8,
                    d => (v * 255 / ((1 << d) - 1)) as u8,
                }
            };
            rgb.push(match color {
                0 | 4 => {
                    let g = scale(sample(0));
                    [g, g, g]
                }
                3 => {
                    let i = sample(0) as usize * 3;
                    let p = palette.get(i..i + 3).ok_or("palette index out of range")?;
                    [p[0], p[1], p[2]]
                }
                _ => [sample(0) as u8, sample(1) as u8, sample(2) as u8],
            });
        }
        prev = cur;
    }
    Ok(Image { width, height, rgb })
}

fn read_u32(b: &[u8], at: usize) -> Result<u32, String> {
    let s = b.get(at..at + 4).ok_or("truncated integer")?;
    Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
}

fn unfilter(filter: u8, cur: &mut [u8], prev: &[u8], bpp: usize) -> Result<(), String> {
    for i in 0..cur.len() {
        let a = if i >= bpp { cur[i - bpp] as i32 } else { 0 };
        let b = prev[i] as i32;
        let c = if i >= bpp { prev[i - bpp] as i32 } else { 0 };
        let add = match filter {
            0 => 0,
            1 => a,
            2 => b,
            3 => (a + b) / 2,
            4 => {
                let p = a + b - c;
                let (pa, pb, pc) = ((p - a).abs(), (p - b).abs(), (p - c).abs());
                if pa <= pb && pa <= pc {
                    a
                } else if pb <= pc {
                    b
                } else {
                    c
                }
            }
            other => return Err(format!("unknown filter type {other}")),
        };
        cur[i] = cur[i].wrapping_add(add as u8);
    }
    Ok(())
}

fn zlib_decompress(z: &[u8]) -> Result<Vec<u8>, String> {
    if z.len() < 6 || z[0] & 0x0f != 8 || (u16::from(z[0]) << 8 | u16::from(z[1])) % 31 != 0 {
        return Err("bad zlib header".into());
    }
    if z[1] & 0x20 != 0 {
        return Err("zlib preset dictionaries are not supported".into());
    }
    let out = inflate(&z[2..])?;
    let want = read_u32(z, z.len() - 4)?;
    if adler32(&out) != want {
        return Err("zlib Adler-32 mismatch".into());
    }
    Ok(out)
}

fn adler32(data: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    for chunk in data.chunks(5552) {
        for &x in chunk {
            a += x as u32;
            b += a;
        }
        a %= 65_521;
        b %= 65_521;
    }
    (b << 16) | a
}

struct Bits<'a> {
    data: &'a [u8],
    pos: usize,
    buf: u32,
    count: u32,
}

impl Bits<'_> {
    fn bits(&mut self, n: u32) -> Result<u32, String> {
        while self.count < n {
            let byte = *self.data.get(self.pos).ok_or("deflate stream truncated")?;
            self.pos += 1;
            self.buf |= (byte as u32) << self.count;
            self.count += 8;
        }
        let v = self.buf & ((1u64 << n) - 1) as u32;
        self.buf >>= n;
        self.count -= n;
        Ok(v)
    }

    fn align(&mut self) {
        self.buf = 0;
        self.count = 0;
    }
}

/// Canonical Huffman code: symbol counts per length, symbols in order.
struct Huffman {
    counts: [u16; 16],
    symbols: Vec<u16>,
}

impl Huffman {
    fn new(lengths: &[u8]) -> Self {
        let mut counts = [0u16; 16];
        for &l in lengths {
            counts[l as usize] += 1;
        }
        counts[0] = 0;
        let mut offs = [0u16; 16];
        for len in 1..16 {
            offs[len] = offs[len - 1] + counts[len - 1];
        }
        let mut symbols = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[offs[l as usize] as usize] = sym as u16;
                offs[l as usize] += 1;
            }
        }
        Self { counts, symbols }
    }

    fn decode(&self, bits: &mut Bits<'_>) -> Result<u16, String> {
        let (mut code, mut first, mut index) = (0i32, 0i32, 0i32);
        for len in 1..16 {
            code |= bits.bits(1)? as i32;
            let count = self.counts[len] as i32;
            if code - count < first {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += count;
            first += count;
            first <<= 1;
            code <<= 1;
        }
        Err("invalid Huffman code".into())
    }
}

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Raw deflate (RFC 1951).
fn inflate(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut bits = Bits {
        data,
        pos: 0,
        buf: 0,
        count: 0,
    };
    let mut out = Vec::new();
    loop {
        let last = bits.bits(1)? == 1;
        match bits.bits(2)? {
            0 => {
                bits.align();
                let p = bits.pos;
                let hdr = data.get(p..p + 4).ok_or("stored block header truncated")?;
                let len = u16::from_le_bytes([hdr[0], hdr[1]]) as usize;
                if len as u16 != !u16::from_le_bytes([hdr[2], hdr[3]]) {
                    return Err("stored block length check failed".into());
                }
                let block = data
                    .get(p + 4..p + 4 + len)
                    .ok_or("stored block truncated")?;
                out.extend_from_slice(block);
                bits.pos = p + 4 + len;
            }
            1 => {
                let mut lengths = [0u8; 288];
                for (i, l) in lengths.iter_mut().enumerate() {
                    *l = match i {
                        0..=143 => 8,
                        144..=255 => 9,
                        256..=279 => 7,
                        _ => 8,
                    };
                }
                let lit = Huffman::new(&lengths);
                let dist = Huffman::new(&[5u8; 30]);
                codes(&mut bits, &mut out, &lit, &dist)?;
            }
            2 => {
                let hlit = bits.bits(5)? as usize + 257;
                let hdist = bits.bits(5)? as usize + 1;
                let hclen = bits.bits(4)? as usize + 4;
                const ORDER: [usize; 19] = [
                    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
                ];
                let mut cl = [0u8; 19];
                for &i in ORDER.iter().take(hclen) {
                    cl[i] = bits.bits(3)? as u8;
                }
                let clh = Huffman::new(&cl);
                let mut lengths = vec![0u8; hlit + hdist];
                let mut i = 0;
                while i < lengths.len() {
                    let sym = clh.decode(&mut bits)?;
                    let (value, repeat) = match sym {
                        0..=15 => (sym as u8, 1),
                        16 => {
                            let prev = *lengths[..i]
                                .last()
                                .ok_or("repeat with no previous length")?;
                            (prev, 3 + bits.bits(2)? as usize)
                        }
                        17 => (0, 3 + bits.bits(3)? as usize),
                        _ => (0, 11 + bits.bits(7)? as usize),
                    };
                    if i + repeat > lengths.len() {
                        return Err("code lengths overflow".into());
                    }
                    lengths[i..i + repeat].fill(value);
                    i += repeat;
                }
                let lit = Huffman::new(&lengths[..hlit]);
                let dist = Huffman::new(&lengths[hlit..]);
                codes(&mut bits, &mut out, &lit, &dist)?;
            }
            _ => return Err("invalid deflate block type".into()),
        }
        if last {
            return Ok(out);
        }
    }
}

fn codes(
    bits: &mut Bits<'_>,
    out: &mut Vec<u8>,
    lit: &Huffman,
    dist: &Huffman,
) -> Result<(), String> {
    loop {
        let sym = lit.decode(bits)? as usize;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let i = sym - 257;
                let len = LEN_BASE[i] as usize + bits.bits(LEN_EXTRA[i] as u32)? as usize;
                let d = dist.decode(bits)? as usize;
                if d >= 30 {
                    return Err("invalid distance symbol".into());
                }
                let back = DIST_BASE[d] as usize + bits.bits(DIST_EXTRA[d] as u32)? as usize;
                if back > out.len() {
                    return Err("distance reaches before the output start".into());
                }
                for _ in 0..len {
                    out.push(out[out.len() - back]);
                }
            }
            _ => return Err("invalid literal/length symbol".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_viz::image::RgbImage;

    #[test]
    fn round_trips_the_servers_encoder() {
        let mut img = RgbImage::new(5, 3);
        for row in 0..3 {
            for col in 0..5 {
                img.set(col, row, [col as u8 * 40, row as u8 * 90, 7]);
            }
        }
        let out = decode(&kdv_viz::png::encode(&img)).expect("decodes");
        assert_eq!((out.width, out.height), (5, 3));
        assert_eq!(out.get(4, 2), [160, 180, 7]);
    }

    #[test]
    fn inflates_fixed_huffman_blocks() {
        // Python's zlib.compress(b"abcabcabcabc"): one fixed-code block.
        let z = [120, 156, 75, 76, 74, 78, 132, 33, 0, 29, 224, 4, 153];
        assert_eq!(zlib_decompress(&z).expect("inflates"), b"abcabcabcabc");
    }

    #[test]
    fn inflates_dynamic_huffman_blocks() {
        // Python's zlib.compress(data, 9) for the `data` below: one
        // dynamic-code block.
        let z = [
            0x78, 0xda, 0xed, 0xc9, 0xb1, 0x0d, 0x00, 0x30, 0x08, 0x04, 0xb1, 0x55, 0x98, 0x8d,
            0x12, 0x1a, 0x5e, 0x02, 0xc1, 0xf8, 0x59, 0x23, 0xc5, 0xb9, 0x75, 0xcb, 0xcf, 0x4c,
            0xb1, 0x39, 0x9a, 0xdc, 0x90, 0xd9, 0xb9, 0xba, 0xaa, 0x09, 0x82, 0x20, 0x08, 0x82,
            0x20, 0x08, 0x82, 0xf8, 0x25, 0x1e, 0x10, 0x3d, 0x8c, 0x25,
        ];
        let s = b"the quick brown fox jumps";
        let data: Vec<u8> = (0..3000usize)
            .map(|i| s[(i * i + 3 * i) % s.len()])
            .collect();
        assert_eq!(zlib_decompress(&z).expect("inflates"), data);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(b"not a png").is_err());
    }
}
