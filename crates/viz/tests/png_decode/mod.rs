//! A test-only PNG decoder, written apart from the encoder it checks.
//!
//! It verifies every chunk's CRC-32 and the zlib Adler-32, inflates
//! stored and fixed-Huffman deflate blocks, and undoes all five row
//! filters, for 8-bit RGB and 1/2/4/8-bit palette images — the forms
//! `kdv_viz::png::encode` writes. It also reports what it saw (filters,
//! block types), so tests can check which paths ran; each test target
//! reads a different part of that report.
#![allow(dead_code)]

use kdv_viz::RgbImage;

/// A decoded PNG and how it was coded.
#[derive(Debug)]
pub struct Decoded {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// IHDR colour type (2 RGB, 3 palette).
    pub color_type: u8,
    /// IHDR bit depth.
    pub depth: u8,
    /// Palette entries (empty for RGB).
    pub palette_len: usize,
    /// Row-major pixels.
    pub rgb: Vec<[u8; 3]>,
    /// Each row's filter type.
    pub filters: Vec<u8>,
    /// Each deflate block's BTYPE (0 stored, 1 fixed Huffman).
    pub blocks: Vec<u8>,
}

impl Decoded {
    /// Whether the pixels equal `img`'s bit for bit.
    pub fn matches(&self, img: &RgbImage) -> bool {
        (self.width, self.height) == (img.width(), img.height())
            && (0..img.height())
                .flat_map(|row| (0..img.width()).map(move |col| (col, row)))
                .all(|(col, row)| self.rgb[(row * self.width + col) as usize] == img.get(col, row))
    }
}

/// Decodes a PNG byte stream, rejecting any checksum mismatch.
pub fn decode(png: &[u8]) -> Result<Decoded, String> {
    let sig = b"\x89PNG\r\n\x1a\n";
    if png.get(..8) != Some(&sig[..]) {
        return Err("bad signature".into());
    }
    let mut pos = 8;
    let (mut ihdr, mut palette, mut idat) = (Vec::new(), Vec::new(), Vec::new());
    let mut ended = false;
    while !ended {
        let len = be32(png, pos)? as usize;
        let body = png.get(pos + 4..pos + 8 + len).ok_or("truncated chunk")?;
        let crc = be32(png, pos + 8 + len)?;
        if crc32(body) != crc {
            return Err(format!("CRC mismatch in chunk at {pos}"));
        }
        let data = &body[4..];
        match &body[..4] {
            b"IHDR" => ihdr = data.to_vec(),
            b"PLTE" => palette = data.to_vec(),
            b"IDAT" => idat.extend_from_slice(data),
            b"IEND" => ended = true,
            other => return Err(format!("unexpected chunk {other:?}")),
        }
        pos += 12 + len;
    }
    if pos != png.len() {
        return Err("bytes after IEND".into());
    }
    if ihdr.len() != 13 || ihdr[10..] != [0, 0, 0] {
        return Err("bad IHDR".into());
    }
    let (width, height) = (be32(&ihdr, 0)?, be32(&ihdr, 4)?);
    let (depth, color_type) = (ihdr[8], ihdr[9]);
    let bits_per_pixel = match (color_type, depth) {
        (2, 8) => 24,
        (3, 1 | 2 | 4 | 8) => depth as usize,
        other => return Err(format!("unsupported colour type/depth {other:?}")),
    };
    if color_type == 3 && (palette.is_empty() || palette.len() % 3 != 0 || palette.len() > 768) {
        return Err("bad PLTE".into());
    }
    if color_type == 2 && !palette.is_empty() {
        return Err("PLTE in an RGB image".into());
    }

    let (raw, blocks) = zlib_inflate(&idat)?;
    let stride = (width as usize * bits_per_pixel).div_ceil(8);
    if raw.len() != (stride + 1) * height as usize {
        return Err(format!(
            "inflated {} bytes, want {}",
            raw.len(),
            (stride + 1) * height as usize
        ));
    }
    let bpp = bits_per_pixel.div_ceil(8);
    let mut prev = vec![0u8; stride];
    let (mut rgb, mut filters) = (Vec::new(), Vec::new());
    for line in raw.chunks(stride + 1) {
        let filter = line[0];
        let mut cur = line[1..].to_vec();
        for i in 0..stride {
            let a = if i >= bpp { cur[i - bpp] as i32 } else { 0 };
            let b = prev[i] as i32;
            let c = if i >= bpp { prev[i - bpp] as i32 } else { 0 };
            let predictor = match filter {
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
                f => return Err(format!("bad filter {f}")),
            };
            cur[i] = cur[i].wrapping_add(predictor as u8);
        }
        for col in 0..width as usize {
            rgb.push(if color_type == 2 {
                [cur[3 * col], cur[3 * col + 1], cur[3 * col + 2]]
            } else {
                let bit = col * depth as usize;
                let index =
                    (cur[bit / 8] >> (8 - depth as usize - bit % 8)) as usize & ((1 << depth) - 1);
                let p = palette
                    .get(3 * index..3 * index + 3)
                    .ok_or("index past PLTE")?;
                [p[0], p[1], p[2]]
            });
        }
        filters.push(filter);
        prev = cur;
    }
    Ok(Decoded {
        width,
        height,
        color_type,
        depth,
        palette_len: palette.len() / 3,
        rgb,
        filters,
        blocks,
    })
}

fn be32(b: &[u8], at: usize) -> Result<u32, String> {
    let s = b.get(at..at + 4).ok_or("truncated integer")?;
    Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
}

/// Bitwise CRC-32 (no table, unlike the encoder's).
fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &byte in data {
        c ^= byte as u32;
        for _ in 0..8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0xedb8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Inflates a zlib stream, checking its header and Adler-32; returns
/// the data and each block's type.
pub fn zlib_inflate(z: &[u8]) -> Result<(Vec<u8>, Vec<u8>), String> {
    if z.len() < 6 || z[0] & 0x0f != 8 || !(z[0] as u32 * 256 + z[1] as u32).is_multiple_of(31) {
        return Err("bad zlib header".into());
    }
    if z[1] & 0x20 != 0 {
        return Err("preset dictionary".into());
    }
    let mut bits = Bits {
        data: &z[2..z.len() - 4],
        pos: 0,
        bit: 0,
    };
    let (mut out, mut blocks) = (Vec::new(), Vec::new());
    loop {
        let last = bits.get(1)? == 1;
        let kind = bits.get(2)? as u8;
        blocks.push(kind);
        match kind {
            0 => {
                if bits.bit != 0 {
                    bits.bit = 0;
                    bits.pos += 1;
                }
                let len = bits.get(16)? as usize;
                let nlen = bits.get(16)? as usize;
                if len != !nlen & 0xffff {
                    return Err("stored LEN/NLEN mismatch".into());
                }
                let data = bits
                    .data
                    .get(bits.pos..bits.pos + len)
                    .ok_or("stored block truncated")?;
                out.extend_from_slice(data);
                bits.pos += len;
            }
            1 => {
                let mut lit = [8u8; 288];
                lit[144..256].fill(9);
                lit[256..280].fill(7);
                inflate_block(
                    &mut bits,
                    &mut out,
                    &Huffman::new(&lit),
                    &Huffman::new(&[5; 30]),
                )?;
            }
            other => return Err(format!("block type {other} is not one the encoder writes")),
        }
        if last {
            break;
        }
    }
    if bits.pos + usize::from(bits.bit != 0) != bits.data.len() {
        return Err("bytes between the last block and the checksum".into());
    }
    let adler = be32(z, z.len() - 4)?;
    let (mut a, mut b) = (1u32, 0u32);
    for &byte in &out {
        a = (a + byte as u32) % 65_521;
        b = (b + a) % 65_521;
    }
    if (b << 16 | a) != adler {
        return Err("Adler-32 mismatch".into());
    }
    Ok((out, blocks))
}

struct Bits<'a> {
    data: &'a [u8],
    pos: usize,
    bit: u32,
}

impl Bits<'_> {
    /// The next `n` bits, LSB first.
    fn get(&mut self, n: u32) -> Result<u32, String> {
        let mut v = 0;
        for k in 0..n {
            let byte = *self.data.get(self.pos).ok_or("deflate stream truncated")?;
            v |= ((byte >> self.bit) as u32 & 1) << k;
            self.bit += 1;
            if self.bit == 8 {
                self.bit = 0;
                self.pos += 1;
            }
        }
        Ok(v)
    }
}

/// A canonical Huffman code as a map from (length, code) to symbol.
struct Huffman {
    codes: std::collections::HashMap<(u8, u16), u16>,
}

impl Huffman {
    /// The canonical code for `lengths` (RFC 1951 §3.2.2).
    fn new(lengths: &[u8]) -> Self {
        let mut count = [0u16; 16];
        for &l in lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut next = [0u16; 16];
        for l in 1..16 {
            next[l] = (next[l - 1] + count[l - 1]) << 1;
        }
        let mut codes = std::collections::HashMap::new();
        for (sym, &l) in lengths.iter().enumerate().filter(|(_, &l)| l > 0) {
            codes.insert((l, next[l as usize]), sym as u16);
            next[l as usize] += 1;
        }
        Self { codes }
    }

    fn decode(&self, bits: &mut Bits<'_>) -> Result<u16, String> {
        let mut code = 0u16;
        for len in 1..=15u8 {
            code = code << 1 | bits.get(1)? as u16;
            if let Some(&sym) = self.codes.get(&(len, code)) {
                return Ok(sym);
            }
        }
        Err("no such Huffman code".into())
    }
}

fn inflate_block(
    bits: &mut Bits<'_>,
    out: &mut Vec<u8>,
    lit: &Huffman,
    dist: &Huffman,
) -> Result<(), String> {
    const LEN_BASE: [u32; 29] = [
        3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
        131, 163, 195, 227, 258,
    ];
    const DIST_BASE: [u32; 30] = [
        1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
        2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
    ];
    loop {
        match lit.decode(bits)? as usize {
            s @ 0..=255 => out.push(s as u8),
            256 => return Ok(()),
            s @ 257..=285 => {
                let i = s - 257;
                let extra = if (8..28).contains(&i) {
                    (i as u32 - 4) / 4
                } else {
                    0
                };
                let len = LEN_BASE[i] + bits.get(extra)?;
                let d = dist.decode(bits)? as usize;
                if d >= 30 {
                    return Err("bad distance symbol".into());
                }
                let extra = if d >= 4 { (d as u32 - 2) / 2 } else { 0 };
                let back = (DIST_BASE[d] + bits.get(extra)?) as usize;
                if back > out.len() {
                    return Err("distance before the start".into());
                }
                for _ in 0..len {
                    out.push(out[out.len() - back]);
                }
            }
            _ => return Err("bad literal/length symbol".into()),
        }
    }
}
