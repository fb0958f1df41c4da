//! Dependency-free image output (binary PPM / PGM).
//!
//! PPM (`P6`) and PGM (`P5`) are the simplest raster formats that every
//! image viewer and converter understands; using them keeps the
//! workspace inside its approved dependency set.

use std::fs;
use std::io;
use std::path::Path;

/// An 8-bit RGB raster image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: u32,
    height: u32,
    /// Row-major RGB triples.
    data: Vec<u8>,
}

impl RgbImage {
    /// Creates a black image.
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Self {
            width,
            height,
            data: vec![0; width as usize * height as usize * 3],
        }
    }

    /// Image width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel color at `(col, row)`.
    #[inline]
    pub fn get(&self, col: u32, row: u32) -> [u8; 3] {
        let i = (row as usize * self.width as usize + col as usize) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets the pixel at `(col, row)`.
    #[inline]
    pub fn set(&mut self, col: u32, row: u32, rgb: [u8; 3]) {
        let i = (row as usize * self.width as usize + col as usize) * 3;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Row-major RGB triples, row 0 first.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Serializes to binary PPM (`P6`).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.data);
        out
    }

    /// Writes a binary PPM file.
    pub fn save_ppm(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_ppm())
    }

    /// Serializes the red channel as binary PGM (`P5`) — handy for
    /// grayscale renders where all channels are equal.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend(self.data.chunks_exact(3).map(|px| px[0]));
        out
    }

    /// Writes a binary PGM file.
    pub fn save_pgm(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_pgm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixels_roundtrip() {
        let mut img = RgbImage::new(3, 2);
        img.set(2, 1, [10, 20, 30]);
        assert_eq!(img.get(2, 1), [10, 20, 30]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = RgbImage::new(4, 3);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n4 3\n255\n"));
        assert_eq!(ppm.len(), 11 + 4 * 3 * 3);
    }

    #[test]
    fn pgm_takes_red_channel() {
        let mut img = RgbImage::new(2, 1);
        img.set(0, 0, [7, 100, 200]);
        img.set(1, 0, [9, 0, 0]);
        let pgm = img.to_pgm();
        assert!(pgm.starts_with(b"P5\n2 1\n255\n"));
        assert_eq!(&pgm[pgm.len() - 2..], &[7, 9]);
    }

    #[test]
    fn save_and_size_on_disk() {
        let dir = std::env::temp_dir().join("kdv_img_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("t.ppm");
        let img = RgbImage::new(5, 5);
        img.save_ppm(&path).expect("save");
        let len = std::fs::metadata(&path).expect("stat").len();
        assert_eq!(len as usize, img.to_ppm().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        RgbImage::new(0, 4);
    }
}
