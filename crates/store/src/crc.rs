//! Hand-rolled CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) —
//! the integrity primitive behind the `NRSEG02` segment format, the
//! store manifests, and the model-registry bundles.
//!
//! The vendored dependency set has no checksum crate, so this is a
//! self-contained, safe implementation: lookup tables generated at
//! compile time by a `const fn`, processed **slice-by-16** (sixteen table
//! lanes fold sixteen input bytes per step). Long inputs run as **three
//! interleaved stripes** — independent dependency chains the CPU overlaps
//! — whose partial checksums are joined the way zlib's `crc32_combine`
//! joins them: shifting a CRC past `n` zero bytes is a multiplication by
//! `x^(8n)` modulo the polynomial. Verification then streams at a few
//! GB/s, keeping integrity checks far below parse cost.
//!
//! The polynomial and bit order match zlib's `crc32()`, so values are
//! checkable with any standard tool (`crc32 <(printf 123456789)` →
//! `cbf43926`).

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Number of table lanes (bytes folded per step).
const LANES: usize = 16;

/// Bytes per stripe of one interleaved round: three stripes of this
/// length are checksummed side by side, then combined.
const STRIPE: usize = 8 * 1024;

/// `TABLES[0]` is the classic byte-at-a-time CRC32 table; `TABLES[k]`
/// advances a byte `k` positions further through the shift register, so
/// sixteen bytes fold in one round of table lookups.
static TABLES: [[u32; 256]; LANES] = make_tables();

const fn make_tables() -> [[u32; 256]; LANES] {
    let mut tables = [[0u32; 256]; LANES];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        tables[0][n] = crc;
        n += 1;
    }
    let mut lane = 1;
    while lane < LANES {
        let mut n = 0;
        while n < 256 {
            let prev = tables[lane - 1][n];
            tables[lane][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        lane += 1;
    }
    tables
}

/// `a · b` modulo the polynomial, in the reflected bit order (bit 31 is
/// `x^0`) — zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `x^(8n)` modulo the polynomial: the operator that shifts a CRC
/// register past `n` zero bytes.
const fn x8nmodp(n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut square = 1u32 << 30; // x^1, squared up to x^(2^k)
    let mut bits = 8 * n;
    while bits != 0 {
        if bits & 1 != 0 {
            p = multmodp(square, p);
        }
        square = multmodp(square, square);
        bits >>= 1;
    }
    p
}

/// Shifts by one and by two stripes.
const SHIFT_1: u32 = x8nmodp(STRIPE);
const SHIFT_2: u32 = x8nmodp(2 * STRIPE);

/// Folds sixteen bytes into the register. Lane 15 handles the byte
/// furthest from the register, lane 0 the nearest.
#[inline(always)]
fn fold16(crc: u32, c: &[u8; 16]) -> u32 {
    let lo = crc.to_le_bytes();
    TABLES[15][(c[0] ^ lo[0]) as usize]
        ^ TABLES[14][(c[1] ^ lo[1]) as usize]
        ^ TABLES[13][(c[2] ^ lo[2]) as usize]
        ^ TABLES[12][(c[3] ^ lo[3]) as usize]
        ^ TABLES[11][c[4] as usize]
        ^ TABLES[10][c[5] as usize]
        ^ TABLES[9][c[6] as usize]
        ^ TABLES[8][c[7] as usize]
        ^ TABLES[7][c[8] as usize]
        ^ TABLES[6][c[9] as usize]
        ^ TABLES[5][c[10] as usize]
        ^ TABLES[4][c[11] as usize]
        ^ TABLES[3][c[12] as usize]
        ^ TABLES[2][c[13] as usize]
        ^ TABLES[1][c[14] as usize]
        ^ TABLES[0][c[15] as usize]
}

/// Runs the raw register over `bytes`, sixteen at a time.
fn fold(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(LANES);
    for chunk in &mut chunks {
        crc = fold16(crc, chunk.try_into().expect("exact chunk"));
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc & 0xFF) as u8 ^ b) as usize];
    }
    crc
}

/// Streaming CRC32 state. Feed bytes with [`Crc32::update`], read the
/// checksum with [`Crc32::finish`] (the state stays usable — `finish` is
/// a pure read).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum (the standard `0xFFFFFFFF` preset).
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut rounds = bytes.chunks_exact(3 * STRIPE);
        for round in &mut rounds {
            // Stripe `a` continues the register; `b` and `c` start from
            // zero. The register is linear, so the round's result is `a`
            // shifted past two stripes, `b` past one, xor `c`.
            let (a, rest) = round.split_at(STRIPE);
            let (b, c) = rest.split_at(STRIPE);
            let (mut ca, mut cb, mut cc) = (crc, 0u32, 0u32);
            for ((a, b), c) in a
                .chunks_exact(LANES)
                .zip(b.chunks_exact(LANES))
                .zip(c.chunks_exact(LANES))
            {
                ca = fold16(ca, a.try_into().expect("exact chunk"));
                cb = fold16(cb, b.try_into().expect("exact chunk"));
                cc = fold16(cc, c.try_into().expect("exact chunk"));
            }
            crc = multmodp(SHIFT_2, ca) ^ multmodp(SHIFT_1, cb) ^ cc;
        }
        self.state = fold(crc, rounds.remainder());
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_values() {
        // The canonical CRC-32/ISO-HDLC check vectors.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The textbook bit-at-a-time register, the reference for the
    /// sliced and striped paths.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn striped_rounds_equal_the_bitwise_reference() {
        // Lengths around the round size exercise the combine step, the
        // sliced remainder, and the byte tail.
        let data: Vec<u8> = (0..(7 * STRIPE + 45) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [
            0,
            15,
            16,
            3 * STRIPE - 1,
            3 * STRIPE,
            3 * STRIPE + 17,
            6 * STRIPE,
            data.len(),
        ] {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "{len} bytes");
        }
        // Streaming across round boundaries gives the one-shot value.
        let mut crc = Crc32::new();
        for piece in data.chunks(5 * STRIPE / 2 + 3) {
            crc.update(piece);
        }
        assert_eq!(crc.finish(), bitwise(&data));
    }

    #[test]
    fn shift_operator_matches_zero_padding() {
        // Shifting a register past n zero bytes equals feeding them.
        for (reg, n) in [(0xDEAD_BEEFu32, 1usize), (0x1234_5678, 37), (!0, STRIPE)] {
            let zeros = vec![0u8; n];
            assert_eq!(
                multmodp(x8nmodp(n), reg),
                fold(reg, &zeros),
                "{n} zero bytes"
            );
        }
    }

    #[test]
    fn sliced_path_equals_byte_at_a_time() {
        // Any split of the input must give the same checksum, and the
        // slice-by-16 fast path must agree with the scalar tail path.
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = crc32(&data);
        let mut scalar = Crc32::new();
        for b in &data {
            scalar.update(std::slice::from_ref(b));
        }
        assert_eq!(scalar.finish(), whole);
        for split in [1, 7, 8, 9, 16, 17, 64, 1000] {
            let mut crc = Crc32::new();
            let (a, b) = data.split_at(split);
            crc.update(a);
            crc.update(b);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let clean = crc32(&data);
        for byte in [0usize, 17, 128, 255] {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), clean, "flip {byte}:{bit} must change the crc");
            }
        }
    }
}
