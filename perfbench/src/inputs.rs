//! Seeded input generation: per-pass orders over the corpus and the
//! literal-shifted program variants `serve_fresh` sends.
//!
//! Everything here is a pure function of the `--seed` argument, the pass or
//! round index and the corpus, so the same seed gives the same inputs.

/// SplitMix64: a small, fast generator whose whole state is one `u64`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams give unrelated
    /// sequences for the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is negligible for the
    /// small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Stream tags, so orders and offsets never share a random sequence.
const ORDER_STREAM: u64 = 1;
const OFFSET_STREAM: u64 = 2;

/// The seeded visiting order of `n` methods for pass (or round) `pass`.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, ORDER_STREAM.wrapping_add(pass << 8)).shuffle(&mut order);
    order
}

/// Offsets are drawn from a seeded permutation of `1..=OFFSET_SPAN`, so the
/// mix of offsets (and with it the cost per round) does not drift with the
/// number of rounds a run reaches.
pub const OFFSET_SPAN: u64 = 1024;

/// The literal offset every request of round `round` uses. Distinct rounds
/// get distinct offsets, so no variant text repeats within a run.
#[derive(Debug, Clone)]
pub struct Offsets {
    perm: Vec<u64>,
}

impl Offsets {
    pub fn new(seed: u64) -> Offsets {
        let mut perm: Vec<u64> = (1..=OFFSET_SPAN).collect();
        Rng::new(seed, OFFSET_STREAM).shuffle(&mut perm);
        Offsets { perm }
    }

    pub fn of_round(&self, round: u64) -> u64 {
        let span = self.perm.len() as u64;
        self.perm[(round % span) as usize] + span * (round / span)
    }
}

/// Shifts every integer literal `>= 2` in MiniLang source `src` by
/// `offset`. Literals 0 and 1 are kept, so loop starts, steps and index
/// structure survive. Comments, string and character literals, and digits
/// inside identifiers are left alone.
pub fn shift_literals(src: &str, offset: u64) -> String {
    let b = src.as_bytes();
    let mut out = String::with_capacity(src.len() + 16);
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let end = src[i..].find('\n').map_or(b.len(), |k| i + k);
            out.push_str(&src[i..end]);
            i = end;
        } else if c == b'"' || c == b'\'' {
            let mut j = i + 1;
            while j < b.len() && b[j] != c {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            let end = (j + 1).min(b.len());
            out.push_str(&src[i..end]);
            i = end;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let mut j = i;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            out.push_str(&src[i..j]);
            i = j;
        } else if c.is_ascii_digit() {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            match src[i..j].parse::<u64>() {
                Ok(v) if v >= 2 => out.push_str(&(v + offset).to_string()),
                _ => out.push_str(&src[i..j]),
            }
            i = j;
        } else {
            let ch = src[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// Whether `src` has a literal the shift changes.
pub fn has_shiftable_literal(src: &str) -> bool {
    shift_literals(src, 1) != src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_only_literals_of_two_or_more() {
        let src = "fn f2(a [int]) { // 10 stays\n let x = a[0] + a[1] * 2 - 10; \
                   return x % 3 + 'c9'; }";
        let got = shift_literals(src, 5);
        assert_eq!(
            got,
            "fn f2(a [int]) { // 10 stays\n let x = a[0] + a[1] * 7 - 15; \
             return x % 8 + 'c9'; }"
        );
    }

    #[test]
    fn orders_and_offsets_repeat_for_a_seed() {
        assert_eq!(pass_order(7, 3, 81), pass_order(7, 3, 81));
        assert_ne!(pass_order(7, 3, 81), pass_order(8, 3, 81));
        assert_ne!(pass_order(7, 3, 81), pass_order(7, 4, 81));
        let a = Offsets::new(7);
        let seen: std::collections::HashSet<u64> = (0..3000).map(|r| a.of_round(r)).collect();
        assert_eq!(seen.len(), 3000, "offsets are distinct across rounds");
        assert!((0..3000).all(|r| a.of_round(r) >= 1));
    }
}
