//! x86 SIMD byte-set classification for the two-stage singles sweep.
//!
//! The two-stage scan emits 1-byte rules with a direct table sweep over
//! every byte its stage-1 walk skipped; at realistic hit densities that
//! sweep is a second full pass over the stream. Shuffle-based
//! classification — the technique modern software DPI engines
//! (Hyperscan's "shufti", the Hyperflex line of work) are built on —
//! answers "is this byte a member?" for 16 or 32 bytes per probe.
//! This module admits exactly that much `unsafe`, on x86_64 only:
//!
//! - [`ByteSetTables`] — a 64-byte nibble-split representation of an
//!   **arbitrary** byte set, queried 16 or 32 bytes per `pshufb` pair;
//! - [`SimdToken`] — a runtime-detection witness whose existence proves
//!   the CPU supports the instructions, making every vector entry point
//!   on it a *safe* function. CPUs without SSSE3 get no token and keep
//!   the scalar sweep.
//!
//! # Soundness
//!
//! Every `unsafe` block in the workspace lives in this file, and each is
//! one of two shapes:
//!
//! 1. **Feature-gated intrinsics.** Functions marked
//!    `#[target_feature(enable = ...)]` are only reachable through a
//!    [`SimdToken`], which can only be constructed by
//!    [`SimdToken::detect`] returning `Some` — i.e. after
//!    `is_x86_feature_detected!` confirmed the CPU executes them. The
//!    32-byte query re-checks the AVX2 flag and falls back to two SSE
//!    probes, so a token from an SSSE3-only CPU stays sound even if a
//!    caller ignores [`SimdToken::avx2`].
//! 2. **Unaligned vector loads.** `_mm_loadu_si128`/`_mm256_loadu_si256`
//!    read exactly 16/32 bytes from a `&[u8; 16]`/`&[u8; 32]` borrow,
//!    so the type guarantees every byte loaded is readable; `loadu`
//!    has no alignment requirement.
//!
//! The *classification* correctness (vector verdicts ≡ the byte set
//! they mirror) is not an `unsafe` precondition — it is pinned by
//! [`ByteSetTables::model_contains`], a safe scalar model of the
//! shuffle algebra that this module's tests and `tests/simd.rs` check
//! against the vector kernels and a production byte set.
//!
//! # The nibble-split construction
//!
//! `pshufb` is a 16-entry byte table lookup. Splitting each input byte
//! `b` into nibbles `(hi, lo) = (b >> 4, b & 15)` and giving each of the
//! 16 possible `hi` values its own bit yields an **exact** membership
//! test for any byte set: `lo_table[lo]` holds the set of `hi` rows in
//! which column `lo` is a member, `hi_table[hi]` holds the single bit of
//! row `hi`, and `lo_table[lo] & hi_table[hi] != 0` iff `b` is in the
//! set. Sixteen rows need 16 bits but a `pshufb` lane holds 8, so the
//! set is split into two planes (`hi < 8` and `hi ≥ 8`) of two tables
//! each — four shuffles and a handful of bitwise ops classify a whole
//! vector. Unlike the single-plane "shufti" heuristic this two-plane
//! form is exact for *every* byte set, so no scalar confirmation pass
//! is needed.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

/// Nibble-split shuffle tables representing one byte set exactly: byte
/// `b` is a member iff
/// `(lo1[b&15] & hi1[b>>4]) | (lo2[b&15] & hi2[b>>4]) != 0`.
///
/// Plain data — building and modelling it is safe; only the vector
/// queries (through [`SimdToken`]) touch intrinsics. 64 bytes per set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteSetTables {
    /// Plane 1 (`hi < 8`): per lo-nibble, the set of hi rows present.
    lo1: [u8; 16],
    /// Plane 1 row bits: `hi1[h] = 1 << h` for `h < 8`, else 0.
    hi1: [u8; 16],
    /// Plane 2 (`hi ≥ 8`): per lo-nibble, the set of hi rows present.
    lo2: [u8; 16],
    /// Plane 2 row bits: `hi2[h] = 1 << (h - 8)` for `h ≥ 8`, else 0.
    hi2: [u8; 16],
}

impl ByteSetTables {
    /// Builds the tables for the set `{b : contains(b)}`.
    pub fn build(contains: impl Fn(u8) -> bool) -> ByteSetTables {
        let mut t = ByteSetTables {
            lo1: [0; 16],
            hi1: [0; 16],
            lo2: [0; 16],
            hi2: [0; 16],
        };
        for h in 0..8usize {
            t.hi1[h] = 1 << h;
            t.hi2[h + 8] = 1 << h;
        }
        for b in 0..=255u8 {
            if contains(b) {
                let (h, l) = ((b >> 4) as usize, (b & 15) as usize);
                if h < 8 {
                    t.lo1[l] |= 1 << h;
                } else {
                    t.lo2[l] |= 1 << (h - 8);
                }
            }
        }
        t
    }

    /// The safe scalar model of the shuffle algebra: exactly the
    /// computation the vector kernels perform, one byte at a time.
    /// Tests pin `model_contains` ≡ the source set (per byte) and the
    /// vector kernels ≡ `model_contains` (per lane), which together pin
    /// the kernels to the set without any traffic generation in the
    /// loop.
    #[inline(always)]
    pub fn model_contains(&self, b: u8) -> bool {
        let (h, l) = ((b >> 4) as usize, (b & 15) as usize);
        (self.lo1[l] & self.hi1[h]) | (self.lo2[l] & self.hi2[h]) != 0
    }
}

/// Runtime-detection witness for the SIMD kernels.
///
/// A value of this type exists only if [`SimdToken::detect`] observed
/// SSSE3 support (`pshufb`) on the running CPU — the invariant that
/// makes the vector methods safe to expose. `Copy` and zero-sized but
/// for the AVX2 flag; thread it by value into hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdToken {
    avx2: bool,
}

impl SimdToken {
    /// Probes the CPU: `Some` iff SSSE3 is available (with 32-byte
    /// probes enabled when AVX2 is too), `None` otherwise — the caller
    /// falls back to its scalar loop. Detection is cached by the
    /// standard library, so calling this per matcher construction is
    /// cheap.
    pub fn detect() -> Option<SimdToken> {
        is_x86_feature_detected!("ssse3").then(|| SimdToken {
            avx2: is_x86_feature_detected!("avx2"),
        })
    }

    /// Whether 32-byte (AVX2) probes are available; 16-byte SSSE3
    /// probes always are on a constructed token.
    #[inline(always)]
    pub fn avx2(self) -> bool {
        self.avx2
    }

    /// Membership mask of 16 bytes in `set`: bit `j` set iff `w[j]` is
    /// a member. Safe: the token witnesses SSSE3.
    #[inline(always)]
    pub fn member_mask16(self, set: &ByteSetTables, w: &[u8; 16]) -> u32 {
        // SAFETY: constructing `self` required `ssse3` detection; the
        // load reads exactly the 16 borrowed bytes.
        unsafe { member_mask16_ssse3(set, w) }
    }

    /// Membership mask of 32 bytes in `set`: bit `j` set iff `w[j]` is
    /// a member. Uses one AVX2 probe when the token saw AVX2, two SSSE3
    /// probes otherwise — same result either way.
    #[inline(always)]
    pub fn member_mask32(self, set: &ByteSetTables, w: &[u8; 32]) -> u32 {
        if self.avx2 {
            // SAFETY: the token's `avx2` flag witnesses AVX2 detection;
            // the load reads exactly the 32 borrowed bytes.
            unsafe { member_mask32_avx2(set, w) }
        } else {
            let lo: &[u8; 16] = w[..16].try_into().expect("16-byte half");
            let hi: &[u8; 16] = w[16..].try_into().expect("16-byte half");
            self.member_mask16(set, lo) | (self.member_mask16(set, hi) << 16)
        }
    }

    /// Executes `f` inside a frame compiled with this token's detected
    /// feature set enabled.
    ///
    /// The point is inlining, not dispatch: a `#[target_feature]` kernel
    /// cannot inline into a caller built without the feature, so a hot
    /// loop that calls [`SimdToken::member_mask32`] through the plain
    /// ABI re-loads the four shuffle tables on every probe. Wrapping the
    /// whole loop in this frame lets LLVM inline the kernels and keep
    /// the tables live across the loop.
    ///
    /// Safe for any `f`: the frame only *permits* vector instructions
    /// the token already witnessed the CPU executes.
    #[inline(always)]
    pub fn dispatch<R>(self, f: impl FnOnce() -> R) -> R {
        if self.avx2 {
            // SAFETY: the token's `avx2` flag witnesses detection.
            unsafe { dispatch_avx2(f) }
        } else {
            // SAFETY: constructing the token required `ssse3`.
            unsafe { dispatch_ssse3(f) }
        }
    }
}

/// One two-plane shuffle classification of 16 bytes.
///
/// # Safety
///
/// Requires SSSE3 (`pshufb`).
#[target_feature(enable = "ssse3")]
unsafe fn member_mask16_ssse3(set: &ByteSetTables, w: &[u8; 16]) -> u32 {
    // SAFETY (caller-upheld): ssse3 enabled; loads read the borrowed
    // 16-byte arrays, unaligned loads carry no alignment requirement.
    unsafe {
        let v = _mm_loadu_si128(w.as_ptr() as *const __m128i);
        let lo1 = _mm_loadu_si128(set.lo1.as_ptr() as *const __m128i);
        let hi1 = _mm_loadu_si128(set.hi1.as_ptr() as *const __m128i);
        let lo2 = _mm_loadu_si128(set.lo2.as_ptr() as *const __m128i);
        let hi2 = _mm_loadu_si128(set.hi2.as_ptr() as *const __m128i);
        let nib = _mm_set1_epi8(0x0f);
        let lo = _mm_and_si128(v, nib);
        let hi = _mm_and_si128(_mm_srli_epi16(v, 4), nib);
        let m = _mm_or_si128(
            _mm_and_si128(_mm_shuffle_epi8(lo1, lo), _mm_shuffle_epi8(hi1, hi)),
            _mm_and_si128(_mm_shuffle_epi8(lo2, lo), _mm_shuffle_epi8(hi2, hi)),
        );
        // Nonzero lanes are members: compare against zero and invert.
        let zero = _mm_cmpeq_epi8(m, _mm_setzero_si128());
        (!_mm_movemask_epi8(zero) as u32) & 0xFFFF
    }
}

/// One two-plane shuffle classification of 32 bytes.
///
/// # Safety
///
/// Requires AVX2 (`vpshufb` operates per 128-bit half, which the
/// half-local nibble tables are built for — both halves get the same
/// broadcast tables).
#[target_feature(enable = "avx2")]
unsafe fn member_mask32_avx2(set: &ByteSetTables, w: &[u8; 32]) -> u32 {
    // SAFETY (caller-upheld): avx2 enabled; loads read the borrowed
    // arrays; `_mm256_broadcastsi128_si256` duplicates each 16-byte
    // table into both halves so the per-half `vpshufb` indexes match
    // the SSE kernel exactly.
    unsafe {
        let v = _mm256_loadu_si256(w.as_ptr() as *const __m256i);
        let b128 = |t: &[u8; 16]| {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i))
        };
        let lo1 = b128(&set.lo1);
        let hi1 = b128(&set.hi1);
        let lo2 = b128(&set.lo2);
        let hi2 = b128(&set.hi2);
        let nib = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, nib);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
        let m = _mm256_or_si256(
            _mm256_and_si256(_mm256_shuffle_epi8(lo1, lo), _mm256_shuffle_epi8(hi1, hi)),
            _mm256_and_si256(_mm256_shuffle_epi8(lo2, lo), _mm256_shuffle_epi8(hi2, hi)),
        );
        let zero = _mm256_cmpeq_epi8(m, _mm256_setzero_si256());
        !(_mm256_movemask_epi8(zero) as u32)
    }
}

/// AVX2 inlining frame for [`SimdToken::dispatch`].
///
/// # Safety
///
/// Requires AVX2 (the frame itself executes no vector instruction, but
/// kernels inlined into it may be compiled to any AVX2 sequence).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dispatch_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// SSSE3 inlining frame for [`SimdToken::dispatch`].
///
/// # Safety
///
/// Requires SSSE3.
#[target_feature(enable = "ssse3")]
#[inline]
unsafe fn dispatch_ssse3<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive: the scalar model reproduces arbitrary byte sets.
    #[test]
    fn model_is_exact_for_arbitrary_sets() {
        let sets: [Box<dyn Fn(u8) -> bool>; 5] = [
            Box::new(|_| false),
            Box::new(|_| true),
            Box::new(|b| b.is_ascii_alphanumeric()),
            Box::new(|b| b % 3 == 0),
            Box::new(|b| (b as u32).wrapping_mul(2654435761) & 0x8000_0000 != 0),
        ];
        for contains in sets {
            let t = ByteSetTables::build(&contains);
            for b in 0..=255u8 {
                assert_eq!(t.model_contains(b), contains(b), "byte {b:#04x}");
            }
        }
    }

    /// Vector kernels agree with the scalar model on every lane, for
    /// windows sweeping all byte values through all positions.
    #[test]
    fn vector_masks_match_model() {
        let Some(tok) = SimdToken::detect() else {
            eprintln!("skipping: no SSSE3 on this host");
            return;
        };
        let t = ByteSetTables::build(|b| b % 5 == 0 || b > 0xE0);
        let mut w32 = [0u8; 32];
        for phase in 0..=255usize {
            for (j, slot) in w32.iter_mut().enumerate() {
                *slot = ((phase + 7 * j) % 256) as u8;
            }
            let m32 = tok.member_mask32(&t, &w32);
            let w16: &[u8; 16] = w32[..16].try_into().unwrap();
            let m16 = tok.member_mask16(&t, w16);
            for (j, &b) in w32.iter().enumerate() {
                assert_eq!((m32 >> j) & 1 != 0, t.model_contains(b), "lane {j}");
            }
            assert_eq!(m16, m32 & 0xFFFF);
        }
    }
}
