//! Multiprecision Montgomery arithmetic for runtime moduli.
//!
//! Unlike `zaatar-field`, where the modulus is a compile-time constant,
//! the ElGamal group modulus is runtime data (different groups pair with
//! different PCP fields), so this module provides a [`MontCtx`] built at
//! runtime. Its multiplication is one const-generic CIOS body on
//! `[u64; N]`, monomorphized for the widths this system uses: 1, 2 and 4
//! limbs (the field moduli the primality checks re-verify, and the
//! 256-bit test group) and 16 limbs (the 1024-bit production groups).
//! [`MontCtx::new`] refuses every other width.
//!
//! The slice helpers below serve the width-agnostic bookkeeping around
//! the kernel (canonical-range checks, exponent negation, the
//! primality tests' long division).

use zaatar_field::limbs::{self, adc, mac, sbb};

/// Compares little-endian multi-word integers: `true` if `a >= b`.
pub fn geq(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a += b`, returning the carry out.
pub fn add_assign(a: &mut [u64], b: &[u64]) -> u64 {
    let mut carry = 0;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        let (lo, c) = adc(*x, *y, carry);
        *x = lo;
        carry = c;
    }
    carry
}

/// `a -= b`, returning the borrow out.
pub fn sub_assign(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        let (lo, bo) = sbb(*x, *y, borrow);
        *x = lo;
        borrow = bo;
    }
    borrow
}

/// Returns `true` if all words are zero.
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&x| x == 0)
}

/// The Montgomery kernel at a fixed width of `N` limbs.
#[derive(Clone, Debug)]
struct Kernel<const N: usize> {
    modulus: [u64; N],
    /// `−m⁻¹ mod 2⁶⁴`.
    inv: u64,
}

impl<const N: usize> Kernel<N> {
    /// Montgomery multiplication (CIOS): `a·b/R mod m` for `a, b < m`,
    /// on the stack. Squaring is this with `a = b`: a dedicated SOS
    /// squaring kernel measured slower than it at 16 limbs.
    #[inline]
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let m = &self.modulus;
        let mut t = [0u64; N];
        let mut t_n: u64 = 0;
        for &bi in b.iter() {
            let mut carry = 0;
            for j in 0..N {
                let (lo, c) = mac(t[j], a[j], bi, carry);
                t[j] = lo;
                carry = c;
            }
            let (lo, t_n1) = adc(t_n, carry, 0);
            t_n = lo;

            let k = t[0].wrapping_mul(self.inv);
            let (_, mut carry) = mac(t[0], k, m[0], 0);
            for j in 1..N {
                let (lo, c) = mac(t[j], k, m[j], carry);
                t[j - 1] = lo;
                carry = c;
            }
            let (lo, c) = adc(t_n, carry, 0);
            t[N - 1] = lo;
            t_n = t_n1 + c;
        }
        if t_n != 0 || limbs::geq(&t, m) {
            limbs::sub_assign(&mut t, m);
        }
        t
    }

    /// `a ← a·b/R mod m` over word slices of width `N`.
    #[inline]
    fn mul_assign(&self, a: &mut [u64], b: &[u64]) {
        let a: &mut [u64; N] = a.try_into().expect("operand width");
        let b: &[u64; N] = b.try_into().expect("operand width");
        *a = self.mul(a, b);
    }

    /// `a ← a²/R mod m` over a word slice of width `N`.
    #[inline]
    fn square_assign(&self, a: &mut [u64]) {
        let a: &mut [u64; N] = a.try_into().expect("operand width");
        *a = self.mul(a, a);
    }
}

/// The [`Kernel`] monomorphizations a [`MontCtx`] can hold.
#[derive(Clone, Debug)]
enum Width {
    L1(Kernel<1>),
    L2(Kernel<2>),
    L4(Kernel<4>),
    L16(Kernel<16>),
}

/// Runs `$body` with `$k` bound to the context's kernel, whatever its
/// width.
macro_rules! with_kernel {
    ($width:expr, $k:ident => $body:expr) => {
        match $width {
            Width::L1($k) => $body,
            Width::L2($k) => $body,
            Width::L4($k) => $body,
            Width::L16($k) => $body,
        }
    };
}

/// A Montgomery reduction context for an odd runtime modulus.
#[derive(Clone, Debug)]
pub struct MontCtx {
    kernel: Width,
    /// `R mod m` where `R = 2^(64·n)`.
    r: Vec<u64>,
    /// `R² mod m`.
    r2: Vec<u64>,
}

impl MontCtx {
    /// Builds a context for the given odd modulus (little-endian words,
    /// top word non-zero).
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even, zero, has a zero top word, or is
    /// not 1, 2, 4 or 16 words wide.
    pub fn new(modulus: Vec<u64>) -> Self {
        assert!(!modulus.is_empty(), "modulus must be non-empty");
        assert!(modulus[0] & 1 == 1, "modulus must be odd");
        assert!(
            *modulus.last().expect("non-empty") != 0,
            "modulus top word must be non-zero"
        );
        let n = modulus.len();
        // Newton iteration for m⁻¹ mod 2⁶⁴: x ← x(2 − m₀x).
        let m0 = modulus[0];
        let mut x = 1u64;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x)));
        }
        debug_assert_eq!(x.wrapping_mul(m0), 1);
        let inv = x.wrapping_neg();
        // R mod m and R² mod m by repeated modular doubling of 1.
        let mut acc = vec![0u64; n];
        acc[0] = 1;
        let mut r = Vec::new();
        for step in 0..(128 * n) {
            if step == 64 * n {
                r = acc.clone();
            }
            let mut doubled = acc.clone();
            let carry = add_assign(&mut doubled, &acc);
            if carry == 1 || geq(&doubled, &modulus) {
                sub_assign(&mut doubled, &modulus);
            }
            acc = doubled;
        }
        let r2 = acc;
        fn kernel<const N: usize>(modulus: &[u64], inv: u64) -> Kernel<N> {
            Kernel {
                modulus: modulus.try_into().expect("width checked"),
                inv,
            }
        }
        let kernel = match n {
            1 => Width::L1(kernel(&modulus, inv)),
            2 => Width::L2(kernel(&modulus, inv)),
            4 => Width::L4(kernel(&modulus, inv)),
            16 => Width::L16(kernel(&modulus, inv)),
            _ => panic!("unsupported modulus width: {n} words (1, 2, 4 or 16)"),
        };
        MontCtx { kernel, r, r2 }
    }

    /// Word width of this context.
    pub fn width(&self) -> usize {
        self.r.len()
    }

    /// The modulus words.
    pub fn modulus(&self) -> &[u64] {
        with_kernel!(&self.kernel, k => &k.modulus[..])
    }

    /// Montgomery form of 1 (i.e. `R mod m`).
    pub fn one(&self) -> Vec<u64> {
        self.r.clone()
    }

    /// Converts a canonical value (`< m`) into Montgomery form.
    pub fn to_mont(&self, a: &[u64]) -> Vec<u64> {
        debug_assert!(!geq(a, self.modulus()), "value must be reduced");
        self.mont_mul(a, &self.r2)
    }

    /// Converts a Montgomery-form value back to canonical form.
    pub fn from_mont(&self, a: &[u64]) -> Vec<u64> {
        let mut one = vec![0u64; self.width()];
        one[0] = 1;
        self.mont_mul(a, &one)
    }

    /// In-place Montgomery multiplication: `a ← a·b/R mod m`. Both
    /// operands are reduced words at the context's width.
    ///
    /// # Panics
    ///
    /// Panics if an operand is not [`Self::width`] words long.
    pub fn mul_assign(&self, a: &mut [u64], b: &[u64]) {
        with_kernel!(&self.kernel, k => k.mul_assign(a, b))
    }

    /// In-place Montgomery squaring: `a ← a²/R mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not [`Self::width`] words long.
    pub fn square_assign(&self, a: &mut [u64]) {
        with_kernel!(&self.kernel, k => k.square_assign(a))
    }

    /// Montgomery multiplication: `a·b/R mod m`.
    pub fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = a.to_vec();
        self.mul_assign(&mut out, b);
        out
    }

    /// Montgomery squaring: `a²/R mod m`, the multiplication with both
    /// operands equal.
    pub fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        self.mont_mul(a, a)
    }

    /// Modular exponentiation with a multi-word exponent: returns
    /// `base^exp mod m` in Montgomery form, given `base` in Montgomery
    /// form (left-to-right square-and-multiply, in place).
    pub fn mont_pow(&self, base: &[u64], exp: &[u64]) -> Vec<u64> {
        let mut acc = self.one();
        let high = exp
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize);
        let high = match high {
            Some(h) => h,
            None => return acc,
        };
        for i in (0..=high).rev() {
            self.square_assign(&mut acc);
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                self.mul_assign(&mut acc, base);
            }
        }
        acc
    }

    /// Full modular exponentiation on canonical values.
    pub fn pow(&self, base: &[u64], exp: &[u64]) -> Vec<u64> {
        let b = self.to_mont(base);
        self.from_mont(&self.mont_pow(&b, exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(x: u128, n: usize) -> Vec<u64> {
        let mut v = vec![0u64; n];
        v[0] = x as u64;
        if n > 1 {
            v[1] = (x >> 64) as u64;
        }
        v
    }

    /// A 127-bit prime for reference testing (fits u128 arithmetic via
    /// Python-checked vectors).
    const P: u128 = (1 << 127) - 1; // Mersenne prime 2^127 − 1.

    #[test]
    fn ctx_constants() {
        let ctx = MontCtx::new(words(P, 2));
        assert_eq!(ctx.width(), 2);
        // R mod p for R = 2^128, p = 2^127 − 1: R = 2p + 2 → R mod p = 2.
        assert_eq!(ctx.one(), words(2, 2));
    }

    #[test]
    fn mont_round_trip() {
        let ctx = MontCtx::new(words(P, 2));
        let a = words(0xdead_beef_cafe_f00d_1234u128, 2);
        let m = ctx.to_mont(&a);
        assert_eq!(ctx.from_mont(&m), a);
    }

    #[test]
    fn mul_matches_reference() {
        let ctx = MontCtx::new(words(P, 2));
        let a = 0x0123_4567_89ab_cdef_1122_3344_5566_7788u128 % P;
        let b = 0x0fed_cba9_8765_4321_8877_6655_4433_2211u128 % P;
        let am = ctx.to_mont(&words(a, 2));
        let bm = ctx.to_mont(&words(b, 2));
        let prod = ctx.from_mont(&ctx.mont_mul(&am, &bm));
        // Reference via shift-and-add in u128 is awkward; use the identity
        // (a·b mod p) for Mersenne p: fold the 256-bit product.
        let expect = mulmod_mersenne127(a, b);
        assert_eq!(prod, words(expect, 2));
    }

    fn mulmod_mersenne127(a: u128, b: u128) -> u128 {
        // Schoolbook 128×128 → 256, then fold mod 2^127 − 1.
        let (a0, a1) = (a as u64 as u128, a >> 64);
        let (b0, b1) = (b as u64 as u128, b >> 64);
        let ll = a0 * b0;
        let lh = a0 * b1;
        let hl = a1 * b0;
        let hh = a1 * b1;
        let mid = lh + hl;
        let lo = ll.wrapping_add(mid << 64);
        let carry = if lo < ll { 1u128 } else { 0 };
        let hi = hh + (mid >> 64) + carry;
        // value = hi·2^128 + lo; 2^127 ≡ 1, so 2^128 ≡ 2.
        let mut acc = (lo & ((1 << 127) - 1)) + (lo >> 127) + 2 * (hi % ((1 << 127) - 1));
        while acc >= (1 << 127) - 1 {
            acc -= (1 << 127) - 1;
        }
        acc
    }

    #[test]
    fn pow_small_cases() {
        let ctx = MontCtx::new(words(1_000_003, 1));
        // 2^10 = 1024 mod 1000003.
        assert_eq!(ctx.pow(&[2], &[10]), vec![1024]);
        // Fermat: a^(p−1) = 1.
        assert_eq!(ctx.pow(&[12345], &[1_000_002]), vec![1]);
        // Zero exponent.
        assert_eq!(ctx.pow(&[999], &[0]), vec![1]);
    }

    #[test]
    fn pow_matches_square_chain() {
        let ctx = MontCtx::new(words(P, 2));
        let base = words(987654321, 2);
        let e = 0b1011_0110u64;
        let fast = ctx.pow(&base, &[e]);
        // Reference: repeated multiplication.
        let bm = ctx.to_mont(&base);
        let mut acc = ctx.one();
        for _ in 0..e {
            acc = ctx.mont_mul(&acc, &bm);
        }
        assert_eq!(fast, ctx.from_mont(&acc));
    }

    #[test]
    fn sqr_matches_mul_by_self() {
        let ctx = MontCtx::new(words(P, 2));
        // Deterministic pseudo-random walk over Montgomery values: the
        // differential identity mont_sqr(a) == mont_mul(a, a) must hold
        // for every representable input, reduced or not-yet-normalized.
        let mut a = ctx.to_mont(&words(0x1234_5678_9abc_def0u128, 2));
        for _ in 0..64 {
            assert_eq!(ctx.mont_sqr(&a), ctx.mont_mul(&a, &a));
            a = ctx.mont_mul(&a, &ctx.r2);
        }
    }

    #[test]
    fn sqr_edge_values() {
        let ctx = MontCtx::new(words(P, 2));
        // 0, 1 (Montgomery R), and m − 1 stress the no-carry, identity,
        // and maximal-cross-term paths.
        let zero = vec![0u64; 2];
        assert_eq!(ctx.mont_sqr(&zero), ctx.mont_mul(&zero, &zero));
        let one = ctx.one();
        assert_eq!(ctx.mont_sqr(&one), ctx.mont_mul(&one, &one));
        let mut top = ctx.modulus().to_vec();
        top[0] -= 1;
        assert_eq!(ctx.mont_sqr(&top), ctx.mont_mul(&top, &top));
        // All-ones words below the modulus exercise saturated carries.
        let m = words(P - 1, 2);
        let mm = ctx.to_mont(&m);
        assert_eq!(ctx.mont_sqr(&mm), ctx.mont_mul(&mm, &mm));
    }

    #[test]
    fn sqr_single_limb_width() {
        let ctx = MontCtx::new(words(1_000_003, 1));
        for v in [0u64, 1, 2, 999, 1_000_002] {
            let vm = ctx.to_mont(&[v]);
            assert_eq!(ctx.mont_sqr(&vm), ctx.mont_mul(&vm, &vm), "v={v}");
        }
    }

    #[test]
    fn add_sub_helpers() {
        let mut a = vec![u64::MAX, 0];
        let carry = add_assign(&mut a, &[1, 0]);
        assert_eq!(carry, 0);
        assert_eq!(a, vec![0, 1]);
        let borrow = sub_assign(&mut a, &[1, 1]);
        assert_eq!(borrow, 1);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = MontCtx::new(vec![4]);
    }

    #[test]
    #[should_panic(expected = "unsupported modulus width")]
    fn unmonomorphized_width_rejected() {
        let _ = MontCtx::new(vec![1, 0, 1]);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let ctx = MontCtx::new(words(P, 2));
        let a = ctx.to_mont(&words(0xfeed_f00d_0123_4567_89ab_cdefu128, 2));
        let b = ctx.to_mont(&words(0x0bad_cafe_7654_3210u128, 2));
        let mut x = a.clone();
        ctx.mul_assign(&mut x, &b);
        assert_eq!(x, ctx.mont_mul(&a, &b));
        let mut y = a.clone();
        ctx.square_assign(&mut y);
        assert_eq!(y, ctx.mont_mul(&a, &a));
    }
}
