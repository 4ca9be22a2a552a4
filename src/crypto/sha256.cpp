#include "crypto/sha256.hpp"

#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MUSTAPLE_SHA256_X86 1
#include <immintrin.h>
#endif

namespace mustaple::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline std::uint32_t big_sigma0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline std::uint32_t big_sigma1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline std::uint32_t small_sigma0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t small_sigma1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}
inline std::uint32_t ch(std::uint32_t e, std::uint32_t f, std::uint32_t g) {
  return (e & f) ^ (~e & g);
}
inline std::uint32_t maj(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return (a & b) ^ (a & c) ^ (b & c);
}

// --------------------------------------------------------------- scalar --

// Reference implementation: the FIPS 180-4 pseudocode, transcribed. Kept as
// the always-available baseline the faster paths are tested (and benchmarked)
// against.
void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t n) {
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      w[i] = w[i - 16] + small_sigma0(w[i - 15]) + w[i - 7] +
             small_sigma1(w[i - 2]);
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + big_sigma1(e) + ch(e, f, g) + kK[i] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + maj(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// ------------------------------------------------------------- unrolled --

// One round with the working variables named positionally; callers rotate
// the names instead of shuffling eight registers per round.
#define MUSTAPLE_SHA256_ROUND(a, b, c, d, e, f, g, h, kw)          \
  do {                                                             \
    const std::uint32_t t1 = (h) + big_sigma1(e) + ch(e, f, g) + (kw); \
    (d) += t1;                                                     \
    (h) = t1 + big_sigma0(a) + maj(a, b, c);                       \
  } while (0)

// Unrolled scalar: rolling 16-word schedule (recomputed in place, so the
// whole schedule stays in registers/L1) and name-rotated rounds. Portable
// default when no SIMD unit is available.
void compress_unrolled(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t n) {
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int chunk = 0; chunk < 64; chunk += 16) {
      if (chunk != 0) {
        for (int j = 0; j < 16; ++j) {
          w[j] += small_sigma0(w[(j + 1) & 15]) + w[(j + 9) & 15] +
                  small_sigma1(w[(j + 14) & 15]);
        }
      }
      MUSTAPLE_SHA256_ROUND(a, b, c, d, e, f, g, h, kK[chunk + 0] + w[0]);
      MUSTAPLE_SHA256_ROUND(h, a, b, c, d, e, f, g, kK[chunk + 1] + w[1]);
      MUSTAPLE_SHA256_ROUND(g, h, a, b, c, d, e, f, kK[chunk + 2] + w[2]);
      MUSTAPLE_SHA256_ROUND(f, g, h, a, b, c, d, e, kK[chunk + 3] + w[3]);
      MUSTAPLE_SHA256_ROUND(e, f, g, h, a, b, c, d, kK[chunk + 4] + w[4]);
      MUSTAPLE_SHA256_ROUND(d, e, f, g, h, a, b, c, kK[chunk + 5] + w[5]);
      MUSTAPLE_SHA256_ROUND(c, d, e, f, g, h, a, b, kK[chunk + 6] + w[6]);
      MUSTAPLE_SHA256_ROUND(b, c, d, e, f, g, h, a, kK[chunk + 7] + w[7]);
      MUSTAPLE_SHA256_ROUND(a, b, c, d, e, f, g, h, kK[chunk + 8] + w[8]);
      MUSTAPLE_SHA256_ROUND(h, a, b, c, d, e, f, g, kK[chunk + 9] + w[9]);
      MUSTAPLE_SHA256_ROUND(g, h, a, b, c, d, e, f, kK[chunk + 10] + w[10]);
      MUSTAPLE_SHA256_ROUND(f, g, h, a, b, c, d, e, kK[chunk + 11] + w[11]);
      MUSTAPLE_SHA256_ROUND(e, f, g, h, a, b, c, d, kK[chunk + 12] + w[12]);
      MUSTAPLE_SHA256_ROUND(d, e, f, g, h, a, b, c, kK[chunk + 13] + w[13]);
      MUSTAPLE_SHA256_ROUND(c, d, e, f, g, h, a, b, kK[chunk + 14] + w[14]);
      MUSTAPLE_SHA256_ROUND(b, c, d, e, f, g, h, a, kK[chunk + 15] + w[15]);
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(MUSTAPLE_SHA256_X86)

// ----------------------------------------------------------------- AVX2 --

// The message schedule is the data-parallel half of SHA-256: each W[i]
// depends on lanes 2, 7, 15 and 16 back, so four consecutive W's can be
// produced per vector step. sigma1 is the wrinkle — W[i+2]/W[i+3] need the
// W[i]/W[i+1] just computed — solved by running sigma1 twice over
// half-vectors and exploiting sigma1(0) == 0 for the masked lanes. Rounds
// themselves stay scalar (they are a strict dependency chain).

__attribute__((target("avx2"))) inline __m128i avx2_sigma0(__m128i x) {
  const __m128i r7 = _mm_or_si128(_mm_srli_epi32(x, 7), _mm_slli_epi32(x, 25));
  const __m128i r18 =
      _mm_or_si128(_mm_srli_epi32(x, 18), _mm_slli_epi32(x, 14));
  return _mm_xor_si128(_mm_xor_si128(r7, r18), _mm_srli_epi32(x, 3));
}

__attribute__((target("avx2"))) inline __m128i avx2_sigma1(__m128i x) {
  const __m128i r17 =
      _mm_or_si128(_mm_srli_epi32(x, 17), _mm_slli_epi32(x, 15));
  const __m128i r19 =
      _mm_or_si128(_mm_srli_epi32(x, 19), _mm_slli_epi32(x, 13));
  return _mm_xor_si128(_mm_xor_si128(r17, r19), _mm_srli_epi32(x, 10));
}

// W0..W3 hold W[i-16..i-1]; returns W[i..i+3].
__attribute__((target("avx2"))) inline __m128i avx2_schedule(__m128i w0,
                                                             __m128i w1,
                                                             __m128i w2,
                                                             __m128i w3) {
  const __m128i w_m15 = _mm_alignr_epi8(w1, w0, 4);  // W[i-15..i-12]
  const __m128i w_m7 = _mm_alignr_epi8(w3, w2, 4);   // W[i-7..i-4]
  const __m128i t =
      _mm_add_epi32(_mm_add_epi32(w0, avx2_sigma0(w_m15)), w_m7);
  // Low two lanes first: they only need sigma1(W[i-2..i-1]).
  const __m128i lo = _mm_add_epi32(t, avx2_sigma1(_mm_srli_si128(w3, 8)));
  // High two lanes need sigma1 of the W[i..i+1] just produced.
  return _mm_add_epi32(lo, avx2_sigma1(_mm_slli_si128(lo, 8)));
}

__attribute__((target("avx2"))) void compress_avx2(std::uint32_t* state,
                                                   const std::uint8_t* blocks,
                                                   std::size_t n) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL,
                                       0x0405060700010203LL);
  for (; n > 0; --n, blocks += 64) {
    alignas(16) std::uint32_t w[64];
    __m128i w0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 0)), bswap);
    __m128i w1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16)), bswap);
    __m128i w2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 32)), bswap);
    __m128i w3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 48)), bswap);
    _mm_store_si128(reinterpret_cast<__m128i*>(w + 0), w0);
    _mm_store_si128(reinterpret_cast<__m128i*>(w + 4), w1);
    _mm_store_si128(reinterpret_cast<__m128i*>(w + 8), w2);
    _mm_store_si128(reinterpret_cast<__m128i*>(w + 12), w3);
    for (int i = 16; i < 64; i += 4) {
      const __m128i next = avx2_schedule(w0, w1, w2, w3);
      _mm_store_si128(reinterpret_cast<__m128i*>(w + i), next);
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = next;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; i += 8) {
      MUSTAPLE_SHA256_ROUND(a, b, c, d, e, f, g, h, kK[i + 0] + w[i + 0]);
      MUSTAPLE_SHA256_ROUND(h, a, b, c, d, e, f, g, kK[i + 1] + w[i + 1]);
      MUSTAPLE_SHA256_ROUND(g, h, a, b, c, d, e, f, kK[i + 2] + w[i + 2]);
      MUSTAPLE_SHA256_ROUND(f, g, h, a, b, c, d, e, kK[i + 3] + w[i + 3]);
      MUSTAPLE_SHA256_ROUND(e, f, g, h, a, b, c, d, kK[i + 4] + w[i + 4]);
      MUSTAPLE_SHA256_ROUND(d, e, f, g, h, a, b, c, kK[i + 5] + w[i + 5]);
      MUSTAPLE_SHA256_ROUND(c, d, e, f, g, h, a, b, kK[i + 6] + w[i + 6]);
      MUSTAPLE_SHA256_ROUND(b, c, d, e, f, g, h, a, kK[i + 7] + w[i + 7]);
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// --------------------------------------------------------------- SHA-NI --

// The SHA extensions do two rounds per sha256rnds2 and provide dedicated
// message-schedule helpers; the register choreography below (ABEF/CDGH state
// packing, msg1 + alignr + msg2 schedule pipeline) is the canonical pattern
// for these instructions.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL,
                                       0x0405060700010203LL);
  // Repack {a,b,c,d} {e,f,g,h} into the ABEF/CDGH layout the instructions
  // expect.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 0));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg;

    // Rounds 0-15: load + byte-swap the message, start the msg1 pipeline.
    __m128i msgs[4];
    msgs[0] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 0)), bswap);
    msg = _mm_add_epi32(
        msgs[0], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 0)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

    msgs[1] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16)), bswap);
    msg = _mm_add_epi32(
        msgs[1], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msgs[0] = _mm_sha256msg1_epu32(msgs[0], msgs[1]);

    msgs[2] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 32)), bswap);
    msg = _mm_add_epi32(
        msgs[2], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 8)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msgs[1] = _mm_sha256msg1_epu32(msgs[1], msgs[2]);

    msgs[3] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 48)), bswap);
    msg = _mm_add_epi32(
        msgs[3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 12)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgs[0] = _mm_add_epi32(msgs[0], _mm_alignr_epi8(msgs[3], msgs[2], 4));
    msgs[0] = _mm_sha256msg2_epu32(msgs[0], msgs[3]);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msgs[2] = _mm_sha256msg1_epu32(msgs[2], msgs[3]);

    // Rounds 16-59: steady-state schedule pipeline (msg1 two vectors back,
    // alignr+msg2 completing the current one).
    for (int j = 4; j < 15; ++j) {
      const __m128i cur = msgs[j & 3];
      const __m128i prev = msgs[(j + 3) & 3];
      msg = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * j)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msgs[(j + 1) & 3] =
          _mm_add_epi32(msgs[(j + 1) & 3], _mm_alignr_epi8(cur, prev, 4));
      msgs[(j + 1) & 3] = _mm_sha256msg2_epu32(msgs[(j + 1) & 3], cur);
      state0 =
          _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
      msgs[(j + 3) & 3] = _mm_sha256msg1_epu32(prev, cur);
    }

    // Rounds 60-63.
    msg = _mm_add_epi32(
        msgs[3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 60)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  // Unpack ABEF/CDGH back to {a..d} {e..h}.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 0), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // MUSTAPLE_SHA256_X86

#undef MUSTAPLE_SHA256_ROUND

// ------------------------------------------------------------- dispatch --

using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

bool impl_available(Sha256Impl impl) {
  switch (impl) {
    case Sha256Impl::kScalar:
    case Sha256Impl::kUnrolled:
      return true;
    case Sha256Impl::kAvx2:
#if defined(MUSTAPLE_SHA256_X86)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Sha256Impl::kShaNi:
#if defined(MUSTAPLE_SHA256_X86)
      return __builtin_cpu_supports("sha") != 0 &&
             __builtin_cpu_supports("sse4.1") != 0;
#else
      return false;
#endif
  }
  return false;
}

BlockFn impl_fn(Sha256Impl impl) {
  switch (impl) {
    case Sha256Impl::kScalar:
      return &compress_scalar;
    case Sha256Impl::kUnrolled:
      return &compress_unrolled;
#if defined(MUSTAPLE_SHA256_X86)
    case Sha256Impl::kAvx2:
      return &compress_avx2;
    case Sha256Impl::kShaNi:
      return &compress_shani;
#else
    case Sha256Impl::kAvx2:
    case Sha256Impl::kShaNi:
      return &compress_unrolled;
#endif
  }
  return &compress_unrolled;
}

Sha256Impl pick_best() {
  if (impl_available(Sha256Impl::kShaNi)) return Sha256Impl::kShaNi;
  if (impl_available(Sha256Impl::kAvx2)) return Sha256Impl::kAvx2;
  return Sha256Impl::kUnrolled;
}

// Atomics so a concurrent first-use from several scan workers is a benign
// idempotent race, not a data race (the TSan CI job hashes from 4 threads).
std::atomic<BlockFn> g_block_fn{nullptr};
std::atomic<Sha256Impl> g_impl{Sha256Impl::kScalar};

BlockFn current_fn() {
  BlockFn fn = g_block_fn.load(std::memory_order_acquire);
  if (fn == nullptr) {
    const Sha256Impl best = pick_best();
    fn = impl_fn(best);
    g_impl.store(best, std::memory_order_relaxed);
    g_block_fn.store(fn, std::memory_order_release);
  }
  return fn;
}

}  // namespace

const char* to_string(Sha256Impl impl) {
  switch (impl) {
    case Sha256Impl::kScalar:
      return "scalar";
    case Sha256Impl::kUnrolled:
      return "unrolled";
    case Sha256Impl::kAvx2:
      return "avx2";
    case Sha256Impl::kShaNi:
      return "sha-ni";
  }
  return "unknown";
}

Sha256Impl sha256_active_impl() {
  current_fn();  // force first-use selection
  return g_impl.load(std::memory_order_relaxed);
}

std::vector<Sha256Impl> sha256_available_impls() {
  std::vector<Sha256Impl> out;
  for (Sha256Impl impl : {Sha256Impl::kScalar, Sha256Impl::kUnrolled,
                          Sha256Impl::kAvx2, Sha256Impl::kShaNi}) {
    if (impl_available(impl)) out.push_back(impl);
  }
  return out;
}

bool sha256_set_impl(Sha256Impl impl) {
  if (!impl_available(impl)) return false;
  g_impl.store(impl, std::memory_order_relaxed);
  g_block_fn.store(impl_fn(impl), std::memory_order_release);
  return true;
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::process_blocks(const std::uint8_t* blocks, std::size_t n) {
  current_fn()(state_.data(), blocks, n);
}

Sha256& Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (finalized_) throw std::logic_error("Sha256::update after digest()");
  total_bytes_ += len;
  // Top up a partially filled staging buffer first.
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == buffer_.size()) {
      process_blocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Fast path: whole blocks are hashed straight from the caller's buffer —
  // no staging memcpy, and multi-block runs amortize the dispatch call.
  const std::size_t whole = len / buffer_.size();
  if (whole > 0) {
    process_blocks(data, whole);
    data += whole * buffer_.size();
    len -= whole * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
  }
  return *this;
}

void Sha256::digest_to(std::uint8_t* out) {
  if (finalized_) throw std::logic_error("Sha256::digest called twice");
  finalized_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  // update() would bump total_bytes_; feed blocks manually.
  auto feed = [&](const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const std::size_t take = std::min(n, buffer_.size() - buffered_);
      std::memcpy(buffer_.data() + buffered_, p, take);
      buffered_ += take;
      p += take;
      n -= take;
      if (buffered_ == buffer_.size()) {
        process_blocks(buffer_.data(), 1);
        buffered_ = 0;
      }
    }
  };
  feed(pad, pad_len);
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  feed(len_bytes, 8);

  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

util::Bytes Sha256::digest() {
  util::Bytes out(kDigestSize);
  digest_to(out.data());
  return out;
}

util::Bytes Sha256::hash(const util::Bytes& data) {
  return Sha256().update(data).digest();
}

}  // namespace mustaple::crypto
