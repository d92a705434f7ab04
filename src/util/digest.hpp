// 128-bit content digests: the job keys of the result cache, the
// pd-cache store and the shard wire.
//
// A DigestStream absorbs a sequence of fixed-width little-endian words
// into two independent 64-bit lanes: lane `a` is plain FNV-1a over the
// bytes, lane `b` a wyhash-style 64×64→128 multiply-fold per word,
// finalized with the splitmix64 mixer over the word count. Neither lane
// is cryptographic; two lanes of unrelated construction make an
// accidental collision between distinct encodings vanishingly rare, and
// callers that serve results by digest still guard what they serve.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pd::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// splitmix64: advances `state` and returns its next well-mixed output.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct Digest128 {
    std::uint64_t a = 0;  ///< FNV-1a lane
    std::uint64_t b = 0;  ///< multiply-fold lane

    [[nodiscard]] auto operator<=>(const Digest128&) const = default;

    /// 32 lowercase hex digits, lane `a` first.
    [[nodiscard]] std::string hex() const {
        std::string out(32, '0');
        for (int i = 0; i < 16; ++i) {
            out[static_cast<std::size_t>(15 - i)] =
                "0123456789abcdef"[(a >> (4 * i)) & 0xf];
            out[static_cast<std::size_t>(31 - i)] =
                "0123456789abcdef"[(b >> (4 * i)) & 0xf];
        }
        return out;
    }
};

struct Digest128Hash {
    std::size_t operator()(const Digest128& d) const {
        return static_cast<std::size_t>(d.a ^ (d.b * 0x9e3779b97f4a7c15ull));
    }
};

class DigestStream {
public:
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            a_ ^= (v >> (8 * i)) & 0xff;
            a_ *= kFnvPrime;
        }
        const auto m = static_cast<unsigned __int128>(b_ ^ v ^ kMixA) * kMixB;
        b_ = static_cast<std::uint64_t>(m) ^
             static_cast<std::uint64_t>(m >> 64);
        ++words_;
    }

    void u64(std::uint64_t v) {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    /// Length-prefixed byte string, one word per byte.
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        for (const unsigned char c : s) u32(c);
    }

    [[nodiscard]] Digest128 finish() const {
        std::uint64_t state = b_ ^ words_;
        return {a_, splitmix64(state)};
    }

private:
    static constexpr std::uint64_t kMixA = 0xa0761d6478bd642full;
    static constexpr std::uint64_t kMixB = 0xe7037ed1a0b428dbull;
    std::uint64_t a_ = kFnvOffset;
    std::uint64_t b_ = 0;
    std::uint64_t words_ = 0;
};

/// Digest of one byte string (diagnostic keys, fingerprints, tests).
[[nodiscard]] inline Digest128 digestOf(std::string_view bytes) {
    DigestStream s;
    s.str(bytes);
    return s.finish();
}

}  // namespace pd::util
