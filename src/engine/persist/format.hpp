// Byte-level primitives shared by the store's record file
// (record_file.hpp) and the shard wire.
//
// Every multi-byte integer is written little-endian one byte at a time,
// so a store written on any host loads on any other — the format never
// depends on the writer's endianness or struct layout. Strings are
// length-prefixed (u32), doubles travel as the little-endian bytes of
// their IEEE-754 bit pattern.
//
// ByteReader is the defensive half: every read is bounds-checked and
// throws pd::Error on overrun, so a truncated or hostile file can never
// walk the reader out of its buffer — the record layer catches the
// error and turns it into a salvage or a cold start.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/digest.hpp"
#include "util/error.hpp"

namespace pd::engine::persist {

/// FNV-1a 64-bit, seedable so one checksum can span several buffers.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t h = util::kFnvOffset) {
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= util::kFnvPrime;
    }
    return h;
}

/// Appends little-endian encodings to a growing byte string.
class ByteWriter {
public:
    explicit ByteWriter(std::string& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /// 16 raw bytes: lane a, then lane b.
    void digest(const util::Digest128& d) {
        u64(d.a);
        u64(d.b);
    }

    /// u32 length prefix + raw bytes.
    void str(std::string_view v) {
        u32(static_cast<std::uint32_t>(v.size()));
        out_.append(v);
    }

private:
    std::string& out_;
};

/// Bounds-checked little-endian decoder; throws pd::Error on overrun.
class ByteReader {
public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    [[nodiscard]] std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    [[nodiscard]] std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    [[nodiscard]] std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

    [[nodiscard]] util::Digest128 digest() {
        util::Digest128 d;
        d.a = u64();
        d.b = u64();
        return d;
    }

    [[nodiscard]] std::string_view str() {
        const std::uint32_t n = u32();
        need(n);
        const std::string_view v = bytes_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    /// Raw byte run of a caller-known length.
    [[nodiscard]] std::string_view raw(std::size_t n) {
        need(n);
        const std::string_view v = bytes_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    [[nodiscard]] std::size_t remaining() const {
        return bytes_.size() - pos_;
    }
    [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

private:
    void need(std::size_t n) const {
        if (bytes_.size() - pos_ < n)
            fail("persist", "truncated record: wanted " + std::to_string(n) +
                                " more bytes, " +
                                std::to_string(bytes_.size() - pos_) +
                                " remain");
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

}  // namespace pd::engine::persist
