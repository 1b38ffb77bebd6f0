#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace ytcdn::util::codec {

/// The byte codec every on-disk format shares (YFL2 flow logs, YTR1 traces,
/// YSS2 snapshots, YCK1 checkpoints and their payloads). Fixed-size values
/// are stored as their raw little-endian bytes — doubles as their exact
/// IEEE-754 bits — and strings as a u32 length followed by the bytes. Each
/// format keeps its own magic, framing, error codes and messages; this
/// header only moves bytes.
static_assert(std::endian::native == std::endian::little,
              "the on-disk formats assume a little-endian host");

/// Appends the bytes of `value`.
template <typename T>
void put(std::string& buf, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto old = buf.size();
    buf.resize(old + sizeof(T));
    std::memcpy(buf.data() + old, &value, sizeof(T));
}

/// Appends a u32 length and the bytes of `s`.
inline void put_str32(std::string& buf, std::string_view s) {
    put(buf, static_cast<std::uint32_t>(s.size()));
    buf.append(s);
}

/// Reads a T at `p` without a bounds check: for fixed-size records whose
/// extent the caller has already validated.
template <typename T>
[[nodiscard]] T load(const char* p) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, p, sizeof(T));
    return value;
}

/// Bounds-checked sequential reader. A take that would run past the end
/// returns false and leaves the offset where it was, so the caller can
/// report the byte at which the data ran out.
class ByteReader {
public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    template <typename T>
    [[nodiscard]] bool take(T& out) {
        if (remaining() < sizeof(T)) return false;
        out = load<T>(data_.data() + off_);
        off_ += sizeof(T);
        return true;
    }

    /// The next `n` bytes as a view into the input. The length is checked
    /// against what remains before anything is touched, so a corrupt
    /// multi-gigabyte length is a clean failure, not an allocation.
    [[nodiscard]] bool take_view(std::string_view& out, std::uint64_t n) {
        if (remaining() < n) return false;
        out = data_.substr(off_, static_cast<std::size_t>(n));
        off_ += static_cast<std::size_t>(n);
        return true;
    }

    [[nodiscard]] bool take_bytes(std::string& out, std::uint64_t n) {
        std::string_view view;
        if (!take_view(view, n)) return false;
        out.assign(view);
        return true;
    }

    /// A u32 length, then that many bytes. When the bytes run short the
    /// offset stays just past the length field.
    [[nodiscard]] bool take_str32(std::string& out) {
        std::uint32_t n = 0;
        return take(n) && take_bytes(out, n);
    }

    [[nodiscard]] std::size_t offset() const noexcept { return off_; }
    [[nodiscard]] std::size_t remaining() const noexcept {
        return data_.size() - off_;
    }
    [[nodiscard]] bool done() const noexcept { return off_ == data_.size(); }

private:
    std::string_view data_;
    std::size_t off_ = 0;
};

}  // namespace ytcdn::util::codec
