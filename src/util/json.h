#ifndef BESYNC_UTIL_JSON_H_
#define BESYNC_UTIL_JSON_H_

#include <charconv>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace besync {

/// Appends the shortest of `%.15g`, `%.16g`, `%.17g` that parses back to
/// exactly `value` (`null` for NaN/Inf, which JSON cannot spell). Written
/// with `std::to_chars`, which the standard defines as printf's `%.*g`, so
/// the bytes are a pure function of the value — no locale, no thread count.
void AppendJsonNumber(std::string* out, double value);

/// Appends `text` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
void AppendJsonString(std::string* out, std::string_view text);

/// Tags that route a value through AppendJsonNumber / AppendJsonString when
/// streamed into a JsonWriter.
struct JsonNumber {
  explicit JsonNumber(double v) : value(v) {}
  double value;
};
struct JsonString {
  explicit JsonString(std::string_view t) : text(t) {}
  std::string_view text;
};

/// Formats a JSON document into one reusable char buffer and hands it to
/// the stream in chunks of about `kChunkBytes`, so a writer pays neither a
/// temporary string per field nor a stream call per token. Raw text and
/// integers stream in as-is; doubles must be tagged (JsonNumber) so every
/// float in a document takes the one round-trip format. Flushes on
/// destruction.
class JsonWriter {
 public:
  static constexpr size_t kChunkBytes = 1 << 16;

  explicit JsonWriter(std::ostream* os) : os_(os) {
    buffer_.reserve(kChunkBytes + 256);
  }
  ~JsonWriter() { Flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& operator<<(std::string_view text) {
    buffer_.append(text);
    return MaybeFlush();
  }
  JsonWriter& operator<<(char c) {
    buffer_.push_back(c);
    return MaybeFlush();
  }
  JsonWriter& operator<<(JsonNumber number) {
    AppendJsonNumber(&buffer_, number.value);
    return MaybeFlush();
  }
  JsonWriter& operator<<(JsonString string) {
    AppendJsonString(&buffer_, string.text);
    return MaybeFlush();
  }
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int> &&
                                        !std::is_same_v<Int, bool> &&
                                        !std::is_same_v<Int, char>>>
  JsonWriter& operator<<(Int value) {
    char digits[24];
    char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    buffer_.append(digits, end);
    return MaybeFlush();
  }
  /// Untagged doubles would bypass the round-trip format.
  JsonWriter& operator<<(double) = delete;

  void Flush() {
    os_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

 private:
  JsonWriter& MaybeFlush() {
    if (buffer_.size() >= kChunkBytes) Flush();
    return *this;
  }

  std::ostream* os_;
  std::string buffer_;
};

}  // namespace besync

#endif  // BESYNC_UTIL_JSON_H_
