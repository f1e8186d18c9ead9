#include "util/json.h"

#include <cmath>
#include <system_error>

namespace besync {

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buffer[32];
  char* end = buffer;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                        std::chars_format::general, precision)
              .ptr;
    double parsed = 0.0;
    const std::from_chars_result back = std::from_chars(buffer, end, parsed);
    if (back.ec == std::errc() && parsed == value) break;
  }
  out->append(buffer, end);
}

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out->append("\\u00");
          out->push_back(kHex[(c >> 4) & 0xf]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace besync
